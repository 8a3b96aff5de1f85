//! The one rule by which a cache serves a value computed against an
//! earlier state of a changing dictionary.
//!
//! Both caches in front of the matcher — the serving layer's result
//! cache and the matcher's [`crate::WindowCache`] — stamp every entry
//! with the [`Stamp`] of the dictionary that computed it and keep no
//! counter of their own. Both take the stamp from one source, a
//! [`crate::FootprintLog`]'s lineage and revision, and both promote an
//! older entry through that log's footprints. A probe names the stamp
//! it reads at, and [`Stamp::serves`] decides; an insert asks
//! [`Stamp::may_replace`].

use std::sync::atomic::{AtomicU64, Ordering};

/// The dictionary position a cached value was computed at: the
/// lineage and revision of a [`crate::FootprintLog`].
///
/// One lineage names one history: lineages come from one process-wide
/// increasing counter, every new history (a new
/// [`crate::SegmentedDict`], a base replacement, a matcher compiled
/// outside any handle) mints its own, and revision `r` of a lineage is
/// the state after its `r`-th commit. A compaction keeps both, since
/// it changes how the state is stored, not what it resolves.
/// Ordered lineage first; since lineages are minted in increasing
/// order, a greater stamp is always the later dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Stamp {
    /// Dictionary identity.
    pub lineage: u64,
    /// Commits since the lineage began.
    pub revision: u64,
}

impl Stamp {
    /// Whether an entry stamped `self` may answer a probe at `probe`:
    /// at its own stamp always; at a later revision of the same
    /// lineage only when `unchanged_since(self.revision)` proves that
    /// every commit since leaves the entry's value alone (the caller
    /// then re-stamps the entry — a *promotion*); at another lineage
    /// or an earlier revision never, and then the check does not run.
    pub fn serves(self, probe: Stamp, unchanged_since: impl FnOnce(u64) -> bool) -> bool {
        self == probe
            || (self.lineage == probe.lineage
                && self.revision < probe.revision
                && unchanged_since(self.revision))
    }

    /// Whether a value computed at `self` may overwrite an entry
    /// stamped `held`: never when `held` is the later dictionary, so a
    /// reader still pinned to a retired state cannot push a newer
    /// entry back.
    pub fn may_replace(self, held: Stamp) -> bool {
        self >= held
    }
}

/// Source of the ids that name dictionary lineages. Monotone, so a
/// later id compares greater.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

/// A fresh nonzero id for a new dictionary lineage.
pub(crate) fn next_lineage() -> u64 {
    NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn at(lineage: u64, revision: u64) -> Stamp {
        Stamp { lineage, revision }
    }

    /// A check that must never run.
    fn never(_: u64) -> bool {
        panic!("promotion checked")
    }

    #[test]
    fn own_stamp_serves_without_a_check() {
        assert!(at(3, 2).serves(at(3, 2), never));
    }

    #[test]
    fn older_revision_serves_only_when_the_check_clears_it() {
        assert!(at(3, 1).serves(at(3, 4), |since| {
            assert_eq!(since, 1);
            true
        }));
        assert!(!at(3, 1).serves(at(3, 4), |_| false));
    }

    #[test]
    fn other_lineages_and_newer_revisions_never_serve() {
        assert!(!at(3, 0).serves(at(4, 0), never));
        assert!(!at(4, 0).serves(at(3, 5), never));
        assert!(!at(3, 5).serves(at(3, 4), never));
    }

    #[test]
    fn only_a_later_or_equal_stamp_replaces() {
        assert!(at(3, 2).may_replace(at(3, 2)));
        assert!(at(3, 2).may_replace(at(3, 1)));
        assert!(at(4, 0).may_replace(at(3, 9)));
        assert!(!at(3, 1).may_replace(at(3, 2)));
        assert!(!at(3, 9).may_replace(at(4, 0)));
    }

    #[test]
    fn lineages_are_unique_and_nonzero() {
        let a = next_lineage();
        let b = next_lineage();
        assert_ne!(a, 0);
        assert!(b > a);
    }
}
