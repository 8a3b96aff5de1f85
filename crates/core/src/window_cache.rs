//! A matcher-level, cross-batch cache of *resolved fuzzy windows*.
//!
//! The serving layer already memoizes whole queries
//! (`websyn_serve::cache`), and [`crate::matcher::MatchScratch`]
//! memoizes windows within one shard's run — but a **novel** query
//! shares none of the former and a fresh shard shares none of the
//! latter, so every batch (and every shard of every batch) re-pays
//! first-sight resolution for windows the process has already
//! verified. Real query streams repeat *fragments* far more often than
//! whole queries ("canon eos 350d review" after "canon eos 350d
//! price"), which is exactly what this cache captures: a bounded,
//! sharded map from window text to its fuzzy resolution, shared across
//! batches and threads.
//!
//! Correctness story:
//!
//! - a window's resolution is a pure function of its text for a fixed
//!   dictionary state, so cached entries can never change an output —
//!   only skip recomputing it (pinned by the cache-on ≡ cache-off
//!   property tests);
//! - a cached verdict holds what a span needs — the surface string,
//!   its entity and the distance — and no surface id, so it means the
//!   same thing in every representation of one dictionary state: a
//!   base plus delta overlay, or the base a compaction folded them
//!   into;
//! - every entry is **stamped** ([`crate::Stamp`]) with the lineage and
//!   revision of the [`crate::FootprintLog`] the resolving matcher
//!   carries, exactly as result-cache entries are. A probe hits an
//!   entry with its own stamp, so a cache shared across matchers never
//!   serves a window another dictionary resolved, and the cache keeps
//!   no counter of its own;
//! - an entry from an older revision of the same lineage is
//!   **promoted** — re-stamped and served — when every footprint
//!   committed since provably leaves the window alone
//!   ([`crate::FootprintLog::window_unchanged_since`]).
//!
//! Keys are the 64-bit SipHash of the window text, with the full text
//! stored in the entry and **verified on every hit** — a probe whose
//! hash matches but whose text differs is a miss, so a (astronomically
//! unlikely) 64-bit collision can only evict, never corrupt an output.
//! Hashing the slice instead of owning the key means a re-insert of a
//! known window (the common churn case: same window under a fresh
//! stamp after a dictionary swap) updates its entry **in place
//! with zero allocation**; only first-sight windows pay one `Box<str>`.
//! Window text is untrusted serving input, so the one hash uses std's
//! randomly seeded SipHash, not `FxHashMap` (which
//! `websyn_common::hash` forbids for untrusted input); the shard maps
//! themselves then key on that already-uniform hash through a
//! passthrough hasher rather than hashing twice.

use crate::Stamp;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use websyn_common::EntityId;

/// A window's verified fuzzy resolution: the surface it resolved to,
/// that surface's entity and the edit distance. It names no surface
/// id, so a verdict computed over one representation of a dictionary
/// state stays right over another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Verdict {
    pub(crate) surface: Arc<str>,
    pub(crate) entity: EntityId,
    pub(crate) distance: usize,
}

/// A cached window resolution: `None` is a verified miss (windows that
/// resolve to nothing dominate real traffic and must be cached too).
pub(crate) type Resolution = Option<Verdict>;

/// Number of independently locked shards. Power of two; sixteen keeps
/// lock contention negligible at serving thread counts while the
/// per-shard maps stay dense.
const SHARDS: usize = 16;

/// Identity hasher for keys that are already SipHash outputs. The
/// shard maps would otherwise re-hash the 64-bit hash on every probe.
#[derive(Debug, Default, Clone, Copy)]
struct Passthrough(u64);

impl Hasher for Passthrough {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("window-cache maps only hash u64 keys");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

impl BuildHasher for Passthrough {
    type Hasher = Passthrough;
    fn build_hasher(&self) -> Passthrough {
        Passthrough(0)
    }
}

/// One cached window: the full text (for hit verification), the stamp
/// of the dictionary that resolved it, and its resolution.
#[derive(Debug)]
struct CacheEntry {
    key: Box<str>,
    stamp: Stamp,
    resolution: Resolution,
}

/// One locked shard: hash → entry, plus FIFO insertion order for
/// eviction (hashes, not keys — eviction bookkeeping allocates
/// nothing).
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, CacheEntry, Passthrough>,
    /// Insertion order, oldest first. In-place updates keep their
    /// original position, so every map entry appears here exactly once.
    order: VecDeque<u64>,
}

/// Point-in-time counters of a [`WindowCache`] (see
/// [`WindowCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowCacheStats {
    /// Probes answered from the cache (the probe's own stamp, or a
    /// promotion).
    pub hits: u64,
    /// Probes that found nothing usable (absent, another dictionary's
    /// or an unpromotable stamp, or hash-collided with different text).
    pub misses: u64,
    /// Hits served by *promoting* a stale entry across a delta commit
    /// (counted in `hits` too): the entry predated the newest commits
    /// but its window was provably unaffected by them.
    pub promotions: u64,
    /// Live entries across all shards, including other dictionaries'
    /// not yet evicted.
    pub entries: usize,
    /// Total capacity across all shards.
    pub capacity: usize,
}

/// The bounded, sharded, stamp-checked window-resolution cache.
/// Construct via [`WindowCache::new`], attach with
/// [`crate::EntityMatcher::with_window_cache`] (or share one across
/// matchers with [`crate::EntityMatcher::with_shared_window_cache`]).
#[derive(Debug)]
pub struct WindowCache {
    shards: Box<[Mutex<Shard>]>,
    /// Max entries per shard.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Older-revision entries revalidated across a delta commit instead
    /// of recomputed (see [`WindowCache::get`]).
    promotions: AtomicU64,
    /// Shared seed state so every shard hashes keys identically for
    /// shard selection.
    hasher: RandomState,
}

impl WindowCache {
    /// A cache holding at most (roughly) `capacity` window entries.
    pub fn new(capacity: usize) -> Self {
        let shards = (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect();
        Self {
            shards,
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            hasher: RandomState::new(),
        }
    }

    /// The (hash, shard index) of `key` — one SipHash pass serves both
    /// shard selection and the map lookup. The shard comes from the
    /// *top* bits: the passthrough map spends the low bits on bucket
    /// selection, and reusing them for sharding would leave each
    /// shard's buckets systematically sparse.
    fn locate(&self, key: &str) -> (u64, usize) {
        let h = self.hasher.hash_one(key);
        (h, (h >> 60) as usize % SHARDS)
    }

    /// Looks `key` up for the dictionary at `stamp` under the rule of
    /// [`Stamp::serves`]: an entry from an older revision of the same
    /// lineage is promoted — re-stamped in place and served — when
    /// `unaffected_since(window, entry_revision)` proves that the
    /// commits since cannot change its resolution (the conservative
    /// footprint test of `crate::segment`), so a delta commit
    /// invalidates only the windows it could actually touch. A hash
    /// match whose stored text differs is a miss too.
    pub(crate) fn get(
        &self,
        key: &str,
        stamp: Stamp,
        unaffected_since: impl FnOnce(&str, u64) -> bool,
    ) -> Option<Resolution> {
        let (h, idx) = self.locate(key);
        let mut shard = self.shards[idx].lock().expect("window cache poisoned");
        match shard.map.get_mut(&h) {
            Some(e)
                if *e.key == *key
                    && e.stamp
                        .serves(stamp, |revision| unaffected_since(key, revision)) =>
            {
                if e.stamp != stamp {
                    e.stamp = stamp;
                    self.promotions.fetch_add(1, Ordering::Relaxed);
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.resolution.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records `key`'s resolution under `stamp`, evicting oldest
    /// entries (FIFO) past the shard budget. Re-recording a window the
    /// cache already holds (same text, e.g. under a fresh stamp)
    /// updates the entry in place without allocating — unless the
    /// entry's stamp is later ([`Stamp::may_replace`]). A hash
    /// collision with different text overwrites the colliding entry.
    pub(crate) fn insert(&self, key: &str, stamp: Stamp, resolution: Resolution) {
        let (h, idx) = self.locate(key);
        let mut shard = self.shards[idx].lock().expect("window cache poisoned");
        if let Some(e) = shard.map.get_mut(&h) {
            if *e.key != *key {
                e.key = key.into();
            } else if !stamp.may_replace(e.stamp) {
                return;
            }
            e.stamp = stamp;
            e.resolution = resolution;
            return;
        }
        while shard.map.len() >= self.shard_capacity {
            match shard.order.pop_front() {
                Some(old) => {
                    shard.map.remove(&old);
                }
                None => break,
            }
        }
        shard.order.push_back(h);
        shard.map.insert(
            h,
            CacheEntry {
                key: key.into(),
                stamp,
                resolution,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> WindowCacheStats {
        WindowCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("window cache poisoned").map.len())
                .sum(),
            capacity: self.shard_capacity * SHARDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn at(lineage: u64, revision: u64) -> Stamp {
        Stamp { lineage, revision }
    }

    fn verdict(surface: &str, entity: u32, distance: usize) -> Resolution {
        Some(Verdict {
            surface: surface.into(),
            entity: EntityId::new(entity),
            distance,
        })
    }

    /// A promotion check that must never run.
    fn never(_: &str, _: u64) -> bool {
        panic!("promotion checked")
    }

    #[test]
    fn hit_after_insert_same_stamp() {
        let c = WindowCache::new(64);
        assert_eq!(c.get("canon eos", at(1, 0), never), None);
        c.insert("canon eos", at(1, 0), verdict("canon eos 350d", 3, 1));
        assert_eq!(
            c.get("canon eos", at(1, 0), never),
            Some(verdict("canon eos 350d", 3, 1))
        );
        c.insert("junk window", at(1, 0), None);
        assert_eq!(c.get("junk window", at(1, 0), never), Some(None));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 2));
    }

    #[test]
    fn another_lineage_never_sees_an_entry() {
        let c = WindowCache::new(64);
        c.insert("window", at(1, 0), verdict("windows", 9, 2));
        assert!(c.get("window", at(1, 0), never).is_some());
        // Another lineage never sees the entry, whatever its revision,
        // and never consults the promotion check.
        assert_eq!(c.get("window", at(2, 0), never), None);
        assert_eq!(c.get("window", at(2, 3), never), None);
        // The lineage's own entry is still there when it returns: one
        // (lineage, revision) never names two dictionaries.
        assert_eq!(
            c.get("window", at(1, 0), never),
            Some(verdict("windows", 9, 2))
        );
    }

    #[test]
    fn older_revisions_promote_only_when_cleared() {
        let c = WindowCache::new(64);
        c.insert("kept", at(1, 0), None);
        c.insert("touched", at(1, 0), None);
        // The check sees the entry's revision; a pass re-stamps it.
        assert_eq!(
            c.get("kept", at(1, 2), |key, revision| {
                assert_eq!((key, revision), ("kept", 0));
                true
            }),
            Some(None)
        );
        assert_eq!(c.get("kept", at(1, 2), never), Some(None), "re-stamped");
        assert_eq!(c.get("touched", at(1, 2), |_, _| false), None);
        // A newer entry is invisible to an older revision, and an older
        // writer does not overwrite it.
        assert_eq!(c.get("kept", at(1, 1), never), None);
        c.insert("kept", at(1, 1), verdict("kempt", 4, 1));
        assert_eq!(c.get("kept", at(1, 2), never), Some(None));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.promotions), (3, 2, 1));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = WindowCache::new(64);
        c.insert("canon eos", at(1, 0), None);
        assert_eq!(c.stats().entries, 1);
        // Same window under another dictionary: the entry is refreshed
        // in place — entry count stays flat and the new resolution wins.
        c.insert("canon eos", at(2, 0), verdict("canon eos 350d", 7, 1));
        assert_eq!(c.stats().entries, 1);
        assert_eq!(
            c.get("canon eos", at(2, 0), never),
            Some(verdict("canon eos 350d", 7, 1))
        );
        assert_eq!(c.get("canon eos", at(1, 0), never), None, "overwritten");
        // The earlier dictionary's writer cannot push its entry back.
        c.insert("canon eos", at(1, 0), None);
        assert_eq!(
            c.get("canon eos", at(2, 0), never),
            Some(verdict("canon eos 350d", 7, 1))
        );
    }

    #[test]
    fn eviction_keeps_the_map_bounded() {
        let c = WindowCache::new(SHARDS); // one entry per shard
        for i in 0..1000 {
            c.insert(&format!("window {i}"), at(1, 0), None);
        }
        let s = c.stats();
        assert!(s.entries <= s.capacity, "{s:?}");
        assert_eq!(s.capacity, SHARDS);
    }
}
