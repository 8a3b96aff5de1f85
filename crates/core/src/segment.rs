//! Segmented dictionaries with live delta updates — the dictionary
//! lifecycle behind continuous synonym mining.
//!
//! A compiled dictionary ([`crate::dict::CompiledDict`]) is immutable
//! by design: every derived structure (probe table, candidate indexes,
//! reachability tables) is laid out once over the full surface set.
//! That makes updates a compile-the-world affair — fine for a nightly
//! artifact, wrong for a mining pipeline that emits a handful of new
//! synonyms a minute. This module adds the Lucene-style middle ground:
//!
//! - an immutable **base** matcher, compiled the usual way;
//! - an ordered chain of small **delta segments** ([`DeltaSegment`]),
//!   each sealed from one committed [`DictDelta`] (upserts and
//!   tombstones). Later segments override earlier ones; the chain is
//!   consulted in probe order by collapsing it into one small overlay
//!   compile per commit — deltas are tiny, so recompiling the overlay
//!   costs milliseconds while the base (the expensive part) is reused
//!   untouched;
//! - a background **merge** that compacts base + deltas into a fresh
//!   base once the chain grows past a threshold, abandoning itself if
//!   a newer commit lands first;
//! - a per-commit **footprint** ([`DeltaFootprint`]) — a conservative
//!   "could this window/query resolve differently now?" test — so the
//!   shared window cache and a serving result cache invalidate only
//!   entries a delta could actually touch, promoting everything else
//!   across the commit instead of re-verifying the world. The last 64
//!   footprints of a lineage form its [`FootprintLog`].
//!
//! [`DictHandle`] is the single way in. It publishes one immutable
//! [`DictView`] at a time — lineage, revision, serving matcher and
//! [`FootprintLog`] — so a reader pins all four with one `Arc` clone
//! ([`DictHandle::view`]) and never waits for a commit's overlay
//! compile. Writers stage deltas ([`DictHandle::apply_delta`] followed
//! by [`DictHandle::commit`], or [`DictHandle::apply`] for both at
//! once), compact explicitly or automatically, or install an unrelated
//! base ([`DictHandle::replace_base`]). Caches keep no counters of
//! their own: a cached result or window verdict is stamped
//! ([`crate::Stamp`]) with the view position that computed it — the
//! serving matcher carries its view's log for that — and an older stamp
//! is promoted only when every footprint committed since clears the
//! key.
//!
//! Resolution over base + deltas is **byte-identical** to a monolithic
//! recompile of the merged surface set (pinned by the
//! `segmented_equivalence` proptests): the merged matcher runs both
//! candidate chains in lock-step, drops shadowed base surfaces before
//! they can influence gating, and merges the fallback vocabulary test
//! across segments — see `crate::fuzzy::resolve_merged_window`.

use crate::dict::UNKNOWN_TOKEN;
use crate::fuzzy::FuzzyConfig;
use crate::matcher::EntityMatcher;
use crate::stamp::Stamp;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use websyn_common::{EntityId, FxHashMap, SurfaceId};
use websyn_text::normalize;

/// Footprints older than this many commits are dropped from the
/// promotion log: a cache entry that has survived 64 commits unprobed
/// is cold enough that re-verifying it on the next probe costs less
/// than carrying an unbounded log.
const FOOTPRINT_LOG_CAP: usize = 64;

/// How many committed segments accumulate before [`DictHandle`]
/// spawns a background compaction (when auto-compaction is enabled).
pub const DEFAULT_AUTO_COMPACT: usize = 8;

/// A batch of dictionary edits: surface upserts and tombstones, in
/// application order (a later op on the same surface wins).
///
/// The TSV wire format mirrors the dictionary artifact, one op per
/// line: `surface \t entity-id` upserts (inserting a new surface or
/// re-pointing an existing one), `surface \t -` tombstones. Lines
/// starting with `#` and blank lines are ignored.
///
/// # Examples
///
/// ```
/// use websyn_common::EntityId;
/// use websyn_core::DictDelta;
///
/// let delta = DictDelta::parse_tsv("Indy 5\t7\nmadagascar 2\t-\n").unwrap();
/// assert_eq!(delta.len(), 2);
/// assert_eq!(delta.upserts(), 1);
/// assert_eq!(delta.tombstones(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DictDelta {
    /// Normalized surface → new binding (`None` = tombstone), in
    /// application order.
    ops: Vec<(String, Option<EntityId>)>,
}

impl DictDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or re-points) a surface. The surface is normalized; an
    /// op whose surface normalizes to nothing is dropped.
    pub fn upsert(&mut self, surface: &str, entity: EntityId) {
        let surface = normalize(surface);
        if !surface.is_empty() {
            self.ops.push((surface, Some(entity)));
        }
    }

    /// Removes a surface from the served dictionary (whether it lives
    /// in the base or an earlier delta). Tombstoning an unknown
    /// surface is a no-op at resolution time but still recorded.
    pub fn tombstone(&mut self, surface: &str) {
        let surface = normalize(surface);
        if !surface.is_empty() {
            self.ops.push((surface, None));
        }
    }

    /// Parses the delta TSV format (see the type docs).
    ///
    /// # Errors
    /// Returns a codec error on a missing tab, a non-numeric entity
    /// id, or a surface that normalizes to the empty string.
    pub fn parse_tsv(tsv: &str) -> websyn_common::Result<Self> {
        let mut delta = Self::new();
        for (lineno, line) in tsv.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (surface, value) = line.rsplit_once('\t').ok_or_else(|| {
                websyn_common::Error::codec(format!("delta line {}: missing tab", lineno + 1))
            })?;
            let surface = normalize(surface);
            if surface.is_empty() {
                return Err(websyn_common::Error::codec(format!(
                    "delta line {}: empty surface",
                    lineno + 1
                )));
            }
            if value == "-" {
                delta.ops.push((surface, None));
            } else {
                let id: u32 = value.parse().map_err(|e| {
                    websyn_common::Error::codec(format!(
                        "delta line {}: bad entity id: {e}",
                        lineno + 1
                    ))
                })?;
                delta.ops.push((surface, Some(EntityId::new(id))));
            }
        }
        Ok(delta)
    }

    /// Number of ops (after normalization dropped empty surfaces).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta carries no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of upsert ops.
    pub fn upserts(&self) -> usize {
        self.ops.iter().filter(|(_, e)| e.is_some()).count()
    }

    /// Number of tombstone ops.
    pub fn tombstones(&self) -> usize {
        self.ops.iter().filter(|(_, e)| e.is_none()).count()
    }

    /// The ops in application order (`None` entity = tombstone).
    pub fn ops(&self) -> impl Iterator<Item = (&str, Option<EntityId>)> + '_ {
        self.ops.iter().map(|(s, e)| (s.as_str(), *e))
    }
}

/// The conservative invalidation test sealed with one commit: could a
/// given window (or any window of a given query) resolve differently
/// across that commit?
///
/// The footprint is a *mini dictionary* compiled over exactly the
/// surfaces the commit touched (upserted and tombstoned alike), with
/// the same fuzzy configuration as the serving dictionary. A window
/// is affected when it shares a vocabulary token with a changed
/// surface, or any candidate source built over the changed surfaces
/// proposes at least one of them for the window at the window's edit
/// budget. Because candidate proposal is a pairwise (window, surface)
/// predicate — an index proposes exactly what a monolithic index
/// would, restricted to its own surfaces — a window the footprint
/// clears provably sees the same candidate set, the same fallback
/// gating, and therefore the same resolution before and after the
/// commit. Caches use this to *promote* unaffected entries across
/// commits instead of re-verifying them.
#[derive(Debug)]
pub struct DeltaFootprint {
    /// The changed surfaces compiled as a dictionary (entity ids are
    /// irrelevant here — only surfaces, tokens, and candidate indexes
    /// matter).
    mini: EntityMatcher,
    /// Longest query window worth testing: windows with more tokens
    /// than any changed surface plus the edit budget can neither
    /// exact-match nor verify against a changed surface, and the
    /// fallback gate only exists at 2-token windows (hence the floor).
    max_window: usize,
    /// The abbreviation source can map a long window onto a short
    /// surface with no token-count relation, so every window length
    /// must be tested.
    unbounded: bool,
}

impl DeltaFootprint {
    /// Builds the footprint of a commit that touched `changed`
    /// surfaces (already normalized), under the serving dictionary's
    /// fuzzy config (`None` for an exact-only dictionary).
    fn build(changed: impl IntoIterator<Item = String>, config: Option<FuzzyConfig>) -> Self {
        let mini = EntityMatcher::from_pairs(changed.into_iter().map(|s| (s, EntityId::new(0))));
        let max_distance = config.as_ref().map_or(0, |c| c.max_distance);
        let unbounded = config.as_ref().is_some_and(|c| c.abbrev);
        let mini = match config {
            Some(config) => mini.with_fuzzy(config),
            None => mini,
        };
        Self {
            max_window: (mini.dict().max_tokens() + max_distance).max(2),
            unbounded,
            mini,
        }
    }

    /// Whether resolving the window `window` (normalized text) could
    /// differ across this commit. `false` is a proof of stability;
    /// `true` is conservative.
    pub fn affects_window(&self, window: &str) -> bool {
        thread_local! {
            static SCRATCH: crate::dict::QueryScratch =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        SCRATCH.with_borrow_mut(|(bounds, ids)| {
            self.mini.dict().map_query(window, bounds, ids);
            self.affects_ids(window, ids)
        })
    }

    /// [`DeltaFootprint::affects_window`] over pre-mapped token ids
    /// (in the mini dictionary's vocabulary).
    fn affects_ids(&self, window: &str, ids: &[u32]) -> bool {
        // Any shared vocabulary token: the window anchors into a
        // changed surface (this also covers exact hits, dead-token
        // fallback-gate knock-ons, and tokens a delta introduced).
        if ids.iter().any(|&t| t != UNKNOWN_TOKEN) {
            return true;
        }
        let Some(fuzzy) = self.mini.fuzzy_dict() else {
            return false;
        };
        let budget = fuzzy.config().max_distance_for(window.chars().count());
        budget > 0 && fuzzy.proposes_any(window, ids.len(), budget)
    }

    /// Whether resolving any window of the normalized query `query`
    /// could differ across this commit — the result-cache promotion
    /// test (entries are keyed by whole queries).
    pub fn affects_query(&self, query: &str) -> bool {
        thread_local! {
            static SCRATCH: crate::dict::QueryScratch =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        SCRATCH.with_borrow_mut(|(bounds, ids)| {
            self.mini.dict().map_query(query, bounds, ids);
            let n = ids.len();
            let cap = if self.unbounded { n } else { self.max_window };
            for i in 0..n {
                for len in 1..=cap.min(n - i) {
                    let text = &query[bounds[i].0 as usize..bounds[i + len - 1].1 as usize];
                    if self.affects_ids(text, &ids[i..i + len]) {
                        return true;
                    }
                }
            }
            false
        })
    }
}

/// One sealed, committed delta in a [`SegmentedDict`]'s chain.
#[derive(Debug)]
pub struct DeltaSegment {
    /// Upsert ops in the originating delta.
    upserts: usize,
    /// Tombstone ops in the originating delta.
    tombstones: usize,
}

impl DeltaSegment {
    /// Upsert ops carried by this segment.
    pub fn upserts(&self) -> usize {
        self.upserts
    }

    /// Tombstone ops carried by this segment.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }
}

/// The merged read-side view of the delta chain, attached to a base
/// matcher clone to form the serving snapshot: one small compiled
/// overlay dictionary (live upserts), the shadow set it casts over the
/// base, and the bookkeeping the merged resolution path needs.
#[derive(Debug)]
pub(crate) struct OverlayState {
    /// The collapsed live upserts, compiled with the base's fuzzy
    /// config (so the candidate chains are structurally identical and
    /// can run in lock-step).
    pub(crate) matcher: EntityMatcher,
    /// Bitset over base surface ids: overridden or tombstoned.
    shadowed: Vec<u64>,
    /// Bitset over base token ids: tokens carried by no live base
    /// surface (their vocabulary anchor died with their surfaces).
    dead_tokens: Vec<u64>,
    /// Number of shadowed base surfaces.
    shadowed_count: usize,
    /// Max token count over *live* surfaces (non-shadowed base ∪
    /// overlay) — the merged window bound. Using the base's own bound
    /// would probe window lengths a monolithic recompile never would.
    pub(crate) live_max_tokens: usize,
}

impl OverlayState {
    /// Whether base surface `sid` is overridden or tombstoned.
    #[inline]
    pub(crate) fn shadowed(&self, sid: u32) -> bool {
        self.shadowed[sid as usize >> 6] & (1 << (sid & 63)) != 0
    }

    /// Whether base token `tok` is carried by no live base surface.
    #[inline]
    pub(crate) fn dead_token(&self, tok: u32) -> bool {
        self.dead_tokens
            .get(tok as usize >> 6)
            .is_some_and(|w| w & (1 << (tok & 63)) != 0)
    }

    /// Heap bytes of the overlay's compiled dictionary and bitsets.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.matcher.heap_bytes() + (self.shadowed.capacity() + self.dead_tokens.capacity()) * 8
    }

    /// Live surface count of the merged view.
    pub(crate) fn live_len(&self, base_len: usize) -> usize {
        base_len - self.shadowed_count + self.matcher.dict().len()
    }

    /// Builds the overlay for `base` from the collapsed map of all
    /// committed deltas (`None` = tombstone).
    fn build(base: &EntityMatcher, overlay_map: &FxHashMap<String, Option<EntityId>>) -> Self {
        let upserts = overlay_map
            .iter()
            .filter_map(|(s, e)| e.map(|e| (s.clone(), e)));
        let matcher = EntityMatcher::from_pairs(upserts);
        let matcher = match base.fuzzy_config() {
            Some(config) => matcher.with_fuzzy(config.clone()),
            None => matcher,
        };
        let dict = base.dict();
        let mut shadowed = vec![0u64; dict.len().div_ceil(64)];
        let mut shadowed_count = 0;
        for surface in overlay_map.keys() {
            if let Some(sid) = dict.get_str(surface) {
                let (w, b) = (sid.as_usize() >> 6, sid.raw() & 63);
                if shadowed[w] & (1 << b) == 0 {
                    shadowed[w] |= 1 << b;
                    shadowed_count += 1;
                }
            }
        }
        let mut dead_tokens = Vec::new();
        let mut live_max_tokens = dict.max_tokens();
        if shadowed_count > 0 {
            // Recompute the vocabulary and window bound over live base
            // surfaces only: one linear pass over the arena.
            let mut live = vec![0u64; dict.n_tokens().div_ceil(64)];
            live_max_tokens = 0;
            for sid in (0..dict.len()).map(SurfaceId::from_usize) {
                let raw = sid.raw();
                if shadowed[raw as usize >> 6] & (1 << (raw & 63)) != 0 {
                    continue;
                }
                let toks = dict.token_ids(sid);
                live_max_tokens = live_max_tokens.max(toks.len());
                for &t in toks {
                    live[t as usize >> 6] |= 1 << (t & 63);
                }
            }
            dead_tokens = live.iter().map(|w| !w).collect();
        }
        live_max_tokens = live_max_tokens.max(matcher.dict().max_tokens());
        Self {
            matcher,
            shadowed,
            dead_tokens,
            shadowed_count,
            live_max_tokens,
        }
    }
}

/// Where a dictionary stands and how it got there: its lineage, its
/// revision, and the footprints of the last commits of that lineage.
///
/// Both caches stamp each entry with the `(lineage, revision)` that
/// computed it. The result cache asks [`FootprintLog::unchanged_since`]
/// whether an older entry may be promoted, the window cache
/// [`FootprintLog::window_unchanged_since`]. The log holds no serving
/// matcher, so a cache probe that reads it can never be the last owner
/// of a serving snapshot — and so never the thread left to free a base
/// that a compaction retired.
///
/// A [`DictHandle`] publishes one log per revision and hands it to
/// the serving matcher too; a matcher compiled outside any handle
/// carries the empty log of a lineage of its own
/// ([`FootprintLog::default`]).
#[derive(Debug)]
pub struct FootprintLog {
    /// Dictionary identity: changes only when an unrelated base is
    /// installed. Minted from a process-wide counter, so a later
    /// lineage compares greater.
    lineage: u64,
    /// Commits since the lineage began (monotone across compaction,
    /// which changes the representation, not the resolution).
    revision: u64,
    /// Footprints of the last (at most [`FOOTPRINT_LOG_CAP`]) commits,
    /// oldest first; the last one committed `revision`.
    footprints: Vec<Arc<DeltaFootprint>>,
}

impl Default for FootprintLog {
    /// The empty log of a new lineage.
    fn default() -> Self {
        Self {
            lineage: crate::stamp::next_lineage(),
            revision: 0,
            footprints: Vec::new(),
        }
    }
}

impl FootprintLog {
    /// The log after one more commit, whose footprint is `footprint`.
    /// Past the cap the oldest footprint falls off.
    fn commit(&self, footprint: Arc<DeltaFootprint>) -> Self {
        let dropped = self.footprints.len().saturating_sub(FOOTPRINT_LOG_CAP - 1);
        let mut footprints: Vec<_> = self.footprints.iter().skip(dropped).cloned().collect();
        footprints.push(footprint);
        Self {
            lineage: self.lineage,
            revision: self.revision + 1,
            footprints,
        }
    }

    /// Dictionary identity (changes only on a base replacement).
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Commits since the lineage began.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The position a cache stamps what it computes at this log's
    /// revision with.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            lineage: self.lineage,
            revision: self.revision,
        }
    }

    /// Whether the normalized query `query` resolves at this log's
    /// revision exactly as it did at `revision` of the same lineage:
    /// every commit since provably leaves it unchanged (see
    /// [`DeltaFootprint::affects_query`]). `false` — unprovable — when
    /// `revision` predates the log's reach or is newer than the log.
    pub fn unchanged_since(&self, revision: u64, query: &str) -> bool {
        self.cleared_since(revision, |fp| fp.affects_query(query))
    }

    /// Whether the normalized window `window` resolves at this log's
    /// revision exactly as it did at `revision` of the same lineage
    /// (see [`DeltaFootprint::affects_window`]) — the window-cache
    /// promotion test, with the reach of
    /// [`FootprintLog::unchanged_since`].
    pub fn window_unchanged_since(&self, revision: u64, window: &str) -> bool {
        self.cleared_since(revision, |fp| fp.affects_window(window))
    }

    /// Whether no footprint committed after `revision` is `affected`;
    /// `false` when `revision` is newer than the log or older than its
    /// reach.
    fn cleared_since(&self, revision: u64, affected: impl Fn(&DeltaFootprint) -> bool) -> bool {
        let since = self
            .revision
            .checked_sub(revision)
            .and_then(|n| usize::try_from(n).ok());
        since.is_some_and(|n| {
            n <= self.footprints.len()
                && !self.footprints.iter().rev().take(n).any(|fp| affected(fp))
        })
    }
}

/// One published state of a dictionary: its footprint log, the matcher
/// that serves the log's revision, and its lifecycle counters.
/// Immutable — a commit, compaction or base replacement publishes a new
/// view and never mutates one a reader holds.
#[derive(Debug)]
pub struct DictView {
    log: Arc<FootprintLog>,
    matcher: Arc<EntityMatcher>,
    stats: DictStats,
}

impl DictView {
    /// Dictionary identity (changes only on a base replacement).
    pub fn lineage(&self) -> u64 {
        self.log.lineage
    }

    /// Commits since the lineage began.
    pub fn revision(&self) -> u64 {
        self.log.revision
    }

    /// The serving snapshot at this revision.
    pub fn matcher(&self) -> &Arc<EntityMatcher> {
        &self.matcher
    }

    /// The footprint log this view serves at.
    pub fn log(&self) -> &Arc<FootprintLog> {
        &self.log
    }

    /// Lifecycle counters at publication.
    pub fn stats(&self) -> DictStats {
        self.stats
    }
}

/// Point-in-time dictionary lifecycle counters, reported by `/stats`
/// and `/metrics` on the serving side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DictStats {
    /// Live surfaces in the merged view.
    pub surfaces: usize,
    /// Committed delta segments since the current base.
    pub segments: usize,
    /// Live overlay upserts (after collapsing the chain).
    pub delta_upserts: usize,
    /// Live tombstones (after collapsing the chain).
    pub delta_tombstones: usize,
    /// Staged ops not yet committed.
    pub pending: usize,
    /// Commits since the current base.
    pub epoch: u64,
    /// Commits since the current lineage (monotone across
    /// compaction, reset by a base replacement).
    pub revision: u64,
    /// Completed compactions (foreground and background).
    pub compactions: u64,
    /// Heap bytes of the served dictionary, base plus overlay
    /// ([`EntityMatcher::heap_bytes`]).
    pub heap_bytes: usize,
}

/// An immutable base matcher plus an ordered chain of committed delta
/// segments, collapsed into one serving snapshot per commit.
///
/// This is the lifecycle state machine; most callers want the
/// thread-safe [`DictHandle`] wrapper. Direct use is for single-owner
/// scenarios (tests, offline tools).
#[derive(Debug)]
pub struct SegmentedDict {
    /// The expensive compiled artifact, reused untouched across
    /// commits.
    base: EntityMatcher,
    /// Committed segments, oldest first.
    segments: Vec<DeltaSegment>,
    /// The chain collapsed to one binding per surface (`None` =
    /// tombstone) — later segments won.
    overlay_map: FxHashMap<String, Option<EntityId>>,
    /// Staged deltas awaiting [`SegmentedDict::commit`].
    pending: Vec<DictDelta>,
    /// The published state: a clone of `base` (with the overlay
    /// attached while the chain is non-empty) carrying the view's log.
    /// Readers clone the `Arc` and are pinned to it for the whole read.
    view: Arc<DictView>,
    /// Commits since the current base (the chain's length; reported
    /// as [`DictStats::epoch`]).
    epoch: u64,
    /// Completed compactions.
    compactions: u64,
}

impl SegmentedDict {
    /// Wraps a compiled matcher as the base of a new lineage. Its
    /// serving matchers carry this lineage's logs, so they stamp window
    /// verdicts under a lineage no other handle or matcher stamps — not
    /// even when `base` is a clone another handle also built on.
    pub fn new(base: EntityMatcher) -> Self {
        let log = Arc::new(FootprintLog::default());
        let view = DictView {
            matcher: Arc::new(base.clone().with_log(Arc::clone(&log))),
            log,
            stats: DictStats {
                surfaces: base.dict().len(),
                heap_bytes: base.heap_bytes(),
                ..DictStats::default()
            },
        };
        Self {
            base,
            segments: Vec::new(),
            overlay_map: FxHashMap::default(),
            pending: Vec::new(),
            view: Arc::new(view),
            epoch: 0,
            compactions: 0,
        }
    }

    /// The published state: serving snapshot, footprint log and
    /// counters, captured together.
    pub fn view(&self) -> Arc<DictView> {
        Arc::clone(&self.view)
    }

    /// The current serving snapshot. The clone is pinned: a commit or
    /// compaction publishes a new view but never mutates a snapshot a
    /// reader already holds.
    pub fn matcher(&self) -> Arc<EntityMatcher> {
        Arc::clone(&self.view.matcher)
    }

    /// Stages a delta; it takes effect at the next
    /// [`SegmentedDict::commit`].
    pub fn stage(&mut self, delta: DictDelta) {
        if !delta.is_empty() {
            self.pending.push(delta);
            self.publish(Arc::clone(&self.view.log), Arc::clone(&self.view.matcher));
        }
    }

    /// Seals every staged delta into one new segment, rebuilds the
    /// (small) overlay compile, and publishes a new view. Returns the
    /// new epoch; a commit with nothing staged is a no-op.
    pub fn commit(&mut self) -> u64 {
        if self.pending.is_empty() {
            return self.epoch;
        }
        let mut upserts = 0;
        let mut tombstones = 0;
        let mut changed: FxHashMap<String, ()> = FxHashMap::default();
        for delta in self.pending.drain(..) {
            upserts += delta.upserts();
            tombstones += delta.tombstones();
            for (surface, entity) in delta.ops {
                changed.insert(surface.clone(), ());
                self.overlay_map.insert(surface, entity);
            }
        }
        let footprint = Arc::new(DeltaFootprint::build(
            changed.into_keys(),
            self.base.fuzzy_config().cloned(),
        ));
        self.segments.push(DeltaSegment {
            upserts,
            tombstones,
        });
        self.epoch += 1;
        let overlay = OverlayState::build(&self.base, &self.overlay_map);
        let log = Arc::new(self.view.log.commit(footprint));
        let matcher = self
            .base
            .clone()
            .with_overlay(Arc::new(overlay))
            .with_log(Arc::clone(&log));
        self.publish(log, Arc::new(matcher));
        self.epoch
    }

    /// Replaces the view with `matcher` serving at `log`, counters
    /// recomputed. The matcher must carry `log`: it stamps its window
    /// verdicts with it.
    fn publish(&mut self, log: Arc<FootprintLog>, matcher: Arc<EntityMatcher>) {
        debug_assert!(
            Arc::ptr_eq(matcher.log(), &log),
            "matcher serves another log"
        );
        let base_len = self.base.dict().len();
        let stats = DictStats {
            surfaces: matcher
                .overlay()
                .map_or(base_len, |ov| ov.live_len(base_len)),
            segments: self.segments.len(),
            delta_upserts: self.overlay_map.values().filter(|e| e.is_some()).count(),
            delta_tombstones: self.overlay_map.values().filter(|e| e.is_none()).count(),
            pending: self.pending.iter().map(DictDelta::len).sum(),
            epoch: self.epoch,
            revision: log.revision,
            compactions: self.compactions,
            heap_bytes: matcher.heap_bytes(),
        };
        self.view = Arc::new(DictView {
            log,
            matcher,
            stats,
        });
    }

    /// Compacts base + chain into a fresh base (the full recompile,
    /// done eagerly here; [`DictHandle`] runs it on a background
    /// thread). Staged deltas are committed first. No-op when the
    /// chain is empty and nothing is staged.
    pub fn compact(&mut self) {
        self.commit();
        if self.segments.is_empty() {
            return;
        }
        let base = self.compaction_input().compile();
        let merged = Arc::new(base.clone());
        self.install_compacted(base, merged);
    }

    /// Everything a compaction compiles, so the compile itself can run
    /// with no lock held: a clone of the base (its compiled parts are
    /// shared, not copied), the collapsed chain and the current log.
    fn compaction_input(&self) -> CompactionInput {
        CompactionInput {
            base: self.base.clone(),
            overlay_map: self.overlay_map.clone(),
            log: Arc::clone(&self.view.log),
        }
    }

    /// Installs an already-compiled merged base and its serving
    /// snapshot, clearing the chain. The footprint log — lineage,
    /// revision and all — carries over: compaction changes the
    /// representation, not the resolution, so every window verdict and
    /// result cached at this revision stays servable. Returns the
    /// retired base, so a caller holding a lock can drop it after
    /// releasing it.
    fn install_compacted(
        &mut self,
        base: EntityMatcher,
        merged: Arc<EntityMatcher>,
    ) -> EntityMatcher {
        let retired = std::mem::replace(&mut self.base, base);
        self.segments.clear();
        self.overlay_map.clear();
        self.epoch = 0;
        self.compactions += 1;
        self.publish(Arc::clone(&self.view.log), merged);
        retired
    }

    /// Replaces the base with unrelated content (a newly mined
    /// artifact): a new lineage begins, and the chain and staged deltas
    /// are dropped.
    pub fn replace_base(&mut self, base: EntityMatcher) {
        *self = Self::new(base);
    }

    /// The committed chain, oldest first.
    pub fn segments(&self) -> &[DeltaSegment] {
        &self.segments
    }

    /// Lifecycle counters for stats/metrics surfaces.
    pub fn stats(&self) -> DictStats {
        self.view.stats
    }
}

/// The base, the collapsed chain over it and the log they were copied
/// at: the input of one compaction.
struct CompactionInput {
    base: EntityMatcher,
    overlay_map: FxHashMap<String, Option<EntityId>>,
    log: Arc<FootprintLog>,
}

impl CompactionInput {
    /// Compiles the live merged surface set — non-shadowed base
    /// surfaces plus overlay upserts, read in place — as a standalone
    /// matcher, carrying over the base's fuzzy config and shared
    /// window cache and the log, so it serves the windows cached at the
    /// copied revision.
    fn compile(self) -> EntityMatcher {
        let live_base = self
            .base
            .dict()
            .iter()
            .filter(|(_, s, _)| !self.overlay_map.contains_key(*s))
            .map(|(_, s, e)| (s, e));
        let upserts = self
            .overlay_map
            .iter()
            .filter_map(|(s, e)| e.map(|e| (s.as_str(), e)));
        let m = EntityMatcher::from_pairs(live_base.chain(upserts));
        let m = match self.base.fuzzy_config() {
            Some(config) => m.with_fuzzy(config.clone()),
            None => m,
        };
        let m = match self.base.window_cache() {
            Some(cache) => m.with_shared_window_cache(Arc::clone(cache)),
            None => m,
        };
        m.with_log(self.log)
    }
}

#[derive(Debug)]
struct HandleInner {
    /// The lifecycle state. Writers serialize on this lock and build
    /// the next view under it.
    writer: Mutex<SegmentedDict>,
    /// The published view. Readers clone out of it; a writer takes it
    /// only to swap in the view it built.
    published: RwLock<Arc<DictView>>,
    /// Segment-count threshold that triggers a background compaction
    /// (0 disables).
    auto_compact: AtomicUsize,
    /// At most one background compaction in flight.
    merging: AtomicBool,
}

/// The thread-safe dictionary lifecycle handle — the single entry
/// point for loading, reading, live-updating, and compacting a
/// serving dictionary.
///
/// The handle publishes one immutable [`DictView`] at a time. Readers
/// clone what they need out of it ([`DictHandle::view`],
/// [`DictHandle::matcher`], [`DictHandle::log`]) and never wait for a
/// writer's work: writers serialize among themselves, build the next
/// view — a commit's overlay compile, a compaction's install — while
/// readers keep the old one, and then swap it in. Writers stage deltas
/// with [`DictHandle::apply_delta`] and publish them with
/// [`DictHandle::commit`] (or both at once with [`DictHandle::apply`]);
/// a commit recompiles only the small overlay, never the base. When
/// the chain grows past the auto-compaction threshold, a background
/// thread folds it into a fresh base — abandoning itself if a newer
/// commit lands first.
///
/// # Examples
///
/// ```
/// use websyn_common::EntityId;
/// use websyn_core::{DictDelta, DictHandle, EntityMatcher};
///
/// let handle = DictHandle::new(EntityMatcher::from_pairs(vec![
///     ("indy 4", EntityId::new(7)),
/// ]));
/// let before = handle.matcher(); // pinned snapshot
///
/// let mut delta = DictDelta::new();
/// delta.upsert("madagascar 2", EntityId::new(9));
/// handle.apply(delta);
///
/// let after = handle.view();
/// assert_eq!(after.revision(), 1);
/// assert_eq!(after.matcher().lookup("madagascar 2"), Some(EntityId::new(9)));
/// assert_eq!(after.matcher().lookup("indy 4"), Some(EntityId::new(7)));
/// // The pinned snapshot never saw the delta.
/// assert_eq!(before.lookup("madagascar 2"), None);
/// ```
#[derive(Debug, Clone)]
pub struct DictHandle {
    inner: Arc<HandleInner>,
}

impl DictHandle {
    /// Wraps a compiled matcher as the base of a new lineage, with
    /// background auto-compaction at [`DEFAULT_AUTO_COMPACT`]
    /// segments.
    pub fn new(base: EntityMatcher) -> Self {
        let dict = SegmentedDict::new(base);
        Self {
            inner: Arc::new(HandleInner {
                published: RwLock::new(dict.view()),
                writer: Mutex::new(dict),
                auto_compact: AtomicUsize::new(DEFAULT_AUTO_COMPACT),
                merging: AtomicBool::new(false),
            }),
        }
    }

    /// Sets the segment-count threshold for background compaction
    /// (0 disables it).
    pub fn set_auto_compact(&self, segments: usize) {
        self.inner.auto_compact.store(segments, Ordering::Relaxed);
    }

    /// The published view: serving snapshot, footprint log and
    /// counters, mutually consistent.
    pub fn view(&self) -> Arc<DictView> {
        Arc::clone(&self.inner.published())
    }

    /// The published view's footprint log alone — what a cache probe
    /// needs. It pins no matcher (see [`FootprintLog`]).
    pub fn log(&self) -> Arc<FootprintLog> {
        Arc::clone(&self.inner.published().log)
    }

    /// The current pinned serving snapshot.
    pub fn matcher(&self) -> Arc<EntityMatcher> {
        Arc::clone(&self.inner.published().matcher)
    }

    /// Lifecycle counters of the published view.
    pub fn stats(&self) -> DictStats {
        self.inner.published().stats
    }

    /// Stages a delta without publishing it.
    pub fn apply_delta(&self, delta: DictDelta) {
        self.inner.write(|dict| dict.stage(delta));
    }

    /// Publishes every staged delta as one new segment; returns the
    /// new epoch. May spawn a background compaction.
    pub fn commit(&self) -> u64 {
        let epoch = self.inner.write(SegmentedDict::commit);
        self.maybe_spawn_compact();
        epoch
    }

    /// Stages and publishes a delta in one step; returns the new
    /// epoch.
    pub fn apply(&self, delta: DictDelta) -> u64 {
        let epoch = self.inner.write(|dict| {
            dict.stage(delta);
            dict.commit()
        });
        self.maybe_spawn_compact();
        epoch
    }

    /// Folds the chain into a fresh base synchronously. Readers keep
    /// the old view until the compiled base is installed.
    pub fn compact(&self) {
        self.inner.write(SegmentedDict::compact);
    }

    /// Installs an unrelated artifact as a new lineage (dropping the
    /// chain and staged deltas).
    pub fn replace_base(&self, base: EntityMatcher) {
        self.inner.write(|dict| dict.replace_base(base));
    }

    /// Spawns a background compaction when the chain has grown past
    /// the threshold and none is already in flight.
    fn maybe_spawn_compact(&self) {
        let threshold = self.inner.auto_compact.load(Ordering::Relaxed);
        if threshold == 0 || self.stats().segments < threshold {
            return;
        }
        if self.inner.merging.swap(true, Ordering::AcqRel) {
            return;
        }
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || {
            inner.compact_unlocked(CompactionInput::compile);
            inner.merging.store(false, Ordering::Release);
        });
    }
}

impl HandleInner {
    fn published(&self) -> std::sync::RwLockReadGuard<'_, Arc<DictView>> {
        self.published.read().expect("dict handle poisoned")
    }

    /// Runs one write under the writers' lock, then swaps the view it
    /// left behind into the readers' slot — the only moment readers
    /// can wait on a writer. The view it replaced is dropped after both
    /// locks are released.
    fn write<R>(&self, op: impl FnOnce(&mut SegmentedDict) -> R) -> R {
        let mut dict = self.writer.lock().expect("dict handle poisoned");
        let out = op(&mut dict);
        let view = dict.view();
        let retired = std::mem::replace(
            &mut *self.published.write().expect("dict handle poisoned"),
            view,
        );
        drop(dict);
        drop(retired);
        out
    }

    /// One background compaction. The base and the collapsed chain are
    /// cloned under the writers' lock; `compile` runs with no lock
    /// held, so reads and commits proceed while it works; the result is
    /// installed unless a commit or base replacement raced past the
    /// copy (then it is abandoned, and the next commit re-triggers).
    /// Whatever is retired — the old base, or an abandoned compile — is
    /// dropped after the locks are released.
    fn compact_unlocked(&self, compile: impl FnOnce(CompactionInput) -> EntityMatcher) {
        let (lineage, revision, input) = {
            let dict = self.writer.lock().expect("dict handle poisoned");
            (
                dict.view.lineage(),
                dict.view.revision(),
                dict.compaction_input(),
            )
        };
        let base = compile(input);
        let merged = Arc::new(base.clone());
        let retired = self.write(|dict| {
            if dict.view.lineage() == lineage && dict.view.revision() == revision && dict.epoch > 0
            {
                dict.install_compacted(base, merged)
            } else {
                base
            }
        });
        drop(retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EntityMatcher {
        EntityMatcher::from_pairs(vec![
            ("indy 4", EntityId::new(0)),
            ("madagascar 2", EntityId::new(1)),
            ("canon eos 350d", EntityId::new(2)),
        ])
        .with_fuzzy(FuzzyConfig::default())
    }

    #[test]
    fn delta_tsv_roundtrip_and_errors() {
        let d = DictDelta::parse_tsv("# comment\nIndy 5\t7\n\nmadagascar 2\t-\n").unwrap();
        assert_eq!(d.len(), 2);
        let ops: Vec<_> = d.ops().collect();
        assert_eq!(ops[0], ("indy 5", Some(EntityId::new(7))));
        assert_eq!(ops[1], ("madagascar 2", None));
        assert!(DictDelta::parse_tsv("no tab").is_err());
        assert!(DictDelta::parse_tsv("x\tnot-a-number").is_err());
        assert!(DictDelta::parse_tsv("???\t3").is_err(), "empty surface");
    }

    #[test]
    fn upsert_tombstone_and_override_resolve_live() {
        let handle = DictHandle::new(base());
        let mut delta = DictDelta::new();
        delta.upsert("indiana jones 5", EntityId::new(4));
        delta.tombstone("madagascar 2");
        delta.upsert("indy 4", EntityId::new(9)); // re-point
        let epoch = handle.apply(delta);
        assert_eq!(epoch, 1);
        let m = handle.matcher();
        assert_eq!(m.lookup("indiana jones 5"), Some(EntityId::new(4)));
        assert_eq!(m.lookup("madagascar 2"), None);
        assert_eq!(m.lookup("indy 4"), Some(EntityId::new(9)));
        assert_eq!(m.lookup("canon eos 350d"), Some(EntityId::new(2)));
        // Fuzzy resolution reaches the new surface too.
        let spans = m.segment("watch indianna jones 5 online");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].entity, EntityId::new(4));
        assert_eq!(spans[0].distance, 1);
        // And stops reaching the tombstoned one.
        assert!(m.segment("madagascar 2 showtimes").is_empty());
    }

    #[test]
    fn later_segments_override_earlier() {
        let handle = DictHandle::new(base());
        let mut d1 = DictDelta::new();
        d1.upsert("new movie", EntityId::new(5));
        handle.apply(d1);
        let mut d2 = DictDelta::new();
        d2.tombstone("new movie");
        handle.apply(d2);
        assert_eq!(handle.matcher().lookup("new movie"), None);
        let mut d3 = DictDelta::new();
        d3.upsert("new movie", EntityId::new(6));
        handle.apply(d3);
        assert_eq!(handle.matcher().lookup("new movie"), Some(EntityId::new(6)));
        assert_eq!(handle.stats().segments, 3);
        assert_eq!(handle.stats().epoch, 3);
    }

    #[test]
    fn compaction_preserves_resolution_and_revision() {
        let handle = DictHandle::new(base());
        handle.set_auto_compact(0);
        let mut delta = DictDelta::new();
        delta.upsert("indiana jones 5", EntityId::new(4));
        delta.tombstone("madagascar 2");
        handle.apply(delta);
        let before = handle.matcher();
        let queries = [
            "watch indianna jones 5 online",
            "madagascar 2 showtimes",
            "cannon eos 350d deals",
            "indy 4 near san fran",
        ];
        let expect: Vec<_> = queries.iter().map(|q| before.segment(q)).collect();
        let rev = handle.view().revision();
        handle.compact();
        let after = handle.matcher();
        let stats = handle.stats();
        assert_eq!(stats.segments, 0);
        assert_eq!(stats.epoch, 0);
        assert_eq!(stats.compactions, 1);
        assert_eq!(
            handle.view().revision(),
            rev,
            "compaction keeps the revision"
        );
        for (q, want) in queries.iter().zip(&expect) {
            let got = after.segment(q);
            assert_eq!(got.len(), want.len(), "{q}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(
                    (g.start, g.end, g.entity, g.distance, g.surface()),
                    (w.start, w.end, w.entity, w.distance, w.surface()),
                    "{q}"
                );
            }
        }
    }

    #[test]
    fn background_compaction_triggers_at_threshold() {
        let handle = DictHandle::new(base());
        handle.set_auto_compact(2);
        for i in 0..2 {
            let mut d = DictDelta::new();
            d.upsert(&format!("surface number {i}"), EntityId::new(10 + i));
            handle.apply(d);
        }
        // The merge runs on a detached thread; poll for it.
        for _ in 0..500 {
            if handle.stats().compactions == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = handle.stats();
        assert_eq!(stats.compactions, 1, "{stats:?}");
        assert_eq!(stats.segments, 0);
        let m = handle.matcher();
        assert_eq!(m.lookup("surface number 0"), Some(EntityId::new(10)));
        assert_eq!(m.lookup("surface number 1"), Some(EntityId::new(11)));
    }

    #[test]
    fn reads_and_commits_proceed_while_a_compaction_compiles() {
        use std::sync::mpsc;
        use std::time::Duration;
        const DEADLINE: Duration = Duration::from_secs(30);
        let handle = DictHandle::new(base());
        handle.set_auto_compact(0);
        let mut d = DictDelta::new();
        d.upsert("new movie", EntityId::new(5));
        handle.apply(d);
        // Hold the compile open until the test releases it.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let inner = Arc::clone(&handle.inner);
        let compaction = std::thread::spawn(move || {
            inner.compact_unlocked(|input| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                input.compile()
            });
        });
        started_rx.recv_timeout(DEADLINE).expect("compile started");
        // A commit mid-compile: a writer queued behind a lock held by
        // the compile would also queue every later reader behind it.
        let (done_tx, done_rx) = mpsc::channel();
        let writer = handle.clone();
        let commit = std::thread::spawn(move || {
            let mut d = DictDelta::new();
            d.upsert("newer movie", EntityId::new(6));
            writer.apply(d);
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(DEADLINE)
            .expect("commit completes while the compile is held open");
        commit.join().unwrap();
        let m = handle.matcher();
        assert_eq!(m.lookup("newer movie"), Some(EntityId::new(6)));
        assert_eq!(handle.view().revision(), 2);
        assert_eq!(handle.stats().segments, 2);
        release_tx.send(()).unwrap();
        compaction.join().unwrap();
        // The commit raced past the copy, so the compile is abandoned.
        let stats = handle.stats();
        assert_eq!((stats.compactions, stats.segments), (0, 2));
        assert_eq!(
            handle.matcher().lookup("newer movie"),
            Some(EntityId::new(6))
        );
        // Unraced, the same path installs the merged base.
        handle.inner.compact_unlocked(CompactionInput::compile);
        let stats = handle.stats();
        assert_eq!((stats.compactions, stats.segments), (1, 0));
        let m = handle.matcher();
        assert_eq!(m.lookup("new movie"), Some(EntityId::new(5)));
        assert_eq!(m.lookup("newer movie"), Some(EntityId::new(6)));
    }

    #[test]
    fn replace_base_starts_a_new_lineage() {
        let handle = DictHandle::new(base());
        let lineage = handle.view().lineage();
        let mut d = DictDelta::new();
        d.upsert("x y z", EntityId::new(3));
        handle.apply(d);
        handle.replace_base(EntityMatcher::from_pairs(vec![(
            "fresh artifact",
            EntityId::new(8),
        )]));
        assert!(
            handle.view().lineage() > lineage,
            "later lineages compare greater"
        );
        assert_eq!(handle.view().revision(), 0);
        assert_eq!(handle.matcher().lookup("x y z"), None);
        assert_eq!(
            handle.matcher().lookup("fresh artifact"),
            Some(EntityId::new(8))
        );
    }

    #[test]
    fn footprint_log_clears_unrelated_queries_within_its_reach() {
        let handle = DictHandle::new(base());
        handle.set_auto_compact(0);
        let mut d = DictDelta::new();
        d.upsert("indiana jones 5", EntityId::new(4));
        handle.apply(d);
        let log = handle.log();
        assert_eq!(log.revision(), 1);
        // Queries touching the changed surface (exactly or fuzzily)
        // are affected.
        assert!(!log.unchanged_since(0, "indiana jones 5"));
        assert!(!log.unchanged_since(0, "watch indianna jones 5 online"));
        assert!(!log.unchanged_since(0, "jones"));
        // An unrelated query is provably stable.
        assert!(log.unchanged_since(0, "weather in paris tonight"));
        // Nothing committed since revision 1; revision 2 is in the
        // future and unprovable.
        assert!(log.unchanged_since(1, "indiana jones 5"));
        assert!(!log.unchanged_since(2, "weather in paris tonight"));
        // Past the log's reach nothing is provable, and compaction
        // keeps the log.
        for i in 0..FOOTPRINT_LOG_CAP as u32 {
            let mut d = DictDelta::new();
            d.upsert(&format!("movie number {i}"), EntityId::new(i));
            handle.apply(d);
        }
        handle.compact();
        let log = handle.log();
        assert_eq!(log.revision(), 1 + FOOTPRINT_LOG_CAP as u64);
        assert!(!log.unchanged_since(0, "weather in paris tonight"));
        assert!(log.unchanged_since(1, "weather in paris tonight"));
    }
}
