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
//!   across the commit instead of re-verifying the world.
//!
//! [`DictHandle`] is the single way in: epoch-pinned snapshot reads
//! ([`DictHandle::matcher`]), staged deltas ([`DictHandle::apply_delta`]
//! followed by [`DictHandle::commit`], or [`DictHandle::apply`] for
//! both at once), and explicit or automatic compaction. The old
//! `EntityMatcher::from_tsv` + swap flow survives as deprecated shims
//! over this API.
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
use crate::window_cache::WindowCache;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use websyn_common::{EntityId, FxHashMap};
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
    /// Transform sources (abbreviation/phonetic keys) can map a long
    /// window onto a short surface with no token-count relation, so
    /// every window length must be tested.
    unbounded: bool,
}

impl DeltaFootprint {
    /// Builds the footprint of a commit that touched `changed`
    /// surfaces (already normalized), under the serving dictionary's
    /// fuzzy config (`None` for an exact-only dictionary).
    fn build(changed: impl IntoIterator<Item = String>, config: Option<FuzzyConfig>) -> Self {
        let mini = EntityMatcher::from_pairs(changed.into_iter().map(|s| (s, EntityId::new(0))));
        let max_distance = config.as_ref().map_or(0, |c| c.max_distance);
        let unbounded = config.as_ref().is_some_and(|c| c.abbrev || c.phonetic);
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
    /// The commit's invalidation footprint.
    footprint: Arc<DeltaFootprint>,
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
    /// Commits since the current base (the window-cache generation
    /// ladder rung).
    pub(crate) epoch: u64,
    /// Footprints of the chain's segments, oldest first
    /// (`footprints.len() == epoch`): a window-cache entry written at
    /// epoch `e` is promotable iff `footprints[e..]` all clear it.
    pub(crate) footprints: Arc<Vec<Arc<DeltaFootprint>>>,
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

    /// Live surface count of the merged view.
    pub(crate) fn live_len(&self, base_len: usize) -> usize {
        base_len - self.shadowed_count + self.matcher.dict().len()
    }

    /// Builds the overlay for `base` from the collapsed map of all
    /// committed deltas (`None` = tombstone).
    fn build(
        base: &EntityMatcher,
        overlay_map: &FxHashMap<String, Option<EntityId>>,
        epoch: u64,
        footprints: Arc<Vec<Arc<DeltaFootprint>>>,
    ) -> Self {
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
            for (sid, _, _) in dict.iter() {
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
            epoch,
            footprints,
        }
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
    /// The serving snapshot: `base` (with overlay attached while the
    /// chain is non-empty). Readers clone the `Arc` and are pinned to
    /// this epoch for the whole read.
    merged: Arc<EntityMatcher>,
    /// Commits since the current base.
    epoch: u64,
    /// Commits since the current lineage (NOT reset by compaction —
    /// compaction preserves resolution semantics, so result caches
    /// keyed to a revision survive it).
    revision: u64,
    /// Identity of the lineage: changes only when
    /// [`SegmentedDict::replace_base`] installs unrelated content.
    lineage: u64,
    /// Completed compactions.
    compactions: u64,
    /// Footprints of the last commits of this lineage, oldest first;
    /// `log_start_rev` is the revision the first entry committed.
    /// Survives compaction (unlike the per-overlay chain) so
    /// result-cache entries can be promoted across it.
    footprint_log: VecDeque<Arc<DeltaFootprint>>,
    log_start_rev: u64,
}

impl SegmentedDict {
    /// Wraps a freshly compiled matcher as the base of a new lineage.
    pub fn new(base: EntityMatcher) -> Self {
        Self {
            merged: Arc::new(base.clone()),
            base,
            segments: Vec::new(),
            overlay_map: FxHashMap::default(),
            pending: Vec::new(),
            epoch: 0,
            revision: 0,
            lineage: crate::window_cache::next_uid(),
            compactions: 0,
            footprint_log: VecDeque::new(),
            log_start_rev: 0,
        }
    }

    /// The current serving snapshot. The clone is epoch-pinned: a
    /// commit or compaction replaces the shared slot but never mutates
    /// a snapshot a reader already holds.
    pub fn matcher(&self) -> Arc<EntityMatcher> {
        Arc::clone(&self.merged)
    }

    /// Stages a delta; it takes effect at the next
    /// [`SegmentedDict::commit`].
    pub fn stage(&mut self, delta: DictDelta) {
        if !delta.is_empty() {
            self.pending.push(delta);
        }
    }

    /// Seals every staged delta into one new segment, rebuilds the
    /// (small) overlay compile, and publishes a new serving snapshot.
    /// Returns the new epoch; a commit with nothing staged is a no-op.
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
            footprint: Arc::clone(&footprint),
        });
        self.footprint_log.push_back(footprint);
        while self.footprint_log.len() > FOOTPRINT_LOG_CAP {
            self.footprint_log.pop_front();
            self.log_start_rev += 1;
        }
        self.epoch += 1;
        self.revision += 1;
        self.republish();
        self.epoch
    }

    /// Rebuilds the serving snapshot from `base` + the collapsed
    /// chain.
    fn republish(&mut self) {
        let footprints = Arc::new(
            self.segments
                .iter()
                .map(|s| Arc::clone(&s.footprint))
                .collect::<Vec<_>>(),
        );
        let overlay = OverlayState::build(&self.base, &self.overlay_map, self.epoch, footprints);
        self.merged = Arc::new(self.base.clone().with_overlay(Arc::new(overlay)));
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

    /// An owned copy of everything a compaction compiles, so the
    /// compile itself can run with no lock held.
    fn compaction_input(&self) -> CompactionInput {
        CompactionInput {
            pairs: self.merged_pairs(),
            fuzzy: self.base.fuzzy_config().cloned(),
            window_cache: self.base.window_cache().map(Arc::clone),
        }
    }

    /// The live merged surface set: non-shadowed base plus overlay
    /// upserts.
    pub fn merged_pairs(&self) -> Vec<(String, EntityId)> {
        let mut pairs: Vec<(String, EntityId)> = self
            .base
            .dict()
            .iter()
            .filter(|(_, s, _)| !self.overlay_map.contains_key(*s))
            .map(|(_, s, e)| (s.to_string(), e))
            .collect();
        pairs.extend(
            self.overlay_map
                .iter()
                .filter_map(|(s, e)| e.map(|e| (s.clone(), e))),
        );
        pairs
    }

    /// Installs an already-compiled merged base and its serving
    /// snapshot, clearing the chain. The lineage and revision are
    /// preserved: compaction changes the representation, not the
    /// resolution. Returns the retired base and snapshot, so a caller
    /// holding a lock can drop them after releasing it.
    fn install_compacted(
        &mut self,
        base: EntityMatcher,
        merged: Arc<EntityMatcher>,
    ) -> (EntityMatcher, Arc<EntityMatcher>) {
        let retired = (
            std::mem::replace(&mut self.base, base),
            std::mem::replace(&mut self.merged, merged),
        );
        self.segments.clear();
        self.overlay_map.clear();
        self.epoch = 0;
        self.compactions += 1;
        retired
    }

    /// Replaces the base with unrelated content (a newly mined
    /// artifact): a new lineage begins, the chain and staged deltas
    /// are dropped, and every cache keyed to the old lineage must be
    /// invalidated wholesale.
    pub fn replace_base(&mut self, base: EntityMatcher) {
        *self = Self::new(base);
    }

    /// Commits since the current base (the window-cache ladder rung).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Commits since the current lineage (monotone across compaction).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Lineage identity (changes only on [`SegmentedDict::replace_base`]).
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The committed chain, oldest first.
    pub fn segments(&self) -> &[DeltaSegment] {
        &self.segments
    }

    /// Footprints of commits `>= revision` of this lineage, oldest
    /// first — `None` when `revision` predates the retained log (the
    /// caller must treat the entry as unpromotable). An up-to-date
    /// revision yields `Some(empty)`.
    pub fn footprints_since(&self, revision: u64) -> Option<Vec<Arc<DeltaFootprint>>> {
        if revision < self.log_start_rev || revision > self.revision {
            return None;
        }
        let skip = (revision - self.log_start_rev) as usize;
        Some(self.footprint_log.iter().skip(skip).cloned().collect())
    }

    /// Lifecycle counters for stats/metrics surfaces.
    pub fn stats(&self) -> DictStats {
        let live = self.merged.overlay().map_or(self.base.dict().len(), |ov| {
            ov.live_len(self.base.dict().len())
        });
        DictStats {
            surfaces: live,
            segments: self.segments.len(),
            delta_upserts: self.overlay_map.values().filter(|e| e.is_some()).count(),
            delta_tombstones: self.overlay_map.values().filter(|e| e.is_none()).count(),
            pending: self.pending.iter().map(DictDelta::len).sum(),
            epoch: self.epoch,
            revision: self.revision,
            compactions: self.compactions,
        }
    }
}

/// The merged surface set plus the base's build settings (fuzzy config,
/// shared window cache): the input of one compaction.
struct CompactionInput {
    pairs: Vec<(String, EntityId)>,
    fuzzy: Option<FuzzyConfig>,
    window_cache: Option<Arc<WindowCache>>,
}

impl CompactionInput {
    /// Compiles the merged surface set as a standalone matcher,
    /// carrying over the fuzzy config and shared window cache.
    fn compile(self) -> EntityMatcher {
        let m = EntityMatcher::from_pairs(self.pairs);
        let m = match self.fuzzy {
            Some(config) => m.with_fuzzy(config),
            None => m,
        };
        match self.window_cache {
            Some(cache) => m.with_shared_window_cache(cache),
            None => m,
        }
    }
}

#[derive(Debug)]
struct HandleInner {
    dict: RwLock<SegmentedDict>,
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
/// Reads are epoch-pinned: [`DictHandle::matcher`] clones the current
/// snapshot `Arc`, and no later commit or compaction ever mutates it.
/// Writers stage deltas with [`DictHandle::apply_delta`] and publish
/// them with [`DictHandle::commit`] (or both at once with
/// [`DictHandle::apply`]); a commit recompiles only the small overlay,
/// never the base. When the chain grows past the auto-compaction
/// threshold, a background thread folds it into a fresh base —
/// abandoning itself if a newer commit lands first.
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
/// let before = handle.matcher(); // epoch-pinned snapshot
///
/// let mut delta = DictDelta::new();
/// delta.upsert("madagascar 2", EntityId::new(9));
/// handle.apply(delta);
///
/// let after = handle.matcher();
/// assert_eq!(after.lookup("madagascar 2"), Some(EntityId::new(9)));
/// assert_eq!(after.lookup("indy 4"), Some(EntityId::new(7)));
/// // The pinned snapshot never saw the delta.
/// assert_eq!(before.lookup("madagascar 2"), None);
/// ```
#[derive(Debug, Clone)]
pub struct DictHandle {
    inner: Arc<HandleInner>,
}

/// One coherent view of a [`DictHandle`]'s serving state, captured
/// under a single read lock by [`DictHandle::sync`].
#[derive(Debug, Clone)]
pub struct DictSync {
    /// Dictionary identity (changes only on a base replacement).
    pub lineage: u64,
    /// Commits since the lineage began.
    pub revision: u64,
    /// The serving snapshot at that revision.
    pub matcher: Arc<EntityMatcher>,
    /// Footprints covering `(since_revision, revision]`, oldest
    /// first; `None` when selective invalidation is impossible.
    pub footprints: Option<Vec<Arc<DeltaFootprint>>>,
}

impl DictHandle {
    /// Wraps a compiled matcher as the base of a new lineage, with
    /// background auto-compaction at [`DEFAULT_AUTO_COMPACT`]
    /// segments.
    pub fn new(base: EntityMatcher) -> Self {
        Self {
            inner: Arc::new(HandleInner {
                dict: RwLock::new(SegmentedDict::new(base)),
                auto_compact: AtomicUsize::new(DEFAULT_AUTO_COMPACT),
                merging: AtomicBool::new(false),
            }),
        }
    }

    /// Loads a dictionary artifact (the [`EntityMatcher::to_tsv`]
    /// format, optional `#!fuzzy` header) as a new lineage.
    ///
    /// ```
    /// use websyn_core::DictHandle;
    ///
    /// let handle = DictHandle::from_tsv("indy 4\t7\n").unwrap();
    /// assert_eq!(handle.matcher().len(), 1);
    /// ```
    ///
    /// # Errors
    /// Returns a codec error on malformed rows or a malformed fuzzy
    /// header.
    pub fn from_tsv(tsv: &str) -> websyn_common::Result<Self> {
        #[allow(deprecated)]
        Ok(Self::new(EntityMatcher::from_tsv(tsv)?))
    }

    /// Sets the segment-count threshold for background compaction
    /// (0 disables it).
    pub fn set_auto_compact(&self, segments: usize) {
        self.inner.auto_compact.store(segments, Ordering::Relaxed);
    }

    /// The current epoch-pinned serving snapshot.
    pub fn matcher(&self) -> Arc<EntityMatcher> {
        self.read().matcher()
    }

    /// Stages a delta without publishing it.
    pub fn apply_delta(&self, delta: DictDelta) {
        self.write().stage(delta);
    }

    /// Publishes every staged delta as one new segment; returns the
    /// new epoch. May spawn a background compaction.
    pub fn commit(&self) -> u64 {
        let epoch = self.write().commit();
        self.maybe_spawn_compact();
        epoch
    }

    /// Stages and publishes a delta in one step; returns the new
    /// epoch.
    pub fn apply(&self, delta: DictDelta) -> u64 {
        let epoch = {
            let mut dict = self.write();
            dict.stage(delta);
            dict.commit()
        };
        self.maybe_spawn_compact();
        epoch
    }

    /// Folds the chain into a fresh base synchronously.
    pub fn compact(&self) {
        self.write().compact();
    }

    /// Installs an unrelated artifact as a new lineage (dropping the
    /// chain and staged deltas).
    pub fn replace_base(&self, base: EntityMatcher) {
        self.write().replace_base(base);
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> DictStats {
        self.read().stats()
    }

    /// Commits since the current lineage.
    pub fn revision(&self) -> u64 {
        self.read().revision()
    }

    /// `(lineage, revision)`, read under one lock: where the dictionary
    /// stands, without cloning the serving snapshot.
    pub fn position(&self) -> (u64, u64) {
        let dict = self.read();
        (dict.lineage(), dict.revision())
    }

    /// Lineage identity.
    pub fn lineage(&self) -> u64 {
        self.read().lineage()
    }

    /// See [`SegmentedDict::footprints_since`].
    pub fn footprints_since(&self, revision: u64) -> Option<Vec<Arc<DeltaFootprint>>> {
        self.read().footprints_since(revision)
    }

    /// Atomic synchronization snapshot for a downstream result cache:
    /// one read lock covers the lineage, the revision, the serving
    /// matcher, and the footprints needed to advance from the
    /// caller's last-seen `(lineage, since_revision)` — so the four
    /// are mutually consistent even while writers commit concurrently.
    ///
    /// `footprints` is `None` when the caller cannot invalidate
    /// selectively: the lineage changed (an unrelated base was
    /// installed), or the footprint log no longer reaches back to
    /// `since_revision`. It is `Some(vec![])` when nothing changed.
    pub fn sync(&self, lineage: u64, since_revision: u64) -> DictSync {
        let dict = self.read();
        let footprints = if dict.lineage() == lineage {
            dict.footprints_since(since_revision)
        } else {
            None
        };
        DictSync {
            lineage: dict.lineage(),
            revision: dict.revision(),
            matcher: dict.matcher(),
            footprints,
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, SegmentedDict> {
        self.inner.dict.read().expect("dict handle poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, SegmentedDict> {
        self.inner.dict.write().expect("dict handle poisoned")
    }

    /// Spawns a background compaction when the chain has grown past
    /// the threshold and none is already in flight.
    fn maybe_spawn_compact(&self) {
        let threshold = self.inner.auto_compact.load(Ordering::Relaxed);
        if threshold == 0 {
            return;
        }
        {
            let dict = self.read();
            if dict.segments.len() < threshold {
                return;
            }
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
    /// One background compaction. The merged surface set is copied
    /// under the read lock; `compile` runs with no lock held, so reads
    /// and commits proceed while it works; the result is installed
    /// under a short write lock unless a commit or base replacement
    /// raced past the copy (then it is abandoned, and the next commit
    /// re-triggers). Whatever is retired — the old base and snapshot,
    /// or an abandoned compile — is dropped after the write lock is
    /// released.
    fn compact_unlocked(&self, compile: impl FnOnce(CompactionInput) -> EntityMatcher) {
        let (lineage, revision, input) = {
            let dict = self.dict.read().expect("dict handle poisoned");
            (dict.lineage(), dict.revision(), dict.compaction_input())
        };
        let base = compile(input);
        let merged = Arc::new(base.clone());
        let mut dict = self.dict.write().expect("dict handle poisoned");
        let retired =
            if dict.lineage() == lineage && dict.revision() == revision && dict.epoch() > 0 {
                Some(dict.install_compacted(base, merged))
            } else {
                None
            };
        drop(dict);
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
        let rev = handle.revision();
        handle.compact();
        let after = handle.matcher();
        let stats = handle.stats();
        assert_eq!(stats.segments, 0);
        assert_eq!(stats.epoch, 0);
        assert_eq!(stats.compactions, 1);
        assert_eq!(handle.revision(), rev, "compaction keeps the revision");
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
        assert_eq!(handle.sync(handle.lineage(), 0).revision, 2);
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
        let lineage = handle.lineage();
        let mut d = DictDelta::new();
        d.upsert("x y z", EntityId::new(3));
        handle.apply(d);
        handle.replace_base(EntityMatcher::from_pairs(vec![(
            "fresh artifact",
            EntityId::new(8),
        )]));
        assert_ne!(handle.lineage(), lineage);
        assert_eq!(handle.revision(), 0);
        assert_eq!(handle.matcher().lookup("x y z"), None);
        assert_eq!(
            handle.matcher().lookup("fresh artifact"),
            Some(EntityId::new(8))
        );
    }

    #[test]
    fn footprint_clears_unrelated_queries() {
        let handle = DictHandle::new(base());
        let mut d = DictDelta::new();
        d.upsert("indiana jones 5", EntityId::new(4));
        handle.apply(d);
        let fps = handle.footprints_since(0).unwrap();
        assert_eq!(fps.len(), 1);
        let fp = &fps[0];
        // Queries touching the changed surface (exactly or fuzzily)
        // are affected.
        assert!(fp.affects_query("indiana jones 5"));
        assert!(fp.affects_query("watch indianna jones 5 online"));
        assert!(fp.affects_query("jones"));
        // An unrelated query is provably stable.
        assert!(!fp.affects_query("weather in paris tonight"));
        // Stale and future revisions are unpromotable.
        assert!(handle.footprints_since(2).is_none());
        assert_eq!(handle.footprints_since(1).unwrap().len(), 0);
    }
}
