//! The serving engine: a live-updatable dictionary behind a sharded
//! result cache of pre-rendered responses.
//!
//! [`Engine`] is the layer the network front end calls into. It owns
//!
//! - a [`DictHandle`] — the segmented-dictionary lifecycle handle.
//!   Resolution pins an epoch snapshot (`Arc` clone, no contention
//!   beyond a lock word); [`Engine::apply_delta`] publishes a small
//!   add/override/tombstone delta *live*, without recompiling the
//!   base artifact, and [`DictHandle::replace_base`] (through
//!   [`Engine::dict`]) remains the rebuild-and-swap deployment story
//!   for wholesale artifact changes;
//! - a [`ShardedCache`] of `normalized query →` [`Rendered`]: the
//!   spans *and* the complete HTTP/1.1 200 response
//!   ([`crate::http::spans_json`]), rendered once, on the miss that
//!   filled the entry. A cache hit is therefore a pure
//!   lookup-and-write: no serializer walk, no `String` allocation,
//!   just an `Arc` clone handed to the connection writer. The cache is
//!   keyed *after* normalization, so "Indy 4", "indy 4" and "INDY-4"
//!   share one entry, and a hit skips normalization's allocation too
//!   (the `Cow` fast path) on the segmenter side.
//!
//! **Cache invalidation follows the dictionary's own granularity.**
//! Every probe and every batch of misses synchronizes the cache with
//! the handle ([`Engine::sync`] internally): a *lineage* change (new
//! base artifact) wholesale-invalidates, because nothing cached is
//! trustworthy; a *revision* advance (delta commits) merely advances
//! the cache generation and remembers each delta's [`DeltaFootprint`]
//! — cached results whose keys the footprints provably cannot affect
//! are *promoted* (re-stamped, served) on their next lookup instead of
//! recomputed, so a ten-surface delta does not cold-start a
//! four-thousand-entry cache.
//!
//! Cached and uncached paths return byte-identical results: the cache
//! stores exactly what the matcher produced (and the response
//! serialized from it), and generation-checked inserts (see
//! [`ShardedCache::insert_at`]) make it impossible for a result
//! computed against a retired dictionary revision to be served at a
//! newer one.

use crate::cache::{CacheStats, ShardedCache};
use crate::http;
use crate::metrics::{as_us, ServeMetrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use websyn_core::{
    DeltaFootprint, DictDelta, DictHandle, DictStats, EntityMatcher, MatchScratch, MatchSpan,
    SegmentRequest,
};
use websyn_text::normalized;

/// Most footprints the engine keeps for selective cache promotion.
/// Entries older than the oldest remembered footprint can no longer be
/// proven safe and simply stay unpromotable (they age out by LRU).
const GEN_LOG_CAP: usize = 64;

/// One cached resolution: the spans plus the pre-rendered response,
/// produced together on the filling miss. Both fields are shared
/// handles — cloning a `Rendered` costs two reference-count bumps.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The segmentation result itself.
    pub spans: Arc<Vec<MatchSpan>>,
    /// The complete HTTP/1.1 200 response — status line, headers and
    /// JSON body; see [`crate::http::spans_json`]. What a connection
    /// writer puts on the socket.
    pub http: Arc<str>,
}

/// Cache sizing for an [`Engine`]. [`Engine::builder`] is the
/// ergonomic way to set these; the struct remains public so sizing can
/// be computed, stored and passed around as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of independently locked cache shards. Size this at or
    /// above the worker count so concurrent hits never serialize.
    pub cache_shards: usize,
    /// Total cached results across shards. Zipfian logs concentrate
    /// mass in the head, so a few thousand entries absorb most
    /// traffic; see the README's cache-sizing note.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cache_shards: 8,
            cache_capacity: 4096,
        }
    }
}

/// Builder for [`Engine`] — validated knobs over positional arguments.
///
/// Starts from [`EngineConfig::default`]; [`EngineBuilder::build`]
/// clamps every knob into its valid range (shards ≥ 1, capacity ≥
/// shards so no shard is created empty) rather than failing, so a
/// config assembled from untrusted flags still produces a working
/// engine.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use websyn_common::EntityId;
/// use websyn_core::EntityMatcher;
/// use websyn_serve::Engine;
///
/// let matcher = Arc::new(EntityMatcher::from_pairs(vec![("indy 4", EntityId::new(7))]));
/// let engine = Engine::builder(matcher)
///     .cache_shards(4)
///     .cache_capacity(1024)
///     .build();
/// assert_eq!(engine.resolve("indy 4").len(), 1);
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    dict: DictHandle,
    config: EngineConfig,
}

impl EngineBuilder {
    /// Number of independently locked cache shards (clamped to ≥ 1 at
    /// build time).
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.config.cache_shards = shards;
        self
    }

    /// Total cached results across shards (clamped to ≥ `cache_shards`
    /// at build time, so every shard holds at least one entry).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Applies the whole sizing struct at once.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Validates the knobs (clamping them into range) and builds the
    /// engine.
    pub fn build(self) -> Engine {
        let shards = self.config.cache_shards.max(1);
        let capacity = self.config.cache_capacity.max(shards);
        Engine::with_dict(
            self.dict,
            EngineConfig {
                cache_shards: shards,
                cache_capacity: capacity,
            },
        )
    }
}

/// The engine-side slice of one request's stage breakdown, filled by
/// [`Engine::resolve_rendered_batch_timed`] (and, without the probe,
/// by [`Engine::resolve_misses`]). On a result-cache hit only
/// `cache_us` is nonzero — the segment and render stages never ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Dictionary sync + normalize + result-cache probe, microseconds.
    pub cache_us: u64,
    /// Matcher segmentation, microseconds (0 on a hit).
    pub segment_us: u64,
    /// Response serialization + cache fill, microseconds (0 on a hit).
    pub render_us: u64,
}

/// The engine's view of which dictionary state the cache generation
/// corresponds to, advanced by [`Engine::sync`] under one mutex so
/// (matcher, generation, promotion log) snapshots are coherent.
#[derive(Debug)]
struct ServedState {
    /// Last dictionary lineage the cache was synchronized to.
    lineage: u64,
    /// Last dictionary revision the cache was synchronized to.
    revision: u64,
    /// `(generation the commit landed at, its footprint)`, oldest
    /// first, shared with in-flight batches as an immutable snapshot.
    /// A cached entry stamped `g` is promotable to the current
    /// generation iff `g >= floor` and every log entry with
    /// generation > `g` has a footprint that cannot affect the key.
    log: Arc<Vec<(u64, Arc<DeltaFootprint>)>>,
    /// Entries stamped below this generation predate the log's reach
    /// (or the last wholesale invalidation) and are never promoted.
    floor: u64,
}

/// The cache side of an [`Engine::sync`] snapshot: the generation
/// results are inserted at, and the promotion rule (floor + footprint
/// log) hits are checked against.
struct CacheView {
    generation: u64,
    floor: u64,
    log: Arc<Vec<(u64, Arc<DeltaFootprint>)>>,
}

/// One [`Engine::sync`] snapshot: the matcher to resolve misses with,
/// coherent with the cache view.
struct Served {
    matcher: Arc<EntityMatcher>,
    cache: CacheView,
}

/// What [`Engine::probe`] found for one read.
#[derive(Debug)]
pub enum Probe {
    /// A result-cache hit: the rendered response, ready to write.
    Hit(Rendered),
    /// A miss: the normalized query — the key
    /// [`Engine::resolve_misses`] resolves and caches the result under.
    Miss(String),
}

/// A live-updatable dictionary + result cache, shared by every
/// connection and worker.
#[derive(Debug)]
pub struct Engine {
    dict: DictHandle,
    served: Mutex<ServedState>,
    cache: ShardedCache<Rendered>,
    swaps: AtomicU64,
    deltas: AtomicU64,
    metrics: ServeMetrics,
}

impl Engine {
    /// Starts building an engine around `matcher` with validated,
    /// defaulted knobs, wrapping it as the base of a fresh
    /// [`DictHandle`] lineage. To serve a handle you already manage
    /// (shared with an updater, pre-staged deltas), use
    /// [`Engine::builder_with_dict`].
    pub fn builder(matcher: Arc<EntityMatcher>) -> EngineBuilder {
        // EntityMatcher is cheap to clone (Arc-backed internals); the
        // handle needs ownership to seed its lineage.
        Self::builder_with_dict(DictHandle::new((*matcher).clone()))
    }

    /// Starts building an engine that serves (and synchronizes its
    /// result cache with) an existing dictionary handle.
    pub fn builder_with_dict(dict: DictHandle) -> EngineBuilder {
        EngineBuilder {
            dict,
            config: EngineConfig::default(),
        }
    }

    /// Creates an engine serving `matcher` with the given cache
    /// sizing. Prefer [`Engine::builder`]; this constructor trusts
    /// `config` as-is (the cache still clamps internally).
    pub fn new(matcher: Arc<EntityMatcher>, config: EngineConfig) -> Self {
        Self::with_dict(DictHandle::new((*matcher).clone()), config)
    }

    /// Creates an engine serving `dict` with the given cache sizing.
    pub fn with_dict(dict: DictHandle, config: EngineConfig) -> Self {
        let cache = ShardedCache::new(config.cache_shards, config.cache_capacity);
        let served = ServedState {
            lineage: dict.lineage(),
            revision: dict.revision(),
            log: Arc::new(Vec::new()),
            floor: cache.generation(),
        };
        Self {
            dict,
            served: Mutex::new(served),
            cache,
            swaps: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
        }
    }

    /// The engine's observability surface: stage histograms, the
    /// slow-query ring, uptime. Shared by every server front end that
    /// serves this engine.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Whole seconds since this engine was built.
    pub fn uptime_seconds(&self) -> u64 {
        self.metrics.uptime_seconds()
    }

    /// The dictionary lifecycle handle this engine serves. Changes
    /// published through it (deltas, compaction, base replacement) are
    /// picked up — and the result cache synchronized — on the next
    /// batch; [`Engine::apply_delta`] does both in one step.
    pub fn dict(&self) -> &DictHandle {
        &self.dict
    }

    /// The currently served matcher snapshot.
    pub fn matcher(&self) -> Arc<EntityMatcher> {
        self.dict.matcher()
    }

    /// Dictionary lifecycle counters (segment count, live delta
    /// sizes, epoch/revision, compactions) for `/stats` and
    /// `/metrics`.
    pub fn dict_stats(&self) -> DictStats {
        self.dict.stats()
    }

    /// Synchronizes the result cache with the dictionary handle and
    /// returns a coherent [`Served`] snapshot: results computed by its
    /// matcher may be inserted at its generation, and promotion
    /// decisions against its log are sound for entries at or above its
    /// floor.
    ///
    /// - lineage change (unrelated base installed): wholesale
    ///   invalidation — bump + sweep, empty log;
    /// - revision advance with footprints available: one generation
    ///   bump covering all new commits, footprints appended to the
    ///   log (capped at [`GEN_LOG_CAP`], raising the floor);
    /// - revision advance with footprints unavailable (handle's log
    ///   ran out): wholesale invalidation.
    ///
    /// The cache generation only ever moves under the `served` mutex,
    /// which is what makes the returned snapshot race-free.
    fn sync(&self) -> Served {
        let mut st = self.served.lock().expect("served state poisoned");
        let view = self.dict.sync(st.lineage, st.revision);
        if view.lineage != st.lineage {
            self.cache.invalidate();
            self.swaps.fetch_add(1, Ordering::AcqRel);
            st.lineage = view.lineage;
            st.revision = view.revision;
            st.floor = self.cache.generation();
            st.log = Arc::new(Vec::new());
        } else if view.revision != st.revision {
            match view.footprints {
                Some(fps) if !fps.is_empty() => {
                    let generation = self.cache.advance_generation();
                    let mut log: Vec<_> = (*st.log).clone();
                    log.extend(fps.into_iter().map(|fp| (generation, fp)));
                    while log.len() > GEN_LOG_CAP {
                        let (gen, _) = log.remove(0);
                        // Entries stamped before the dropped footprint
                        // can no longer be proven safe.
                        st.floor = st.floor.max(gen);
                    }
                    st.log = Arc::new(log);
                }
                Some(_) => {}
                None => {
                    self.cache.invalidate();
                    st.floor = self.cache.generation();
                    st.log = Arc::new(Vec::new());
                }
            }
            st.revision = view.revision;
        }
        Served {
            matcher: view.matcher,
            cache: self.view_of(&st),
        }
    }

    /// [`Engine::sync`] for a probe, which needs no matcher. While the
    /// handle has not moved since the last sync (every read but the
    /// first after a commit), the cache view is read without cloning
    /// the serving snapshot: a connection thread then holds no matcher,
    /// so it cannot be the one left to free a base that a compaction
    /// retired.
    fn sync_cache(&self) -> CacheView {
        {
            let st = self.served.lock().expect("served state poisoned");
            if self.dict.position() == (st.lineage, st.revision) {
                return self.view_of(&st);
            }
        }
        self.sync().cache
    }

    fn view_of(&self, st: &ServedState) -> CacheView {
        CacheView {
            generation: self.cache.generation(),
            floor: st.floor,
            log: Arc::clone(&st.log),
        }
    }

    /// Stages and publishes `delta` through the handle, then
    /// synchronizes the result cache (selectively, via the delta's
    /// footprint) so the very next request is served against the new
    /// surface set — no restart, no base recompile, no wholesale cache
    /// flush. Returns the post-apply lifecycle counters.
    pub fn apply_delta(&self, delta: DictDelta) -> DictStats {
        self.dict.apply(delta);
        self.deltas.fetch_add(1, Ordering::AcqRel);
        self.sync();
        self.dict.stats()
    }

    /// [`Engine::apply_delta`] from the delta TSV wire format
    /// ([`DictDelta::parse_tsv`]: `surface\tentity` upserts,
    /// `surface\t-` tombstones). Returns the delta's op count plus the
    /// post-apply lifecycle counters — everything a protocol needs to
    /// acknowledge the update.
    ///
    /// # Errors
    /// Returns the parse error verbatim; nothing is applied.
    pub fn apply_delta_tsv(&self, tsv: &str) -> websyn_common::Result<(usize, DictStats)> {
        let delta = DictDelta::parse_tsv(tsv)?;
        let applied = delta.len();
        Ok((applied, self.apply_delta(delta)))
    }

    /// Number of deltas applied through [`Engine::apply_delta`].
    pub fn deltas(&self) -> u64 {
        self.deltas.load(Ordering::Acquire)
    }

    /// Number of completed lineage replacements (base swaps) observed
    /// by this engine's cache synchronization.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Acquire)
    }

    /// Resolves one raw query: normalize, probe the cache, segment on a
    /// miss. Byte-identical to `matcher().segment(query)`.
    pub fn resolve(&self, query: &str) -> Arc<Vec<MatchSpan>> {
        self.resolve_batch(std::slice::from_ref(&query)).remove(0)
    }

    /// Resolves a batch of raw queries in order. Cache misses within
    /// the batch share one [`MatchScratch`], so a mention that recurs
    /// across the batch pays for fuzzy verification once even before it
    /// reaches the cache.
    pub fn resolve_batch<S: AsRef<str>>(&self, queries: &[S]) -> Vec<Arc<Vec<MatchSpan>>> {
        self.resolve_rendered_batch(queries)
            .into_iter()
            .map(|r| r.spans)
            .collect()
    }

    /// The shared batch resolution core: every query comes back with
    /// its spans and its rendered response, so a later hit costs no
    /// serialization.
    pub fn resolve_rendered_batch<S: AsRef<str>>(&self, queries: &[S]) -> Vec<Rendered> {
        self.resolve_inner(queries, None)
    }

    /// [`Engine::resolve_rendered_batch`], additionally recording one
    /// [`StageTiming`] per query into `timings` — the per-request
    /// engine-stage breakdown the slow-query trace records. `timings`
    /// is cleared first, so on return it holds exactly one entry per
    /// query, index-aligned with the returned renderings; callers may
    /// reuse the Vec across batches.
    pub fn resolve_rendered_batch_timed<S: AsRef<str>>(
        &self,
        queries: &[S],
        timings: &mut Vec<StageTiming>,
    ) -> Vec<Rendered> {
        timings.clear();
        self.resolve_inner(queries, Some(timings))
    }

    /// Probes the result cache for one raw query: synchronizes with the
    /// dictionary handle, normalizes, and looks the key up at the
    /// current generation (promoting an older entry the intervening
    /// deltas provably leave unchanged). Counts exactly one hit or one
    /// miss and records the `cache_lookup` stage; also returns that
    /// stage's duration in microseconds. This is the server's
    /// connection-thread entry point: a hit is answered on the spot, a
    /// miss is queued with its key for [`Engine::resolve_misses`].
    pub fn probe(&self, query: &str) -> (Probe, u64) {
        let start = Instant::now();
        let view = self.sync_cache();
        self.probe_at(&view, query, start)
    }

    /// Resolves normalized keys that [`Engine::probe`] reported as
    /// misses, without probing the cache again: segments each against
    /// one dictionary snapshot (sharing one [`MatchScratch`]), renders
    /// the response, fills the cache (generation-checked, so a
    /// result from a snapshot a newer delta retired is never stored),
    /// and hands `(index into keys, rendering, stage timing)` to `emit`
    /// as soon as that key is done — a caller can answer each read
    /// without waiting for the rest. The timing's `cache_us` is 0: the
    /// probe ran elsewhere.
    pub fn resolve_misses<S: AsRef<str>>(
        &self,
        keys: &[S],
        mut emit: impl FnMut(usize, Rendered, StageTiming),
    ) {
        let served = self.sync();
        let mut scratch = MatchScratch::new();
        for (i, key) in keys.iter().enumerate() {
            let (rendered, timing) = self.resolve_at(&served, key.as_ref(), &mut scratch);
            emit(i, rendered, timing);
        }
    }

    fn resolve_inner<S: AsRef<str>>(
        &self,
        queries: &[S],
        mut timings: Option<&mut Vec<StageTiming>>,
    ) -> Vec<Rendered> {
        // One snapshot for the whole batch, so a batch never mixes two
        // dictionary revisions.
        let served = self.sync();
        let mut scratch = MatchScratch::new();
        queries
            .iter()
            .map(|query| {
                let (probe, cache_us) =
                    self.probe_at(&served.cache, query.as_ref(), Instant::now());
                // A hit records only the lookup stage: segment and
                // render never ran, and zeros would dilute the
                // miss-path stage distributions.
                let (rendered, timing) = match probe {
                    Probe::Hit(hit) => (hit, StageTiming::default()),
                    Probe::Miss(key) => self.resolve_at(&served, &key, &mut scratch),
                };
                if let Some(timings) = timings.as_deref_mut() {
                    timings.push(StageTiming { cache_us, ..timing });
                }
                rendered
            })
            .collect()
    }

    /// The probe against an already-synchronized snapshot; the stage
    /// clock started at `start`.
    fn probe_at(&self, view: &CacheView, query: &str, start: Instant) -> (Probe, u64) {
        let normalized = normalized(query);
        // Generation-checked lookup: if a dictionary change landed
        // after the snapshot, a plain hit could carry spans of a newer
        // revision than the snapshot's — the generation check rejects
        // (and counts a miss) instead, and the query is recomputed. An
        // entry stamped at an older generation of the *same* lineage
        // is promoted when every intervening delta's footprint
        // provably leaves this key's result unchanged.
        let hit = self
            .cache
            .get_at_or_promote(view.generation, &normalized, |key, stamp| {
                stamp >= view.floor
                    && view
                        .log
                        .iter()
                        .all(|(gen, fp)| *gen <= stamp || !fp.affects_query(key))
            });
        let cache_us = as_us(start.elapsed());
        self.metrics.cache_lookup.record(cache_us);
        let probe = match hit {
            Some(hit) => Probe::Hit(hit),
            None => Probe::Miss(normalized.into_owned()),
        };
        (probe, cache_us)
    }

    /// Segments, renders and caches one normalized key against the
    /// snapshot.
    fn resolve_at(
        &self,
        served: &Served,
        key: &str,
        scratch: &mut MatchScratch,
    ) -> (Rendered, StageTiming) {
        let segment_start = Instant::now();
        let spans = Arc::new(
            served
                .matcher
                .resolve(SegmentRequest::normalized(key).scratch(scratch)),
        );
        let segment_us = as_us(segment_start.elapsed());
        self.metrics.segment.record(segment_us);
        let render_start = Instant::now();
        let entry = Rendered {
            http: Arc::from(http::response(200, "OK", &http::spans_json(&spans)).as_str()),
            spans,
        };
        self.cache
            .insert_at(served.cache.generation, key, entry.clone());
        let render_us = as_us(render_start.elapsed());
        self.metrics.render.record(render_us);
        let timing = StageTiming {
            cache_us: 0,
            segment_us,
            render_us,
        };
        (entry, timing)
    }

    /// Aggregated cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Window-cache counters of the currently served matcher, when one
    /// is attached ([`websyn_core::EntityMatcher::with_window_cache`]).
    /// Unlike the result cache these survive a base replacement only
    /// if the new matcher shares the old cache
    /// ([`websyn_core::EntityMatcher::with_shared_window_cache`]);
    /// delta commits keep the cache and invalidate by generation.
    pub fn window_cache_stats(&self) -> Option<websyn_core::WindowCacheStats> {
        self.matcher().window_cache().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websyn_common::EntityId;
    use websyn_core::FuzzyConfig;

    fn matcher() -> Arc<EntityMatcher> {
        Arc::new(
            EntityMatcher::from_pairs(vec![
                ("indy 4", EntityId::new(0)),
                ("madagascar 2", EntityId::new(1)),
                ("canon eos 350d", EntityId::new(2)),
            ])
            .with_fuzzy(FuzzyConfig::default()),
        )
    }

    fn small_engine() -> Engine {
        Engine::builder(matcher())
            .cache_shards(2)
            .cache_capacity(16)
            .build()
    }

    #[test]
    fn cached_and_uncached_results_are_identical() {
        let e = small_engine();
        let m = e.matcher();
        for query in [
            "Indy 4 near san fran",
            "cheapest cannon eos 350d deals",
            "nothing to see",
            "",
        ] {
            let cold = e.resolve(query);
            let warm = e.resolve(query);
            assert_eq!(*cold, m.segment(query), "{query:?} cold");
            assert_eq!(cold, warm, "{query:?} warm hit equals cold fill");
        }
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn normalization_variants_share_one_entry() {
        let e = small_engine();
        assert_eq!(*e.resolve("INDY-4!"), e.matcher().segment("indy 4"));
        assert_eq!(*e.resolve("indy 4"), e.matcher().segment("indy 4"));
        let stats = e.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn builder_clamps_degenerate_knobs() {
        let e = Engine::builder(matcher())
            .cache_shards(0)
            .cache_capacity(0)
            .build();
        // Clamped to one shard holding at least one entry — a working
        // (if tiny) cache, not a panic.
        assert_eq!(e.resolve("indy 4").len(), 1);
        assert_eq!(e.resolve("indy 4").len(), 1);
        assert_eq!(e.cache_stats().hits, 1);
        // The whole-config setter is equivalent to the field setters.
        let e = Engine::builder(matcher())
            .config(EngineConfig {
                cache_shards: 2,
                cache_capacity: 16,
            })
            .build();
        assert_eq!(e.cache_stats().capacity, 16);
    }

    #[test]
    fn base_replacement_invalidates_and_serves_the_new_dictionary() {
        let e = small_engine();
        // Warm the cache with the old dictionary.
        assert_eq!(e.resolve("indy 4").len(), 1);
        assert_eq!(e.cache_stats().entries, 1);
        // Rebuild-and-swap: the new dictionary maps the same surface to
        // a different entity, so a stale cache entry would be visible.
        let new = Arc::new(EntityMatcher::from_pairs(vec![(
            "indy 4",
            EntityId::new(42),
        )]));
        e.dict().replace_base((*new).clone());
        let spans = e.resolve("indy 4");
        assert_eq!(e.swaps(), 1);
        assert_eq!(e.cache_stats().invalidations, 1, "swap cleared the cache");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].entity, EntityId::new(42));
        assert_eq!(*spans, new.segment("indy 4"));
    }

    #[test]
    fn timed_batches_reuse_one_vec_without_stale_entries() {
        // Regression: the worker loop reuses one timings Vec across
        // batches. The engine must clear it, or from the second batch
        // on each job zips against another batch's stale entries (and
        // the Vec grows forever).
        let e = small_engine();
        let mut timings = Vec::new();
        let first = e.resolve_rendered_batch_timed(&["indy 4", "madagascar 2"], &mut timings);
        assert_eq!(first.len(), 2);
        assert_eq!(timings.len(), 2, "one entry per query in the batch");
        let second = e.resolve_rendered_batch_timed(&["indy 4"], &mut timings);
        assert_eq!(second.len(), 1);
        assert_eq!(timings.len(), 1, "previous batch's entries cleared");
        // That lone query warm-hit the cache, so its (index-aligned)
        // entry records no segmentation or render work.
        assert_eq!(timings[0].segment_us, 0);
        assert_eq!(timings[0].render_us, 0);
    }

    #[test]
    fn cached_renderings_are_byte_identical() {
        let e = small_engine();
        let m = e.matcher();
        for query in [
            "Indy 4 near san fran",
            "cheapest cannon eos 350d deals",
            "nothing to see",
            "",
        ] {
            let golden = http::response(200, "OK", &http::spans_json(&m.segment(query)));
            let cold = e.resolve_rendered_batch(&[query]).remove(0);
            let warm = e.resolve_rendered_batch(&[query]).remove(0);
            assert_eq!(&*cold.http, golden, "{query:?} cold");
            assert_eq!(&*warm.http, golden, "{query:?} warm");
            assert_eq!(*warm.spans, m.segment(query), "{query:?} spans");
            // The warm hit is the same allocation the miss filled — a
            // pure lookup-and-write, not a re-serialization.
            assert!(Arc::ptr_eq(&cold.http, &warm.http), "{query:?} share");
        }
        // Span and rendering views of the same entry stay coherent
        // after a base replacement too.
        let new = EntityMatcher::from_pairs(vec![("indy 4", EntityId::new(42))]);
        e.dict().replace_base(new.clone());
        assert_eq!(*e.resolve("indy 4"), new.segment("indy 4"));
        assert_eq!(
            &*e.resolve_rendered_batch(&["indy 4"]).remove(0).http,
            http::response(200, "OK", &http::spans_json(&new.segment("indy 4")))
        );
    }

    #[test]
    fn delta_is_served_live_without_restart_or_base_recompile() {
        let e = small_engine();
        assert!(e.resolve("starwars kid").is_empty());
        let mut delta = DictDelta::new();
        delta.upsert("starwars kid", EntityId::new(9));
        let stats = e.apply_delta(delta);
        assert_eq!(stats.segments, 1, "published as a segment, not a rebuild");
        assert_eq!(e.deltas(), 1);
        assert_eq!(e.swaps(), 0, "a delta is not a lineage change");
        // Served immediately — exact and fuzzy — with no swap.
        let spans = e.resolve("starwars kid");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].entity, EntityId::new(9));
        let fuzzy = e.resolve("starwrs kid");
        assert_eq!(fuzzy.len(), 1, "fuzzy path sees the delta too");
        assert_eq!(fuzzy[0].entity, EntityId::new(9));
        // The TSV wire form feeds the same path.
        e.apply_delta_tsv("starwars kid\t-\n").unwrap();
        assert!(e.resolve("starwars kid").is_empty(), "tombstone applied");
        assert!(
            e.apply_delta_tsv("broken row with no tab\n").is_err(),
            "parse errors apply nothing"
        );
    }

    #[test]
    fn delta_promotes_unaffected_cache_entries_instead_of_flushing() {
        let e = small_engine();
        // Warm two entries: one far from the delta, one it overrides.
        assert_eq!(e.resolve("madagascar 2")[0].entity, EntityId::new(1));
        assert_eq!(e.resolve("indy 4")[0].entity, EntityId::new(0));
        let before = e.cache_stats();
        assert_eq!(before.entries, 2);
        let mut delta = DictDelta::new();
        delta.upsert("indy 4", EntityId::new(77));
        e.apply_delta(delta);
        // The overridden key re-resolves against the new surface set…
        assert_eq!(e.resolve("indy 4")[0].entity, EntityId::new(77));
        // …while the unaffected key is promoted, not recomputed: its
        // warm lookup is a hit and no wholesale invalidation happened.
        assert_eq!(e.resolve("madagascar 2")[0].entity, EntityId::new(1));
        let after = e.cache_stats();
        assert_eq!(after.invalidations, before.invalidations);
        assert_eq!(after.promotions, 1, "exactly the unaffected key");
        assert_eq!(
            after.misses,
            before.misses + 1,
            "only the overridden key missed"
        );
    }

    #[test]
    fn engine_tracks_deltas_applied_directly_to_the_handle() {
        // An updater holding the DictHandle (not the engine) publishes
        // a delta; the engine's next batch must pick it up and keep
        // the cache coherent.
        let e = small_engine();
        assert_eq!(e.resolve("indy 4")[0].entity, EntityId::new(0));
        let handle = e.dict().clone();
        let mut delta = DictDelta::new();
        delta.upsert("indy 4", EntityId::new(5));
        handle.apply(delta);
        assert_eq!(e.resolve("indy 4")[0].entity, EntityId::new(5));
        assert_eq!(e.dict_stats().revision, 1);
    }

    #[test]
    fn batch_resolution_matches_sequential_segment() {
        let e = small_engine();
        let queries = vec![
            "indy 4 showtimes".to_string(),
            "cannon eos 350d price".to_string(),
            "indy 4 showtimes".to_string(), // duplicate: cache hit
            "madagascar 2".to_string(),
        ];
        let m = e.matcher();
        let batch = e.resolve_batch(&queries);
        for (query, spans) in queries.iter().zip(&batch) {
            assert_eq!(**spans, m.segment(query), "{query:?}");
        }
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1, "duplicate in the batch hit the cache");
        assert_eq!(stats.misses, 3);
    }
}
