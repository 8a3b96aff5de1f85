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
//! The engine keeps no served-state of its own. A probe reads the
//! handle's published [`FootprintLog`] and looks its key up at the
//! log's `(lineage, revision)` [`Stamp`]; a miss is resolved by the
//! matcher of the published [`DictView`] and cached under that view's
//! stamp. An entry from an older revision of the same lineage is
//! *promoted* (re-stamped, served) when every footprint committed
//! since provably leaves its key alone, so a ten-surface delta does not
//! cold-start a four-thousand-entry cache. An entry of another lineage
//! (a replaced base) never hits; the first read of a new lineage still
//! clears the cache, to free the memory and to count the swap.
//!
//! Cached and uncached paths return byte-identical results: the cache
//! stores exactly what the matcher produced (and the response
//! serialized from it), under the stamp of the view whose matcher
//! produced it. A result computed at revision `r` and inserted after
//! `r + 1` landed is served at `r + 1` only if footprint `r + 1` clears
//! it — never because of when it was inserted.

use crate::cache::{CacheStats, ShardedCache};
use crate::http;
use crate::metrics::{as_us, ServeMetrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use websyn_core::{
    DictDelta, DictHandle, DictStats, DictView, EntityMatcher, FootprintLog, MatchScratch,
    MatchSpan, SegmentRequest, Stamp,
};
use websyn_text::normalized;

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
/// [`Engine::resolve_rendered_batch_timed`] and, for the one miss a
/// server worker resolves, by [`Engine::resolve_miss`] (whose
/// `cache_us` is 0: the probe ran on the connection thread). On a
/// result-cache hit only `cache_us` is nonzero — the segment and render
/// stages never ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Dictionary log read + normalize + result-cache probe,
    /// microseconds.
    pub cache_us: u64,
    /// Matcher segmentation, microseconds (0 on a hit).
    pub segment_us: u64,
    /// Response serialization + cache fill, microseconds (0 on a hit).
    pub render_us: u64,
}

/// What [`Engine::probe`] found for one read.
#[derive(Debug)]
pub enum Probe {
    /// A result-cache hit: the rendered response, ready to write.
    Hit(Rendered),
    /// A miss: the normalized query — the key
    /// [`Engine::resolve_miss`] resolves and caches the result under.
    Miss(String),
}

/// A live-updatable dictionary + result cache, shared by every
/// connection and worker.
#[derive(Debug)]
pub struct Engine {
    dict: DictHandle,
    cache: ShardedCache<Rendered>,
    /// The latest dictionary lineage any read has seen. Only used to
    /// clear the cache (and count a swap) once per base replacement.
    lineage: AtomicU64,
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
        Self {
            lineage: AtomicU64::new(dict.view().lineage()),
            dict,
            cache: ShardedCache::new(config.cache_shards, config.cache_capacity),
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
    /// served from the next read on.
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

    /// The cache stamp of reads at `log`. The first read of a lineage
    /// newer than any seen before clears the cache and counts a swap:
    /// entries of the old lineage could never hit again, so this only
    /// frees their memory.
    fn stamp(&self, log: &FootprintLog) -> Stamp {
        let stamp = log.stamp();
        if stamp.lineage > self.lineage.load(Ordering::Acquire)
            && self.lineage.fetch_max(stamp.lineage, Ordering::AcqRel) < stamp.lineage
        {
            self.cache.invalidate();
            self.swaps.fetch_add(1, Ordering::AcqRel);
        }
        stamp
    }

    /// Stages and publishes `delta` through the handle, so the very
    /// next request is served against the new surface set — no
    /// restart, no base recompile, no wholesale cache flush (cached
    /// results the delta cannot touch are promoted on their next
    /// lookup). Returns the post-apply lifecycle counters.
    pub fn apply_delta(&self, delta: DictDelta) -> DictStats {
        self.dict.apply(delta);
        self.deltas.fetch_add(1, Ordering::AcqRel);
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

    /// Number of lineage replacements (base swaps) this engine's reads
    /// have observed.
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

    /// Probes the result cache for one raw query: reads the
    /// dictionary's published footprint log (never its matcher),
    /// normalizes, and looks the key up at the log's stamp (promoting
    /// an older entry the intervening deltas provably leave
    /// unchanged). Counts exactly one hit or one miss and records the
    /// `cache_lookup` stage; also returns that stage's duration in
    /// microseconds. This is the server's
    /// connection-thread entry point: a hit is answered on the spot, a
    /// miss is queued with its key for [`Engine::resolve_miss`].
    pub fn probe(&self, query: &str) -> (Probe, u64) {
        let start = Instant::now();
        self.probe_at(&self.dict.log(), query, start)
    }

    /// Resolves one normalized key that [`Engine::probe`] reported as a
    /// miss, without probing the cache again: segments it against the
    /// published dictionary view, renders the response and caches it
    /// under the view's stamp. The timing's `cache_us` is 0: the probe
    /// ran elsewhere.
    pub fn resolve_miss(&self, key: &str) -> (Rendered, StageTiming) {
        let view = self.dict.view();
        let stamp = self.stamp(view.log());
        self.resolve_at(&view, stamp, key, None)
    }

    fn resolve_inner<S: AsRef<str>>(
        &self,
        queries: &[S],
        mut timings: Option<&mut Vec<StageTiming>>,
    ) -> Vec<Rendered> {
        // One view for the whole batch, so a batch never mixes two
        // dictionary revisions.
        let view = self.dict.view();
        let stamp = self.stamp(view.log());
        let mut scratch = MatchScratch::new();
        queries
            .iter()
            .map(|query| {
                let (probe, cache_us) = self.probe_at(view.log(), query.as_ref(), Instant::now());
                // A hit records only the lookup stage: segment and
                // render never ran, and zeros would dilute the
                // miss-path stage distributions.
                let (rendered, timing) = match probe {
                    Probe::Hit(hit) => (hit, StageTiming::default()),
                    Probe::Miss(key) => self.resolve_at(&view, stamp, &key, Some(&mut scratch)),
                };
                if let Some(timings) = timings.as_deref_mut() {
                    timings.push(StageTiming { cache_us, ..timing });
                }
                rendered
            })
            .collect()
    }

    /// The probe at `log`'s stamp; the stage clock started at `start`.
    fn probe_at(&self, log: &FootprintLog, query: &str, start: Instant) -> (Probe, u64) {
        let stamp = self.stamp(log);
        let normalized = normalized(query);
        // An entry computed at this revision is served as is; one from
        // an older revision of this lineage only when every footprint
        // committed since provably leaves this key's result unchanged.
        let hit = self.cache.get(&normalized, stamp, |key, revision| {
            log.unchanged_since(revision, key)
        });
        let cache_us = as_us(start.elapsed());
        self.metrics.cache_lookup.record(cache_us);
        let probe = match hit {
            Some(hit) => Probe::Hit(hit),
            None => Probe::Miss(normalized.into_owned()),
        };
        (probe, cache_us)
    }

    /// Segments, renders and caches one normalized key with `view`'s
    /// matcher, under `view`'s `stamp`; a batch passes its shared memo.
    fn resolve_at(
        &self,
        view: &DictView,
        stamp: Stamp,
        key: &str,
        scratch: Option<&mut MatchScratch>,
    ) -> (Rendered, StageTiming) {
        let segment_start = Instant::now();
        let request = SegmentRequest::normalized(key);
        let request = match scratch {
            Some(scratch) => request.scratch(scratch),
            None => request,
        };
        let spans = Arc::new(view.matcher().resolve(request));
        let segment_us = as_us(segment_start.elapsed());
        self.metrics.segment.record(segment_us);
        let render_start = Instant::now();
        let entry = Rendered {
            http: Arc::from(http::response(200, "OK", &http::spans_json(&spans)).as_str()),
            spans,
        };
        self.cache.insert(key, stamp, entry.clone());
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
    /// delta commits keep the cache and promote its entries by
    /// footprint.
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
    fn a_probed_miss_resolves_once_and_then_hits() {
        let e = small_engine();
        let query = "Cheapest cannon EOS 350d deals";
        let (Probe::Miss(key), _) = e.probe(query) else {
            panic!("cold probe must miss");
        };
        let (rendered, timing) = e.resolve_miss(&key);
        assert_eq!(*rendered.spans, e.matcher().segment(query));
        assert_eq!(timing.cache_us, 0, "the probe ran elsewhere");
        let (Probe::Hit(hit), _) = e.probe(query) else {
            panic!("the resolved miss filled the cache");
        };
        assert!(Arc::ptr_eq(&hit.http, &rendered.http));
        let stats = e.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "resolve_miss never probes"
        );
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
