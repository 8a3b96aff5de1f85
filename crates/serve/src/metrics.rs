//! Serving-layer observability: per-stage pipeline timers, the
//! slow-query ring, per-class reject counters, and the text assembly
//! behind `GET /metrics` and `GET /debug/slow`.
//!
//! Every request that flows through [`crate::Server`] is decomposed
//! into **non-overlapping stages**, each timed into a lock-free
//! [`websyn_obs::Histogram`] owned by the engine's [`ServeMetrics`]:
//!
//! | stage | where | what |
//! |---|---|---|
//! | `parse` | reader | protocol-line → [`crate::Request`] decoding |
//! | `cache_lookup` | reader | dictionary sync + normalize + result-cache probe |
//! | `queue_wait` | queue | enqueue → taken by a worker (misses only) |
//! | `segment` | worker | matcher segmentation (misses only) |
//! | `render` | worker | response serialization + cache fill (misses only) |
//! | `write` | writer | response write + flush cycles |
//!
//! A result-cache hit is answered on the connection's reader thread,
//! so it records only `parse`, `cache_lookup` and `write`.
//!
//! Because the stages partition disjoint slices of each request's
//! latency, the per-stage totals summed over any traffic sample are
//! bounded by the clients' observed end-to-end total — the invariant
//! `bench_check` enforces on the committed per-stage breakdown.
//!
//! The Prometheus exposition ([`prometheus_text`]) additionally
//! surfaces the matcher internals ([`websyn_core::matcher_telemetry`]:
//! window pruning, resolution-ladder rungs, candidate funnel), the
//! distance-kernel dispatch split
//! ([`websyn_text::kernel_dispatch_stats`]), result/window cache
//! counters (including selective-invalidation promotions), the
//! dictionary lifecycle (`websyn_dict_*`: segment count, live delta
//! sizes, epoch/revision, compactions, deltas applied, and the served
//! dictionary's heap bytes, refreshed at every publish), per-class
//! reject counters and process uptime. All values are integers, so a
//! router merging worker snapshots under `worker="N"` labels loses
//! nothing.

use crate::cache::CacheStats;
use crate::engine::Engine;
use crate::protocol::Reject;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use websyn_obs::{prometheus, Counter, Histogram, RingLog};

/// Slow-query ring capacity: enough to inspect a burst, small enough
/// that `/debug/slow` responses stay a few tens of kilobytes.
pub const SLOW_LOG_CAPACITY: usize = 128;

/// Default slow-query latency threshold (see
/// [`crate::ServerConfig::slow_threshold`]).
pub const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(10);

/// Default 1-in-N sampling rate for the slow log (see
/// [`crate::ServerConfig::slow_sample_every`]).
pub const DEFAULT_SLOW_SAMPLE_EVERY: u64 = 1024;

/// Converts a duration to whole microseconds, saturating (a stage that
/// somehow runs for half a million years reports `u64::MAX`).
#[inline]
pub(crate) fn as_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One slow-query trace entry: the (truncated) query plus its
/// per-stage latency breakdown in microseconds. `total_us` is measured
/// once the answer exists — on the connection's reader for a
/// result-cache hit, on the worker for a miss — so it covers parse →
/// render but not the response write (which happens after the entry is
/// recorded). A hit's queue, segment and render stages are 0.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The raw query, truncated to ~128 bytes on a char boundary.
    pub query: String,
    /// Receipt → resolved, microseconds (excludes the response write).
    pub total_us: u64,
    /// Protocol parse time.
    pub parse_us: u64,
    /// Enqueue → taken by a worker (0 on a hit).
    pub queue_us: u64,
    /// Dictionary sync + normalize + result-cache probe.
    pub cache_us: u64,
    /// Matcher segmentation (0 on a result-cache hit).
    pub segment_us: u64,
    /// Response serialization + cache fill (0 on a hit).
    pub render_us: u64,
}

/// Truncates `query` to at most `max` bytes on a char boundary — slow
/// entries must stay bounded even for maximum-line-length queries.
pub(crate) fn truncate_query(query: &str, max: usize) -> String {
    if query.len() <= max {
        return query.to_string();
    }
    let mut end = max;
    while !query.is_char_boundary(end) {
        end -= 1;
    }
    query[..end].to_string()
}

impl SlowEntry {
    fn json_into(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("{\"query\":\"");
        crate::http::json_escape_into(out, &self.query);
        let _ = write!(
            out,
            "\",\"total_us\":{},\"parse_us\":{},\"queue_us\":{},\"cache_us\":{},\"segment_us\":{},\"render_us\":{}}}",
            self.total_us,
            self.parse_us,
            self.queue_us,
            self.cache_us,
            self.segment_us,
            self.render_us,
        );
    }
}

/// The per-engine serving metrics: stage histograms, the slow-query
/// ring, and the slow-log configuration the server installed. One per
/// [`Engine`] — which in the cluster topology means one per worker
/// process, exactly the granularity the router's per-worker merge
/// wants.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    /// Protocol-line → request decoding.
    pub parse: Histogram,
    /// Enqueue → taken by a worker (misses only).
    pub queue_wait: Histogram,
    /// Dictionary sync + normalize + result-cache probe (every read).
    pub cache_lookup: Histogram,
    /// Matcher segmentation (recorded on result-cache misses only).
    pub segment: Histogram,
    /// Response serialization + cache fill (misses only).
    pub render: Histogram,
    /// Response write + flush cycles.
    pub write: Histogram,
    /// The bounded slow-query trace.
    pub slow: RingLog<SlowEntry>,
    /// Drives the 1-in-N slow-log sample. A plain atomic, not a sharded
    /// [`Counter`]: the sample needs each read's own position in the
    /// sequence, which only a single fetch-and-add hands out.
    sampler: AtomicU64,
    slow_threshold_us: AtomicU64,
    slow_sample_every: AtomicU64,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh metrics; uptime starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            parse: Histogram::new(),
            queue_wait: Histogram::new(),
            cache_lookup: Histogram::new(),
            segment: Histogram::new(),
            render: Histogram::new(),
            write: Histogram::new(),
            slow: RingLog::new(SLOW_LOG_CAPACITY),
            sampler: AtomicU64::new(0),
            slow_threshold_us: AtomicU64::new(as_us(DEFAULT_SLOW_THRESHOLD)),
            slow_sample_every: AtomicU64::new(DEFAULT_SLOW_SAMPLE_EVERY),
        }
    }

    /// Whole seconds since the engine was created.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The stage histograms with their exposition names, pipeline
    /// order.
    pub fn stages(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("parse", &self.parse),
            ("queue_wait", &self.queue_wait),
            ("cache_lookup", &self.cache_lookup),
            ("segment", &self.segment),
            ("render", &self.render),
            ("write", &self.write),
        ]
    }

    /// Installs the slow-log gate the server was configured with (see
    /// [`crate::ServerConfig`]); reflected in [`slow_json`] so the
    /// debug endpoint reports the live thresholds.
    pub fn set_slow_config(&self, threshold: Duration, sample_every: u64) {
        self.slow_threshold_us
            .store(as_us(threshold), Ordering::Relaxed);
        self.slow_sample_every
            .store(sample_every.max(1), Ordering::Relaxed);
    }

    /// The installed slow-query threshold, microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// The installed 1-in-N slow-log sampling rate.
    pub fn slow_sample_every(&self) -> u64 {
        self.slow_sample_every.load(Ordering::Relaxed).max(1)
    }

    /// The slow-trace gate for a read that took `total_us`: over the
    /// threshold, or — among the reads that are not — every Nth.
    pub(crate) fn should_trace(&self, total_us: u64) -> bool {
        total_us >= self.slow_threshold_us()
            || self
                .sampler
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.slow_sample_every())
    }
}

/// Reject classes in render order, paired with [`Reject`] variants by
/// [`reject_class`].
pub const REJECT_CLASSES: [&str; 6] = [
    "busy",
    "shutdown",
    "too_large",
    "malformed",
    "not_found",
    "method",
];

/// Per-class reject counters. Process-wide statics: both the worker
/// server and the cluster router count through the same function, and
/// each is its own process, so the totals are per-process series —
/// exactly what `/metrics` exposes.
static REJECTS: [Counter; 6] = [
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
];

/// The [`REJECT_CLASSES`] label of `reject`.
pub fn reject_class(reject: Reject) -> &'static str {
    REJECT_CLASSES[reject_index(reject)]
}

fn reject_index(reject: Reject) -> usize {
    match reject {
        Reject::Busy => 0,
        Reject::Shutdown => 1,
        Reject::TooLarge => 2,
        Reject::Malformed => 3,
        Reject::NotFound => 4,
        Reject::Method => 5,
    }
}

/// Counts one rejected (error-answered) request in its class. Called
/// at every render-reject site in the server and in the router.
pub fn count_reject(reject: Reject) {
    REJECTS[reject_index(reject)].incr();
}

/// Point-in-time per-class reject totals, in [`REJECT_CLASSES`] order.
pub fn reject_counts() -> [(&'static str, u64); 6] {
    let mut out = [("", 0u64); 6];
    for (slot, (class, counter)) in out.iter_mut().zip(REJECT_CLASSES.iter().zip(&REJECTS)) {
        *slot = (class, counter.get());
    }
    out
}

/// Renders the process's full Prometheus text exposition: uptime,
/// stage histograms, reject classes, result/window cache counters,
/// matcher telemetry and the distance-kernel dispatch split.
pub fn prometheus_text(engine: &Engine) -> String {
    let m = engine.metrics();
    let mut out = String::with_capacity(4096);

    prometheus::write_type(&mut out, "websyn_uptime_seconds", "gauge");
    prometheus::write_series(&mut out, "websyn_uptime_seconds", "", m.uptime_seconds());

    prometheus::write_type(&mut out, "websyn_stage_duration_us", "histogram");
    for (stage, histogram) in m.stages() {
        prometheus::write_histogram(
            &mut out,
            "websyn_stage_duration_us",
            &format!("stage=\"{stage}\""),
            &histogram.snapshot(),
        );
    }

    prometheus::write_type(&mut out, "websyn_rejects_total", "counter");
    for (class, count) in reject_counts() {
        prometheus::write_series(
            &mut out,
            "websyn_rejects_total",
            &format!("class=\"{class}\""),
            count,
        );
    }

    let cache: CacheStats = engine.cache_stats();
    for (name, kind, value) in [
        ("websyn_cache_hits_total", "counter", cache.hits),
        ("websyn_cache_misses_total", "counter", cache.misses),
        ("websyn_cache_evictions_total", "counter", cache.evictions),
        ("websyn_cache_promotions_total", "counter", cache.promotions),
        ("websyn_cache_entries", "gauge", cache.entries as u64),
        ("websyn_swaps_total", "counter", engine.swaps()),
    ] {
        prometheus::write_type(&mut out, name, kind);
        prometheus::write_series(&mut out, name, "", value);
    }

    // Dictionary lifecycle: where the served dictionary sits in its
    // base → deltas → compaction cycle, and how many live updates the
    // engine has absorbed.
    let dict = engine.dict_stats();
    for (name, kind, value) in [
        ("websyn_dict_surfaces", "gauge", dict.surfaces as u64),
        ("websyn_dict_heap_bytes", "gauge", dict.heap_bytes as u64),
        ("websyn_dict_segments", "gauge", dict.segments as u64),
        (
            "websyn_dict_delta_upserts",
            "gauge",
            dict.delta_upserts as u64,
        ),
        (
            "websyn_dict_delta_tombstones",
            "gauge",
            dict.delta_tombstones as u64,
        ),
        ("websyn_dict_epoch", "gauge", dict.epoch),
        ("websyn_dict_revision", "counter", dict.revision),
        ("websyn_dict_compactions_total", "counter", dict.compactions),
        ("websyn_deltas_applied_total", "counter", engine.deltas()),
    ] {
        prometheus::write_type(&mut out, name, kind);
        prometheus::write_series(&mut out, name, "", value);
    }

    let window = engine.window_cache_stats().unwrap_or_default();
    for (name, kind, value) in [
        ("websyn_window_cache_hits_total", "counter", window.hits),
        ("websyn_window_cache_misses_total", "counter", window.misses),
        (
            "websyn_window_cache_entries",
            "gauge",
            window.entries as u64,
        ),
    ] {
        prometheus::write_type(&mut out, name, kind);
        prometheus::write_series(&mut out, name, "", value);
    }

    let t = websyn_core::matcher_telemetry();
    for (name, value) in [
        ("websyn_matcher_windows_resolved_total", t.windows_resolved),
        ("websyn_matcher_windows_pruned_total", t.windows_pruned),
        ("websyn_matcher_ladder_memo_hits_total", t.ladder_memo_hits),
        (
            "websyn_matcher_ladder_cache_hits_total",
            t.ladder_cache_hits,
        ),
        (
            "websyn_matcher_ladder_full_resolves_total",
            t.ladder_full_resolves,
        ),
        (
            "websyn_matcher_candidates_proposed_total",
            t.candidates_proposed,
        ),
        (
            "websyn_matcher_candidates_bounded_total",
            t.candidates_bounded,
        ),
        (
            "websyn_matcher_candidates_verified_total",
            t.candidates_verified,
        ),
    ] {
        prometheus::write_type(&mut out, name, "counter");
        prometheus::write_series(&mut out, name, "", value);
    }

    let kernels = websyn_text::kernel_dispatch_stats();
    for (name, value) in [
        ("websyn_distance_bitpar_total", kernels.bitpar),
        ("websyn_distance_banded_total", kernels.banded),
    ] {
        prometheus::write_type(&mut out, name, "counter");
        prometheus::write_series(&mut out, name, "", value);
    }

    prometheus::write_type(&mut out, "websyn_slow_recorded_total", "counter");
    prometheus::write_series(
        &mut out,
        "websyn_slow_recorded_total",
        "",
        m.slow.recorded(),
    );

    out
}

/// Renders the slow-query trace as the `/debug/slow` JSON body:
/// the installed gate, the ring accounting, and the retained entries
/// (oldest first).
pub fn slow_json(engine: &Engine) -> String {
    use std::fmt::Write;
    let m = engine.metrics();
    let entries = m.slow.entries();
    let mut out = String::with_capacity(256 + entries.len() * 192);
    let _ = write!(
        out,
        "{{\"threshold_us\":{},\"sample_every\":{},\"capacity\":{},\"recorded\":{},\"entries\":[",
        m.slow_threshold_us(),
        m.slow_sample_every(),
        m.slow.capacity(),
        m.slow.recorded(),
    );
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        entry.json_into(&mut out);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of an unlabelled series in a Prometheus exposition.
    fn series(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn dict_heap_gauge_follows_every_publish() {
        use websyn_common::EntityId;
        use websyn_core::{DictDelta, DictHandle, EntityMatcher, FuzzyConfig};
        let base = EntityMatcher::from_pairs(vec![
            ("canon eos 350d", EntityId::new(0)),
            ("nikon d80", EntityId::new(1)),
        ])
        .with_fuzzy(FuzzyConfig::default());
        let base_bytes = base.heap_bytes();
        let engine = crate::Engine::with_dict(DictHandle::new(base), Default::default());
        let gauge = || series(&prometheus_text(&engine), "websyn_dict_heap_bytes") as usize;
        assert!(base_bytes > 0);
        assert_eq!(gauge(), base_bytes);
        // A delta publishes base plus overlay.
        let mut delta = DictDelta::new();
        delta.upsert("indiana jones 4", EntityId::new(2));
        engine.apply_delta(delta);
        let with_overlay = engine.matcher().heap_bytes();
        assert!(with_overlay > base_bytes);
        assert_eq!(gauge(), with_overlay);
        // A compaction folds the overlay into a new base.
        engine.dict().compact();
        assert_eq!(gauge(), engine.matcher().heap_bytes());
        assert_ne!(gauge(), with_overlay);
    }

    #[test]
    fn reject_classes_cover_every_variant() {
        for (reject, class) in [
            (Reject::Busy, "busy"),
            (Reject::Shutdown, "shutdown"),
            (Reject::TooLarge, "too_large"),
            (Reject::Malformed, "malformed"),
            (Reject::NotFound, "not_found"),
            (Reject::Method, "method"),
        ] {
            assert_eq!(reject_class(reject), class);
        }
        // Counting lands in the right class (statics are process-wide,
        // so assert on deltas, not absolutes).
        let before = reject_counts()[reject_index(Reject::TooLarge)].1;
        count_reject(Reject::TooLarge);
        assert_eq!(
            reject_counts()[reject_index(Reject::TooLarge)].1,
            before + 1
        );
    }

    #[test]
    fn slow_entries_render_as_json_and_truncate() {
        let entry = SlowEntry {
            query: "indy \"4\"".to_string(),
            total_us: 12_000,
            parse_us: 5,
            queue_us: 40,
            cache_us: 9,
            segment_us: 11_000,
            render_us: 30,
        };
        let mut out = String::new();
        entry.json_into(&mut out);
        assert!(out.starts_with("{\"query\":\"indy \\\"4\\\"\",\"total_us\":12000,"));
        assert!(out.ends_with("\"render_us\":30}"));
        // Truncation respects char boundaries.
        let long = "é".repeat(100);
        let cut = truncate_query(&long, 7);
        assert_eq!(cut, "é".repeat(3));
        assert_eq!(truncate_query("short", 128), "short");
    }

    #[test]
    fn serve_metrics_stage_table_is_ordered_and_complete() {
        let m = ServeMetrics::new();
        m.parse.record(3);
        m.write.record(9);
        let names: Vec<&str> = m.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "parse",
                "queue_wait",
                "cache_lookup",
                "segment",
                "render",
                "write"
            ]
        );
        assert_eq!(m.stages()[0].1.snapshot().count(), 1);
        assert_eq!(m.stages()[5].1.snapshot().sum, 9);
        // Slow config round-trips through the atomics.
        m.set_slow_config(Duration::from_millis(2), 0);
        assert_eq!(m.slow_threshold_us(), 2000);
        assert_eq!(m.slow_sample_every(), 1, "0 clamps to every request");
    }
}
