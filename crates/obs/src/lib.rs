//! Lock-free observability primitives shared by the matcher core and
//! the serving layer.
//!
//! The design constraint is the serving hot path: recording a counter
//! increment or a latency sample must be **one relaxed atomic RMW** —
//! no locks, no allocation, no branching beyond a bit-width
//! computation. Reading is the rare path and may be as expensive as it
//! likes (snapshots iterate every bucket under `Relaxed` loads).
//!
//! The pieces:
//!
//! - [`Counter`] / [`Gauge`] — atomic scalars with `const`
//!   constructors, so process-wide metrics can live in `static`s. A
//!   counter is sharded per thread across padded cache lines, so hot
//!   counters bumped from every core do not contend.
//! - [`Histogram`] — a log-bucketed (power-of-two) latency histogram:
//!   value `v` lands in the bucket indexed by its bit width, so the 65
//!   buckets cover the full `u64` range with relative error bounded by
//!   2×. An exact running sum rides along, so means are exact even
//!   though individual samples are bucketed.
//! - [`HistogramSnapshot`] — a point-in-time copy of a histogram.
//!   Snapshots **merge by integer addition**, which makes worker →
//!   router fleet aggregation *exact*: merging snapshots is
//!   indistinguishable from one histogram having observed both
//!   streams (pinned by the merge property tests below).
//! - [`RingLog`] — a bounded mutex-guarded ring buffer for structured
//!   trace entries (slow queries). Recording takes a lock, which is
//!   fine *because recording is rare by construction*: callers gate on
//!   a latency threshold plus a 1-in-N sample before pushing.
//! - [`prometheus`] — helpers for the Prometheus text exposition
//!   format (`# TYPE` headers, labelled series, cumulative
//!   `_bucket`/`_sum`/`_count` histogram rendering).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: one per possible `u64` bit width
/// (0..=64). Bucket 0 holds exactly the value 0; bucket `b ≥ 1` holds
/// the values in `[2^(b-1), 2^b)`.
pub const BUCKETS: usize = 65;

/// Shards per [`Counter`]. Each thread increments one shard, so
/// threads on different cores stop contending for one cache line as
/// long as fewer than this many threads are hot at once.
const COUNTER_SHARDS: usize = 16;

/// One counter shard on its own cache-line pair (128 bytes: adjacent-
/// line prefetchers pull lines in pairs, so 64 would still share).
#[derive(Debug, Default)]
#[repr(align(128))]
struct CounterShard(AtomicU64);

/// This thread's shard index, assigned round-robin on first use.
#[inline]
fn counter_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut i = slot.get();
        if i == usize::MAX {
            i = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            slot.set(i);
        }
        i
    })
}

/// A monotonically increasing counter, `const`-constructible so it can
/// live in a `static`.
///
/// Increments land on a per-thread, cache-line-padded shard and
/// [`Counter::get`] sums the shards. Counters bumped once per fuzzy
/// candidate (thousands of times per query, from every worker) would
/// otherwise bounce one cache line between cores on every increment.
/// All operations are `Relaxed`: counters are statistics, not
/// synchronization. The price is 2 KiB per counter and no
/// fetch-and-add result; a caller that needs "the value before my
/// increment" (1-in-N sampling) wants a plain `AtomicU64`.
#[derive(Debug, Default)]
pub struct Counter([CounterShard; COUNTER_SHARDS]);

impl Counter {
    /// A zeroed counter (usable in `static` initializers).
    pub const fn new() -> Self {
        Self([const { CounterShard(AtomicU64::new(0)) }; COUNTER_SHARDS])
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[counter_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value: the sum over every shard.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
            .iter()
            .map(|shard| shard.0.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }
}

/// A last-write-wins atomic gauge (an instantaneous quantity like
/// "entries in cache", as opposed to a [`Counter`]'s running total).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (usable in `static` initializers).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket index of `value`: its bit width. 0 → 0, 1 → 1,
/// `[2^i, 2^(i+1))` → `i+1`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `b` can hold: 0 for bucket 0, `2^b − 1`
/// otherwise (saturating at `u64::MAX` for the last bucket).
#[inline]
pub fn bucket_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A lock-free log-bucketed histogram. [`Histogram::record`] is one
/// bit-width computation plus two relaxed `fetch_add`s; there is no
/// allocation and no lock anywhere on the write path.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Exact sum of every recorded value — bucketing loses resolution
    /// per sample, but means stay exact.
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (usable in `static` initializers).
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recorders may land between the
    /// bucket loads — each sample is still counted exactly once across
    /// successive snapshots, which is the guarantee aggregation needs.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable by integer
/// addition and queryable by exact rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, indexed by [`bucket_of`].
    pub buckets: [u64; BUCKETS],
    /// Exact sum of the recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub const fn empty() -> Self {
        Self {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Adds `other` into `self`. Addition of per-bucket counts and
    /// sums is commutative and associative, so fleet-wide merges are
    /// exact regardless of merge order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// The value at quantile `p` (clamped to `[0, 1]`) by **exact
    /// rank**: the returned value is the upper bound of the bucket
    /// holding the sample of rank `⌈p·(n−1)⌉` — the same bucket the
    /// rank-selected element of the sorted sample vector falls in, so
    /// the rank error is zero and the value error is bounded by the
    /// bucket width (pinned against a sorted-vector oracle in the
    /// property tests). Returns 0 on an empty snapshot.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * (count - 1) as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative > rank {
                return bucket_bound(bucket);
            }
        }
        bucket_bound(BUCKETS - 1)
    }
}

/// A bounded ring buffer of structured trace entries. Pushing past
/// capacity drops the oldest entry. The interior mutex is fine because
/// writers are rare by construction — callers gate recording on a
/// latency threshold and a 1-in-N sample — and readers are rarer still
/// (a `/debug/slow` request).
#[derive(Debug)]
pub struct RingLog<T> {
    entries: Mutex<std::collections::VecDeque<T>>,
    capacity: usize,
    /// Total entries ever pushed (survives ring eviction).
    recorded: Counter,
}

impl<T: Clone> RingLog<T> {
    /// A ring holding at most `capacity` entries (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            entries: Mutex::new(std::collections::VecDeque::with_capacity(capacity)),
            capacity,
            recorded: Counter::new(),
        }
    }

    /// Appends an entry, evicting the oldest past capacity.
    pub fn push(&self, entry: T) {
        let mut entries = self.entries.lock().expect("ring log poisoned");
        if entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        self.recorded.incr();
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<T> {
        self.entries
            .lock()
            .expect("ring log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Total entries ever pushed, including those evicted since.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Prometheus text exposition format helpers
/// (<https://prometheus.io/docs/instrumenting/exposition_formats/>).
/// All values websyn exposes are integers, which is what keeps
/// fleet-wide merges exact (integer sums commute with exposition).
pub mod prometheus {
    use super::{bucket_bound, HistogramSnapshot};
    use std::fmt::Write;

    /// Writes a `# TYPE` header. Emit once per metric name, before its
    /// series.
    pub fn write_type(out: &mut String, name: &str, kind: &str) {
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }

    /// Writes one series line: `name{labels} value` (or `name value`
    /// with empty labels). `labels` is the comma-joined interior of
    /// the braces, e.g. `stage="parse",worker="0"`.
    pub fn write_series(out: &mut String, name: &str, labels: &str, value: u64) {
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {value}");
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        }
    }

    /// Renders a snapshot as a Prometheus histogram: cumulative
    /// `_bucket{le="..."}` series up to the highest non-empty bucket,
    /// the `+Inf` bucket, `_sum` and `_count`. `labels` (possibly
    /// empty) is spliced into every series alongside the `le` label.
    pub fn write_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
        let highest = snap
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .unwrap_or(0)
            .min(snap.buckets.len() - 2);
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (bucket, &n) in snap.buckets.iter().enumerate().take(highest + 1) {
            cumulative += n;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                bucket_bound(bucket)
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            snap.count()
        );
        write_series(out, &format!("{name}_sum"), labels, snap.sum);
        write_series(out, &format!("{name}_count"), labels, snap.count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn bucket_of_is_the_bit_width() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 123_456_789, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_bound(b), "{v} above its bucket bound");
            if b > 0 {
                assert!(v > bucket_bound(b - 1), "{v} below its bucket floor");
            }
        }
    }

    #[test]
    fn counter_sums_increments_and_adds() {
        let c = Counter::new();
        c.incr();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn counter_shards_sit_on_separate_cache_lines() {
        assert_eq!(std::mem::align_of::<CounterShard>(), 128);
        assert_eq!(
            std::mem::size_of::<Counter>(),
            COUNTER_SHARDS * std::mem::size_of::<CounterShard>()
        );
        // Threads past the shard count wrap around and share a shard;
        // the sum still counts every increment exactly once.
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..COUNTER_SHARDS + 3 {
                s.spawn(|| c.add(2));
            }
        });
        assert_eq!(c.get(), 2 * (COUNTER_SHARDS as u64 + 3));
    }

    #[test]
    fn histogram_mean_is_exact_despite_bucketing() {
        let h = Histogram::new();
        for v in [3u64, 5, 900, 17] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum, 925);
        assert!((s.mean() - 925.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    /// The multi-thread hammer: concurrent recorders must lose no
    /// samples and no sum.
    #[test]
    fn histogram_and_counter_survive_concurrent_hammering() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                        c.incr();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("recorder thread");
        }
        let s = h.snapshot();
        assert_eq!(s.count(), THREADS * PER_THREAD);
        assert_eq!(c.get(), THREADS * PER_THREAD);
        // Sum of 0..THREADS*PER_THREAD.
        let n = THREADS * PER_THREAD;
        assert_eq!(s.sum, n * (n - 1) / 2);
    }

    #[test]
    fn ring_log_bounds_and_orders_entries() {
        let log = RingLog::new(3);
        for i in 0..5 {
            log.push(i);
        }
        assert_eq!(log.entries(), vec![2, 3, 4]);
        assert_eq!(log.recorded(), 5);
        assert_eq!(log.capacity(), 3);
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let mut out = String::new();
        prometheus::write_type(&mut out, "websyn_requests_total", "counter");
        prometheus::write_series(&mut out, "websyn_requests_total", "", 7);
        prometheus::write_series(&mut out, "websyn_rejects_total", "class=\"busy\"", 2);
        let h = Histogram::new();
        h.record(3);
        h.record(100);
        prometheus::write_histogram(
            &mut out,
            "websyn_stage_us",
            "stage=\"parse\"",
            &h.snapshot(),
        );
        assert!(out.contains("# TYPE websyn_requests_total counter"));
        assert!(out.contains("websyn_requests_total 7"));
        assert!(out.contains("websyn_rejects_total{class=\"busy\"} 2"));
        // Cumulative buckets: the le="3" bucket holds 1, the le="127"
        // bucket holds both samples, +Inf agrees with _count.
        assert!(out.contains("websyn_stage_us_bucket{stage=\"parse\",le=\"3\"} 1"));
        assert!(out.contains("websyn_stage_us_bucket{stage=\"parse\",le=\"127\"} 2"));
        assert!(out.contains("websyn_stage_us_bucket{stage=\"parse\",le=\"+Inf\"} 2"));
        assert!(out.contains("websyn_stage_us_sum{stage=\"parse\"} 103"));
        assert!(out.contains("websyn_stage_us_count{stage=\"parse\"} 2"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn histogram_rendering_without_labels_stays_parseable() {
        let h = Histogram::new();
        h.record(0);
        let mut out = String::new();
        prometheus::write_histogram(&mut out, "m", "", &h.snapshot());
        assert!(out.contains("m_bucket{le=\"0\"} 1"));
        assert!(out.contains("m_sum 0"));
        assert!(out.contains("m_count 1"));
    }

    /// The sorted-vector oracle for percentiles: the histogram's
    /// exact-rank answer must be the bucket bound of the very element
    /// nearest-rank selection picks from the sorted samples.
    fn oracle_check(mut values: Vec<u64>, p: f64) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = (p.clamp(0.0, 1.0) * (values.len() - 1) as f64).ceil() as usize;
        let oracle = values[rank];
        let got = h.snapshot().percentile(p);
        assert_eq!(
            got,
            bucket_bound(bucket_of(oracle)),
            "p={p} rank={rank} oracle={oracle} values={values:?}"
        );
        // Rank error is zero; value error is bounded by the bucket
        // width (the reported bound brackets the oracle value).
        assert!(got >= oracle);
        if bucket_of(oracle) > 0 {
            assert!(got / 2 <= oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn percentiles_match_the_sorted_vector_oracle(
            values in collection::vec(0u64..1_000_000, 1..200),
            p_raw in 0u32..=100,
        ) {
            oracle_check(values, f64::from(p_raw) / 100.0);
        }

        /// merge(a, b) ≡ merge(b, a), and merging two snapshots is
        /// indistinguishable from one histogram having observed both
        /// streams (merge-then-snapshot ≡ snapshot-then-merge).
        #[test]
        fn merge_is_commutative_and_stream_equivalent(
            xs in collection::vec(0u64..1_000_000, 0..100),
            ys in collection::vec(0u64..1_000_000, 0..100),
        ) {
            let (hx, hy, hboth) = (Histogram::new(), Histogram::new(), Histogram::new());
            for &v in &xs {
                hx.record(v);
                hboth.record(v);
            }
            for &v in &ys {
                hy.record(v);
                hboth.record(v);
            }
            let (sx, sy) = (hx.snapshot(), hy.snapshot());
            let mut ab = sx;
            ab.merge(&sy);
            let mut ba = sy;
            ba.merge(&sx);
            prop_assert_eq!(ab, ba);
            prop_assert_eq!(ab, hboth.snapshot());
            // Associativity across a three-way split falls out of the
            // same integer sums: ((x+y)+x) == (x+(y+x)).
            let mut left = ab;
            left.merge(&sx);
            let mut right = sx;
            let mut yx = sy;
            yx.merge(&sx);
            right.merge(&yx);
            prop_assert_eq!(left, right);
        }
    }
}
