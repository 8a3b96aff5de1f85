//! Process-wide matcher telemetry.
//!
//! The segmenter's fuzzy window loop and the fuzzy dictionary's
//! candidate pipeline increment these counters on their hot paths
//! (one relaxed `fetch_add` per event — no locks, no allocation).
//! They are process-global statics rather than per-matcher fields
//! because the serving fleet runs one matcher per worker *process*,
//! so a per-process aggregate is exactly the per-worker series the
//! `/metrics` endpoint wants; the cluster router re-labels each
//! worker's snapshot, keeping the fleet merge exact.
//!
//! [`matcher_telemetry`] reads a coherent-enough snapshot (each
//! counter individually exact; cross-counter skew bounded by
//! in-flight requests) for rendering.

use websyn_obs::Counter;

/// Windows that reached the resolution ladder (memo → shared window
/// cache → full candidate generation + verification).
pub(crate) static WINDOWS_RESOLVED: Counter = Counter::new();
/// Windows skipped outright because [`crate::dict::CompiledDict::can_reach`]
/// proved no in-budget surface exists (fully-verifying chains only).
pub(crate) static WINDOWS_PRUNED: Counter = Counter::new();
/// Resolution-ladder rung 1: batch-local memo hits.
pub(crate) static LADDER_MEMO_HITS: Counter = Counter::new();
/// Resolution-ladder rung 2: cross-batch shared window-cache hits.
pub(crate) static LADDER_CACHE_HITS: Counter = Counter::new();
/// Resolution-ladder rung 3: full candidate generation + verification.
pub(crate) static LADDER_FULL_RESOLVES: Counter = Counter::new();
/// Candidate surface ids that reach verification: proposed by the
/// source chain and not rejected by the character-count bound.
pub(crate) static CANDIDATES_PROPOSED: Counter = Counter::new();
/// Candidate occurrences the character-count bound rejected, at
/// whichever stage dropped them (per-position collection, per-window
/// filtering, or just before verification).
pub(crate) static CANDIDATES_BOUNDED: Counter = Counter::new();
/// Candidates that survived verification (trusted-source proposals and
/// proposals whose banded edit distance landed within budget).
pub(crate) static CANDIDATES_VERIFIED: Counter = Counter::new();

/// A point-in-time snapshot of the matcher-internal counters.
///
/// All values are cumulative since process start. `windows_resolved`
/// equals `ladder_memo_hits + ladder_cache_hits + ladder_full_resolves`
/// up to in-flight skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatcherTelemetry {
    /// Windows that entered the resolution ladder.
    pub windows_resolved: u64,
    /// Windows pruned by the reachability screen before any candidate work.
    pub windows_pruned: u64,
    /// Ladder rung 1 hits: batch-local memo.
    pub ladder_memo_hits: u64,
    /// Ladder rung 2 hits: cross-batch shared window cache.
    pub ladder_cache_hits: u64,
    /// Ladder rung 3: full candidate generation + verification runs.
    pub ladder_full_resolves: u64,
    /// Candidates that reached verification (after the
    /// character-count bound).
    pub candidates_proposed: u64,
    /// Candidate occurrences the character-count bound rejected before
    /// verification.
    pub candidates_bounded: u64,
    /// Candidates that survived verification.
    pub candidates_verified: u64,
}

/// Reads the process-wide matcher counters.
pub fn matcher_telemetry() -> MatcherTelemetry {
    MatcherTelemetry {
        windows_resolved: WINDOWS_RESOLVED.get(),
        windows_pruned: WINDOWS_PRUNED.get(),
        ladder_memo_hits: LADDER_MEMO_HITS.get(),
        ladder_cache_hits: LADDER_CACHE_HITS.get(),
        ladder_full_resolves: LADDER_FULL_RESOLVES.get(),
        candidates_proposed: CANDIDATES_PROPOSED.get(),
        candidates_bounded: CANDIDATES_BOUNDED.get(),
        candidates_verified: CANDIDATES_VERIFIED.get(),
    }
}
