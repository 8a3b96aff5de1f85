//! Helpers shared by the live-socket tests.

use std::time::{Duration, Instant};
use websyn_core::EntityMatcher;

/// Misspelled text every query of [`busy_queries`] repeats: each
/// repetition is a window the matcher must verify fuzzily.
const CHUNK: &str = "cheapest cannon eos 350d deels ";

/// Distinct queries just under 60 KB each — under the server's default
/// 64 KiB line cap once percent-encoded, since `[a-z0-9 ]` encodes
/// byte for byte — and enough of them (at least four) that segmenting
/// all of them one after another with `matcher` takes at least `busy`.
/// The cost is timed here, best of three, so the load scales with the
/// build profile and the host instead of assuming either.
pub fn busy_queries(matcher: &EntityMatcher, busy: Duration) -> Vec<String> {
    let query = |i: usize| {
        let mut q = format!("{i} ");
        while q.len() + CHUNK.len() <= 60_000 {
            q.push_str(CHUNK);
        }
        q
    };
    let cost = (0..3)
        .map(|i| {
            let q = query(usize::MAX - i);
            let start = Instant::now();
            std::hint::black_box(matcher.segment(&q));
            start.elapsed()
        })
        .min()
        .expect("three timings");
    let n = (busy.as_secs_f64() / cost.as_secs_f64().max(1e-6)).ceil() as usize;
    (0..n.max(4)).map(query).collect()
}
