//! Schema, recall and perf-regression gate for the committed matcher
//! perf artifact.
//!
//! `BENCH_matcher.json` (matcher microbenchmark) is the matcher's perf
//! trajectory across PRs; CI regenerates it in smoke mode and this
//! binary fails the job if a schema or key set regresses — a rename, a
//! dropped benchmark, or a malformed emitter would otherwise silently
//! break the cross-PR comparison. (The serving path is measured by the
//! repository benchmark, `perfbench/`, and gated by the
//! `websyn-serve` integration tests.)
//!
//! Beyond the schema, the artifact is gated four ways:
//!
//! - **recall** — the misspelled-camera e2e eval must stay perfect
//!   (every exact-miss recovered, eval set non-trivial) and the
//!   ablation-6 abbrev-chain recall must hold the committed ≥ 0.60
//!   floor: a faster candidate generator that drops recall fails CI.
//! - **relative throughput floors** — the fuzzy/exact qps *ratio* is
//!   hardware-independent, so loose floors gate in every mode (the
//!   pre-signature-index path was ~42× slower than exact and would
//!   fail). Full-mode artifacts additionally gate the *warm* serving
//!   shape: fuzzy within 7× of exact (the committed run is ~4.9× with
//!   the bit-parallel kernel + window cache), and the 8-shard batch
//!   row at ≥ 0.5× single-shard qps (the pre-clamp artifact had
//!   inverted shard scaling at ~0.3× and would fail).
//! - **window-cache counters** — the serving-path benches run with the
//!   cross-batch window cache attached, so the artifact must record
//!   cache traffic, and committed full runs must show a warm cache
//!   (hits > misses after criterion's warmup fills it).
//! - **absolute floors (full mode only)** — committed full runs come
//!   from a dev machine, so generous absolute floors (≥ 3× headroom)
//!   catch catastrophic regressions without tripping on CI hardware.
//! - **counted work (every mode)** — the candidates that reach
//!   verification per full window resolve, counted over one pass of
//!   the misspelled batch without caches. The count depends only on
//!   the code and the inputs, so it gates tightly on any hardware: a
//!   ceiling 10% above the committed measurement.
//!
//! Run: `cargo run --release -p websyn-bench --bin bench_check`
//! (reads the workspace-root `BENCH_matcher.json`, or the path in the
//! `BENCH_MATCHER_JSON` env var).
//!
//! The checker is deliberately hand-rolled and line-oriented — the
//! emitters write one result (or one scalar) per line — because the
//! workspace has no JSON parser dependency (see vendor/README.md).

use std::process::ExitCode;

/// Benchmark names that must be present, in any order. Keep in sync
/// with `benches/matcher_fuzzy.rs` (modes + dictionary sweep).
const REQUIRED_BENCHES: [&str; 11] = [
    "matcher/exact_segment_clean",
    "matcher/fuzzy_segment_clean",
    "matcher/exact_segment_misspelled",
    "matcher/fuzzy_segment_misspelled",
    "matcher/fuzzy_segment_misspelled_nocache",
    "matcher/batch_misspelled_1_shards",
    "matcher/batch_misspelled_2_shards",
    "matcher/batch_misspelled_8_shards",
    "matcher/exact_segment_dict1000",
    "matcher/exact_segment_dict10000",
    "matcher/exact_segment_dict50000",
];

/// Fields every result row must carry.
const RESULT_FIELDS: [&str; 4] = [
    "\"name\"",
    "\"ns_per_iter\"",
    "\"iters\"",
    "\"queries_per_sec\"",
];

/// Extracts the string value of `"key": "value"` on `line`, if any.
fn string_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Extracts the numeric value of `"key": <number>` on `line`, if any.
fn number_value(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .map_or(line.len(), |p| p + start);
    line[start..end].parse().ok()
}

/// Relative throughput floors: `qps(numerator) / qps(denominator)`
/// must stay at or above the floor. Ratios cancel machine speed, so
/// they gate in smoke mode on CI hardware too. Floors are generous
/// (≥ 2× headroom against the committed run) to tolerate noise.
const RATIO_FLOORS: [(&str, &str, f64); 2] = [
    (
        "matcher/batch_misspelled_1_shards",
        "matcher/exact_segment_misspelled",
        0.035,
    ),
    (
        "matcher/fuzzy_segment_misspelled",
        "matcher/exact_segment_misspelled",
        0.015,
    ),
];

/// Full-mode-only ratio floors, tighter than [`RATIO_FLOORS`]: the
/// committed full run measures the warm serving configuration
/// (bit-parallel verification + cross-batch window cache), so these
/// gate the steady-state shape of the curve rather than just "fuzzy is
/// not catastrophically slow".
const FULL_RATIO_FLOORS: [(&str, &str, f64, &str); 2] = [
    // The headline gap: warm fuzzy segmentation within 7× of exact
    // (the committed run is ~4.9×; the pre-kernel/pre-cache path was
    // ~14× and would fail).
    (
        "matcher/fuzzy_segment_misspelled",
        "matcher/exact_segment_misspelled",
        1.0 / 7.0,
        "the warm fuzzy/exact throughput gap regressed past 7×",
    ),
    // Shard-scaling sanity: asking for 8 shards on a 256-query batch
    // must not tank throughput. With the min-chunk clamp the 8-shard
    // row holds ~0.8× of single-shard qps (spawn+join overhead is real
    // but bounded); the pre-clamp artifact sat at ~0.3× and would
    // fail.
    (
        "matcher/batch_misspelled_8_shards",
        "matcher/batch_misspelled_1_shards",
        0.5,
        "shard scaling inverted: oversharded batches fell below half of single-shard throughput",
    ),
];

/// Absolute qps floors, enforced only on `"mode": "full"` artifacts
/// (committed from a dev machine); generous ≥ 3× headroom. The fuzzy
/// floor is the warm serving path — window cache attached, filled by
/// criterion's warmup — which the committed run clears at ~600k qps.
const ABSOLUTE_FLOORS: [(&str, f64); 4] = [
    ("matcher/exact_segment_misspelled", 1_000_000.0),
    ("matcher/batch_misspelled_1_shards", 70_000.0),
    ("matcher/fuzzy_segment_misspelled", 200_000.0),
    ("matcher/fuzzy_segment_misspelled_nocache", 30_000.0),
];

/// Candidates reaching verification per full resolve on the
/// misspelled no-cache pass, as measured when the character-count
/// bound landed: 0.2235 over 3,221 full resolves (without the bound
/// the same pass verified 2.1021 per resolve).
const CANDIDATES_PER_RESOLVE_MEASURED: f64 = 0.2235;

/// The counted-work ceiling: the measurement plus 10%.
const CANDIDATES_PER_RESOLVE_CEILING: f64 = CANDIDATES_PER_RESOLVE_MEASURED * 1.10;

/// Validates the `"counted_work"` line: the pass must have resolved
/// windows, and the candidates reaching verification per resolve must
/// stay under [`CANDIDATES_PER_RESOLVE_CEILING`].
fn check_counted_work(content: &str) -> Result<(), String> {
    let at = content
        .find("\"counted_work\":")
        .ok_or("missing top-level key \"counted_work\"")?;
    let line = content[at..].lines().next().unwrap_or("");
    let resolves = number_value(line, "misspelled_nocache_full_resolves")
        .ok_or("unreadable counted_work \"misspelled_nocache_full_resolves\"")?;
    let per_resolve = number_value(line, "misspelled_nocache_candidates_per_resolve")
        .ok_or("unreadable counted_work \"misspelled_nocache_candidates_per_resolve\"")?;
    if resolves < 1.0 {
        return Err("counted_work pass resolved no window: the gate would be vacuous".into());
    }
    if !(0.0..=CANDIDATES_PER_RESOLVE_CEILING).contains(&per_resolve) {
        return Err(format!(
            "COUNTED-WORK REGRESSION: {per_resolve} candidates reach verification per full \
             resolve, ceiling {CANDIDATES_PER_RESOLVE_CEILING:.4} (measured \
             {CANDIDATES_PER_RESOLVE_MEASURED} + 10%)"
        ));
    }
    Ok(())
}

/// Validates the `"window_cache"` counter line: the serving-path
/// benchmarks run with the cross-batch window cache attached, so the
/// artifact must show cache traffic — and in full mode a *warm* cache
/// (criterion's warmup fills it, so measured iterations should hit far
/// more often than they miss). A refactor that silently detaches the
/// cache from the bench flatlines these counters and fails here.
fn check_window_cache(content: &str, mode: &str) -> Result<(), String> {
    let at = content
        .find("\"window_cache\":")
        .ok_or("missing top-level key \"window_cache\"")?;
    let line = content[at..].lines().next().unwrap_or("");
    let hits = number_value(line, "hits").ok_or("unreadable window_cache \"hits\"")?;
    let misses = number_value(line, "misses").ok_or("unreadable window_cache \"misses\"")?;
    if hits < 0.0 || misses < 0.0 {
        return Err(format!(
            "window_cache counters must be non-negative, got hits={hits} misses={misses}"
        ));
    }
    if hits + misses < 1.0 {
        return Err(
            "window_cache counters flat: the bench no longer exercises the window cache".into(),
        );
    }
    if mode == "full" && hits <= misses {
        return Err(format!(
            "window_cache ran cold in a full-mode artifact (hits={hits} ≤ misses={misses}): \
             warmup should leave the measured iterations mostly hitting"
        ));
    }
    Ok(())
}

/// Validates the recall section: the misspelled-camera eval must be
/// non-trivial and fully recovered, and the ablation-6 abbrev recall
/// must hold its committed floor.
fn check_recall(content: &str) -> Result<(), String> {
    let number = |key: &str| -> Result<f64, String> {
        number_value(content, key).ok_or_else(|| format!("missing recall key \"{key}\""))
    };
    let recovered = number("misspelled_camera_recovered")?;
    let total = number("misspelled_camera_total")?;
    if total < 10.0 {
        return Err(format!(
            "misspelled-camera eval shrank to {total} queries (< 10): eval no longer meaningful"
        ));
    }
    if recovered != total {
        return Err(format!(
            "misspelled-camera recall regressed: {recovered}/{total} recovered"
        ));
    }
    let default_recall = number("ablation6_default_recall")?;
    if !(default_recall > 0.0 && default_recall <= 1.0) {
        return Err(format!(
            "ablation6_default_recall out of range: {default_recall}"
        ));
    }
    let abbrev_recall = number("ablation6_abbrev_recall")?;
    if abbrev_recall < 0.60 {
        return Err(format!(
            "ablation-6 abbrev recall regressed below 0.60: {abbrev_recall}"
        ));
    }
    if abbrev_recall > 1.0 {
        return Err(format!(
            "ablation6_abbrev_recall out of range: {abbrev_recall}"
        ));
    }
    Ok(())
}

/// Validates the throughput floors over the parsed `(name, qps)` rows.
fn check_floors(mode: &str, rows: &[(String, f64)]) -> Result<(), String> {
    let qps = |name: &str| -> Result<f64, String> {
        rows.iter()
            .find(|(n, _)| n == name)
            .map(|&(_, q)| q)
            .ok_or_else(|| format!("missing benchmark {name}"))
    };
    for (num, den, floor) in RATIO_FLOORS {
        let ratio = qps(num)? / qps(den)?;
        if ratio < floor {
            return Err(format!(
                "PERF REGRESSION: {num} / {den} = {ratio:.4}, floor {floor} — \
                 the fuzzy/exact throughput gap regressed"
            ));
        }
    }
    if mode == "full" {
        for (num, den, floor, what) in FULL_RATIO_FLOORS {
            let ratio = qps(num)? / qps(den)?;
            if ratio < floor {
                return Err(format!(
                    "PERF REGRESSION: {num} / {den} = {ratio:.4}, floor {floor:.4} — {what}"
                ));
            }
        }
        for (name, floor) in ABSOLUTE_FLOORS {
            let q = qps(name)?;
            if q < floor {
                return Err(format!(
                    "PERF REGRESSION: {name} at {q:.0} qps, committed floor {floor:.0}"
                ));
            }
        }
    }
    Ok(())
}

fn check(content: &str) -> Result<usize, String> {
    // Top-level keys.
    for key in [
        "\"bench\": \"matcher\"",
        "\"mode\":",
        "\"batch_size\":",
        "\"recall\":",
        "\"results\": [",
    ] {
        if !content.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    let mode = string_value(content, "mode").ok_or("unreadable \"mode\"")?;
    if !matches!(mode, "full" | "smoke") {
        return Err(format!("mode must be full|smoke, got {mode:?}"));
    }
    check_window_cache(content, mode)?;
    check_counted_work(content)?;
    check_recall(content)?;

    // Result rows: one per line, every field present and sane.
    let mut seen: Vec<(String, f64)> = Vec::new();
    for line in content.lines().filter(|l| l.contains("\"name\"")) {
        for field in RESULT_FIELDS {
            if !line.contains(field) {
                return Err(format!("result row missing {field}: {line}"));
            }
        }
        let name = string_value(line, "name").ok_or("unreadable result name")?;
        let qps = number_value(line, "queries_per_sec")
            .ok_or_else(|| format!("unreadable queries_per_sec for {name}"))?;
        if qps <= 0.0 {
            return Err(format!(
                "{name}: queries_per_sec must be positive, got {qps}"
            ));
        }
        if number_value(line, "ns_per_iter").is_none_or(|ns| ns <= 0.0) {
            return Err(format!("{name}: ns_per_iter must be positive"));
        }
        if seen.iter().any(|(s, _)| s == name) {
            return Err(format!("duplicate result name {name}"));
        }
        seen.push((name.to_string(), qps));
    }
    for required in REQUIRED_BENCHES {
        if !seen.iter().any(|(s, _)| s == required) {
            return Err(format!("missing benchmark {required}"));
        }
    }
    check_floors(mode, &seen)?;
    Ok(seen.len())
}

fn main() -> ExitCode {
    let path = std::env::var("BENCH_MATCHER_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matcher.json").to_string()
    });
    match std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|c| check(&c))
    {
        Ok(n) => {
            println!("bench_check: {path} ok ({n} results, all required keys present)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_check: {path}: SCHEMA REGRESSION: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> String {
        let rows: Vec<String> = REQUIRED_BENCHES
            .iter()
            .map(|name| {
                format!(
                    "    {{\"name\": \"{name}\", \"ns_per_iter\": 100.0, \"iters\": 3, \"queries_per_sec\": 1000}},"
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"matcher\",\n  \"mode\": \"smoke\",\n  \"batch_size\": 256,\n  \"window_cache\": {{\"hits\": 900, \"misses\": 120}},\n  \"counted_work\": {{\"misspelled_nocache_full_resolves\": 3221, \"misspelled_nocache_candidates_per_resolve\": 0.2235}},\n  \"recall\": {{\"misspelled_camera_recovered\": 18, \"misspelled_camera_total\": 18, \"ablation6_default_recall\": 0.338, \"ablation6_abbrev_recall\": 0.648}},\n  \"results\": [\n{}\n  ]\n}}\n",
            rows.join("\n")
        )
    }

    #[test]
    fn accepts_the_emitted_schema() {
        assert_eq!(check(&valid()), Ok(REQUIRED_BENCHES.len()));
    }

    #[test]
    fn recall_gate_rejects_regressions() {
        let lost = valid().replace(
            "\"misspelled_camera_recovered\": 18",
            "\"misspelled_camera_recovered\": 17",
        );
        assert!(check(&lost).unwrap_err().contains("recall regressed"));
        let shrunk = valid()
            .replace(
                "\"misspelled_camera_recovered\": 18",
                "\"misspelled_camera_recovered\": 4",
            )
            .replace(
                "\"misspelled_camera_total\": 18",
                "\"misspelled_camera_total\": 4",
            );
        assert!(check(&shrunk).unwrap_err().contains("shrank"));
        let abbrev = valid().replace(
            "\"ablation6_abbrev_recall\": 0.648",
            "\"ablation6_abbrev_recall\": 0.55",
        );
        assert!(check(&abbrev).unwrap_err().contains("abbrev recall"));
        let missing = valid().replace("  \"recall\": {\"misspelled_camera_recovered\": 18, \"misspelled_camera_total\": 18, \"ablation6_default_recall\": 0.338, \"ablation6_abbrev_recall\": 0.648},\n", "");
        assert!(check(&missing).unwrap_err().contains("recall"));
    }

    #[test]
    fn ratio_floor_rejects_fuzzy_exact_gap_regression() {
        // Fuzzy batch at 1/1000 of exact: the pre-signature-index gap
        // was ~1/42 and must never come back.
        let slow = valid().replace(
            "{\"name\": \"matcher/batch_misspelled_1_shards\", \"ns_per_iter\": 100.0, \"iters\": 3, \"queries_per_sec\": 1000}",
            "{\"name\": \"matcher/batch_misspelled_1_shards\", \"ns_per_iter\": 100.0, \"iters\": 3, \"queries_per_sec\": 1}",
        );
        assert!(check(&slow).unwrap_err().contains("PERF REGRESSION"));
    }

    #[test]
    fn absolute_floors_gate_full_mode_only() {
        // 1000 qps everywhere fails absolute floors in full mode…
        let full = valid().replace("\"mode\": \"smoke\"", "\"mode\": \"full\"");
        assert!(check(&full).unwrap_err().contains("PERF REGRESSION"));
        // …but passes in smoke mode (ratios alone apply there).
        assert!(check(&valid()).is_ok());
    }

    #[test]
    fn window_cache_gate_requires_traffic_and_full_mode_warmth() {
        // Missing counters fail in any mode.
        let missing = valid().replace(
            "  \"window_cache\": {\"hits\": 900, \"misses\": 120},\n",
            "",
        );
        assert!(check(&missing).unwrap_err().contains("window_cache"));
        // Flat counters mean the bench detached the cache.
        let flat = valid().replace(
            "\"window_cache\": {\"hits\": 900, \"misses\": 120}",
            "\"window_cache\": {\"hits\": 0, \"misses\": 0}",
        );
        assert!(check(&flat).unwrap_err().contains("flat"));
        // A cold cache (more misses than hits) is fine in smoke mode
        // but a regression in a committed full run.
        let cold = valid().replace(
            "\"window_cache\": {\"hits\": 900, \"misses\": 120}",
            "\"window_cache\": {\"hits\": 3, \"misses\": 500}",
        );
        assert!(check(&cold).is_ok());
        let cold_full = cold.replace("\"mode\": \"smoke\"", "\"mode\": \"full\"");
        assert!(check(&cold_full).unwrap_err().contains("cold"));
    }

    #[test]
    fn counted_work_gate_holds_the_ceiling_in_every_mode() {
        let line = "\"misspelled_nocache_candidates_per_resolve\": 0.2235";
        // Within 10% of the measurement passes…
        let within = valid().replace(
            line,
            "\"misspelled_nocache_candidates_per_resolve\": 0.2450",
        );
        assert!(check(&within).is_ok());
        // …30% more work fails, in smoke mode too.
        let more = valid().replace(
            line,
            "\"misspelled_nocache_candidates_per_resolve\": 0.2906",
        );
        assert!(check(&more)
            .unwrap_err()
            .contains("COUNTED-WORK REGRESSION"));
        // An empty pass, or a missing line, fails.
        let empty = valid().replace(
            "\"misspelled_nocache_full_resolves\": 3221",
            "\"misspelled_nocache_full_resolves\": 0",
        );
        assert!(check(&empty).unwrap_err().contains("vacuous"));
        let missing = valid().replace(
            "  \"counted_work\": {\"misspelled_nocache_full_resolves\": 3221, \"misspelled_nocache_candidates_per_resolve\": 0.2235},\n",
            "",
        );
        assert!(check(&missing).unwrap_err().contains("counted_work"));
    }

    #[test]
    fn full_ratio_floors_gate_the_warm_gap_and_shard_scaling() {
        // Make every full-mode absolute floor pass so the ratio gates
        // are what's under test.
        let fast = valid().replace("\"queries_per_sec\": 1000", "\"queries_per_sec\": 5000000");
        let full = fast.replace("\"mode\": \"smoke\"", "\"mode\": \"full\"");
        assert!(check(&full).is_ok());
        // Warm fuzzy at 10× slower than exact: passes the loose
        // all-mode ratio (1/66) but fails the full-mode 7× gate.
        let gap = full.replace(
            "{\"name\": \"matcher/fuzzy_segment_misspelled\", \"ns_per_iter\": 100.0, \"iters\": 3, \"queries_per_sec\": 5000000}",
            "{\"name\": \"matcher/fuzzy_segment_misspelled\", \"ns_per_iter\": 100.0, \"iters\": 3, \"queries_per_sec\": 500000}",
        );
        let err = check(&gap).unwrap_err();
        assert!(
            err.contains("PERF REGRESSION") && err.contains("7×"),
            "{err}"
        );
        // …but the same shape is tolerated in smoke mode (CI hardware).
        assert!(check(&gap.replace("\"mode\": \"full\"", "\"mode\": \"smoke\"")).is_ok());
        // Inverted shard scaling: the 8-shard row at a third of
        // single-shard throughput (the pre-clamp committed artifact)
        // fails full mode.
        let inverted = full.replace(
            "{\"name\": \"matcher/batch_misspelled_8_shards\", \"ns_per_iter\": 100.0, \"iters\": 3, \"queries_per_sec\": 5000000}",
            "{\"name\": \"matcher/batch_misspelled_8_shards\", \"ns_per_iter\": 100.0, \"iters\": 3, \"queries_per_sec\": 1600000}",
        );
        let err = check(&inverted).unwrap_err();
        assert!(
            err.contains("PERF REGRESSION") && err.contains("shard scaling inverted"),
            "{err}"
        );
    }

    #[test]
    fn rejects_missing_bench_and_bad_values() {
        let missing = valid().replace("exact_segment_dict50000", "exact_segment_dict999");
        assert!(check(&missing).unwrap_err().contains("missing benchmark"));
        let zero = valid().replace("\"queries_per_sec\": 1000", "\"queries_per_sec\": 0");
        assert!(check(&zero).unwrap_err().contains("positive"));
        let dropped = valid().replace("\"iters\": 3, ", "");
        assert!(check(&dropped).unwrap_err().contains("\"iters\""));
        assert!(check("{}").unwrap_err().contains("missing top-level"));
        let badmode = valid().replace("\"mode\": \"smoke\"", "\"mode\": \"partial\"");
        assert!(check(&badmode).unwrap_err().contains("mode"));
    }
}
