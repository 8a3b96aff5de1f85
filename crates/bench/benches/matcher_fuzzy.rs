//! Criterion micro-benchmark for the matcher's serving paths: exact
//! segmentation vs fuzzy (n-gram candidate generation + edit-distance
//! verification) vs batched multi-threaded matching.
//!
//! Unlike the general `microbench` suite this binary has a custom
//! `main` so it can emit a machine-readable perf report,
//! `BENCH_matcher.json` at the workspace root (override the path with
//! the `BENCH_MATCHER_JSON` env var) — the start of the matcher's perf
//! trajectory across PRs.
//!
//! Run: `cargo bench -p websyn-bench --bench matcher_fuzzy`
//! Smoke (CI): `cargo bench -p websyn-bench --bench matcher_fuzzy -- --test`

use criterion::{black_box, Criterion};
use websyn_bench::{
    fuzzy_oracle_eval, misspelled_camera_recovery, movies_pipeline, small_pipeline,
    synth_product_dictionary,
};
use websyn_core::{matcher_telemetry, EntityMatcher, FuzzyConfig, MinerConfig, SynonymMiner};
use websyn_text::double_middle_char;

/// Queries per batch; every benchmark below walks one full batch per
/// iteration, so throughput is `BATCH_SIZE / seconds_per_iter`.
const BATCH_SIZE: usize = 256;

/// Builds `BATCH_SIZE` queries by cycling over the dictionary-bearing
/// `templates`, embedding each in serving-style intent text.
fn batch(templates: &[String]) -> Vec<String> {
    (0..BATCH_SIZE)
        .map(|i| {
            let t = &templates[i % templates.len()];
            match i % 3 {
                0 => format!("{t} near san francisco"),
                1 => format!("watch {t} online tonight"),
                _ => format!("best price for {t}"),
            }
        })
        .collect()
}

/// Capacity of the benchmarked window cache — matches the serving
/// default (`websyn_serve::cluster::load_dict`).
const WINDOW_CACHE_CAPACITY: usize = 65_536;

/// Counted work of the first-sight misspelled path: every window of
/// the batch goes through full candidate generation and verification
/// (no window cache, no batch memo), so these counts depend only on
/// the code and the inputs, not on the machine or on timing.
struct CountedWork {
    /// Windows that ran full generation + verification.
    full_resolves: u64,
    /// Candidates that reached verification.
    candidates: u64,
}

impl CountedWork {
    fn candidates_per_resolve(&self) -> f64 {
        self.candidates as f64 / self.full_resolves.max(1) as f64
    }
}

/// Segments `queries` once with `matcher` and reads the matcher's
/// counters around the pass. The counters are process-global, so the
/// pass runs on this thread while nothing else in the process
/// resolves windows.
fn count_work(matcher: &EntityMatcher, queries: &[String]) -> CountedWork {
    let before = matcher_telemetry();
    for q in queries {
        black_box(matcher.segment(black_box(q)));
    }
    let after = matcher_telemetry();
    CountedWork {
        full_resolves: after.ladder_full_resolves - before.ladder_full_resolves,
        candidates: after.candidates_proposed - before.candidates_proposed,
    }
}

fn bench_matcher_modes(c: &mut Criterion) -> ((u64, u64), CountedWork) {
    let p = small_pipeline(40, 30_000, 13);
    let result = SynonymMiner::new(MinerConfig::with_thresholds(3, 0.1)).mine(&p.ctx);
    let exact = EntityMatcher::from_mining(&result, &p.ctx);
    // The serving configuration: fuzzy chain plus the cross-batch
    // window cache (criterion's warmup fills it, so the steady-state
    // rows below measure the warm serving path). The `_nocache` row
    // keeps the first-sight cost visible.
    let fuzzy_nocache = exact.clone().with_fuzzy(FuzzyConfig::default());
    let fuzzy = fuzzy_nocache
        .clone()
        .with_window_cache(WINDOW_CACHE_CAPACITY);

    // Clean mentions: every canonical surface; misspelled mentions:
    // the same surfaces, one deterministic edit each.
    let clean = batch(&p.ctx.u_set);
    let misspelled = batch(
        &p.ctx
            .u_set
            .iter()
            .map(|s| double_middle_char(s))
            .collect::<Vec<String>>(),
    );

    let counted = count_work(&fuzzy_nocache, &misspelled);

    let mut g = c.benchmark_group("matcher");
    g.bench_function("exact_segment_clean", |b| {
        b.iter(|| {
            for q in &clean {
                black_box(exact.segment(black_box(q)));
            }
        })
    });
    g.bench_function("fuzzy_segment_clean", |b| {
        b.iter(|| {
            for q in &clean {
                black_box(fuzzy.segment(black_box(q)));
            }
        })
    });
    g.bench_function("exact_segment_misspelled", |b| {
        b.iter(|| {
            for q in &misspelled {
                black_box(exact.segment(black_box(q)));
            }
        })
    });
    g.bench_function("fuzzy_segment_misspelled", |b| {
        b.iter(|| {
            for q in &misspelled {
                black_box(fuzzy.segment(black_box(q)));
            }
        })
    });
    g.bench_function("fuzzy_segment_misspelled_nocache", |b| {
        b.iter(|| {
            for q in &misspelled {
                black_box(fuzzy_nocache.segment(black_box(q)));
            }
        })
    });
    for shards in [1usize, 2, 8] {
        g.bench_function(format!("batch_misspelled_{shards}_shards").as_str(), |b| {
            b.iter(|| black_box(fuzzy.match_batch(black_box(&misspelled), shards)))
        });
    }
    g.finish();
    let stats = fuzzy.window_cache().expect("cache attached").stats();
    ((stats.hits, stats.misses), counted)
}

/// Dictionary sizes of the exact-segmentation sweep. Keep in sync with
/// the `bench_check` schema gate.
const SWEEP_SIZES: [usize; 3] = [1_000, 10_000, 50_000];

/// Exact segmentation throughput as a function of dictionary size.
fn bench_dictionary_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("matcher");
    for n in SWEEP_SIZES {
        let dictionary = synth_product_dictionary(n);
        let surfaces: Vec<String> = dictionary
            .iter()
            .step_by((n / 64).max(1))
            .map(|(s, _)| s.clone())
            .collect();
        let matcher = EntityMatcher::from_pairs(dictionary);
        assert_eq!(matcher.len(), n, "sweep dictionary must be collision-free");
        let queries = batch(&surfaces);
        g.bench_function(format!("exact_segment_dict{n}").as_str(), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(matcher.segment(black_box(q)));
                }
            })
        });
    }
    g.finish();
}

/// The recall half of the perf artifact: fuzzy throughput may only
/// count if recall holds, so the same report carries both and the
/// `bench_check` gate refuses either regressing.
struct RecallReport {
    /// Misspelled-camera mentions the exact matcher missed (the e2e
    /// eval of `tests/end_to_end.rs`, regenerated here so CI gates on
    /// the number, not just on "some recovered").
    camera_total: usize,
    /// How many of those the fuzzy path recovered.
    camera_recovered: usize,
    /// Ablation-6 recall of the default source chain on the D1 oracle
    /// eval set (unmined oracle synonyms + misspelled canonicals).
    ablation6_default_recall: f64,
    /// Ablation-6 recall with the abbreviation source enabled.
    ablation6_abbrev_recall: f64,
}

/// Reproduces the misspelled-camera e2e eval and the ablation-6 fuzzy
/// recall eval through the shared fixtures in `websyn_bench`
/// (`misspelled_camera_recovery`, `fuzzy_oracle_eval` — the same code
/// the `ablation` binary prints the README table from), so the
/// committed artifact records recall next to throughput without a
/// second hand-maintained copy of either eval.
fn measure_recall() -> RecallReport {
    let (camera_recovered, camera_total) = misspelled_camera_recovery();
    let oracle = fuzzy_oracle_eval(&movies_pipeline());
    RecallReport {
        camera_total,
        camera_recovered,
        ablation6_default_recall: oracle.recall(FuzzyConfig::default()),
        ablation6_abbrev_recall: oracle.recall(FuzzyConfig {
            abbrev: true,
            ..FuzzyConfig::default()
        }),
    }
}

/// Serializes the recorded results as the committed perf artifact.
fn json_report(
    c: &Criterion,
    recall: &RecallReport,
    window: (u64, u64),
    counted: &CountedWork,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"matcher\",\n  \"mode\": \"{}\",\n  \"batch_size\": {BATCH_SIZE},\n",
        if c.is_smoke() { "smoke" } else { "full" }
    ));
    out.push_str(&format!(
        "  \"window_cache\": {{\"hits\": {}, \"misses\": {}}},\n",
        window.0, window.1,
    ));
    out.push_str(&format!(
        "  \"counted_work\": {{\"misspelled_nocache_full_resolves\": {}, \"misspelled_nocache_candidates_per_resolve\": {:.4}}},\n",
        counted.full_resolves,
        counted.candidates_per_resolve(),
    ));
    out.push_str(&format!(
        "  \"recall\": {{\"misspelled_camera_recovered\": {}, \"misspelled_camera_total\": {}, \"ablation6_default_recall\": {:.3}, \"ablation6_abbrev_recall\": {:.3}}},\n",
        recall.camera_recovered,
        recall.camera_total,
        recall.ablation6_default_recall,
        recall.ablation6_abbrev_recall,
    ));
    out.push_str("  \"results\": [\n");
    let results = c.results();
    for (i, r) in results.iter().enumerate() {
        let qps = BATCH_SIZE as f64 * 1e9 / r.ns_per_iter;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}, \"queries_per_sec\": {:.0}}}{}\n",
            r.name,
            r.ns_per_iter,
            r.iters,
            qps,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    let (window, counted) = bench_matcher_modes(&mut c);
    println!(
        "counted work, misspelled batch without caches: {} full resolves, {:.4} candidates reaching verification per resolve",
        counted.full_resolves,
        counted.candidates_per_resolve(),
    );
    bench_dictionary_sweep(&mut c);
    println!("\nmeasuring fuzzy recall (misspelled-camera + ablation-6)…");
    let recall = measure_recall();
    println!(
        "misspelled-camera {}/{}, ablation-6 recall default {:.3} / abbrev {:.3}",
        recall.camera_recovered,
        recall.camera_total,
        recall.ablation6_default_recall,
        recall.ablation6_abbrev_recall,
    );
    let path = std::env::var("BENCH_MATCHER_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matcher.json").to_string()
    });
    let report = json_report(&c, &recall, window, &counted);
    std::fs::write(&path, &report).expect("write BENCH_matcher.json");
    println!("\nwrote {path}");
}
