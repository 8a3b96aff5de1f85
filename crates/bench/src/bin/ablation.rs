//! Ablations beyond the paper (DESIGN.md §5):
//!
//! 1. **Selector ablation** — IPC-only vs ICR-only vs both, with the
//!    ground-truth class breakdown showing *which* error class each
//!    signal removes (the paper argues ICR kills hypernyms — here that
//!    is measured directly).
//! 2. **Surrogate depth k** — precision/coverage as k ∈ {1,3,5,10,20}.
//! 3. **Click model robustness** — position-biased vs cascade.
//! 4. **String-matching comparators** — the substring and trigram
//!    baselines the paper's introduction dismisses, quantified.
//!
//! Run: `cargo run -p websyn-bench --bin ablation --release`

use websyn_baselines::{ClusterBaseline, EditDistanceBaseline, SubstringBaseline};
use websyn_bench::{
    build_pipeline, fuzzy_oracle_eval, print_table_header, sweep, to_baseline_output, MOVIES_EVENTS,
};
use websyn_click::{ClickModel, SessionConfig};
use websyn_core::{evaluate, FuzzyConfig, MinerConfig, SynonymMiner};
use websyn_synth::WorldConfig;

fn main() {
    eprintln!("building D1 (movies) pipeline ...");
    let pipeline = websyn_bench::movies_pipeline();

    // ----- 1. selector ablation -------------------------------------
    println!("\n## Ablation 1 — what each selection signal removes (D1)\n");
    let points = [
        (1u32, 0.0f64), // no selection (candidates as-is)
        (4, 0.0),       // IPC only
        (1, 0.1),       // ICR only
        (4, 0.1),       // both (the paper's Us)
    ];
    let labels = [
        "none (β=1, γ=0)",
        "IPC only (β=4)",
        "ICR only (γ=0.1)",
        "Us (β=4, γ=0.1)",
    ];
    let (_, results) = sweep(&pipeline, 10, &points);
    print_table_header(&[
        "selector",
        "precision",
        "synonyms",
        "true syn",
        "hypernym leaks",
        "hyponym leaks",
        "related leaks",
        "unrelated",
    ]);
    for (label, p) in labels.iter().zip(&results) {
        let b = p.report.breakdown;
        println!(
            "| {} | {:.3} | {} | {} | {} | {} | {} | {} |",
            label,
            p.report.precision,
            p.report.n_synonyms,
            b.synonym,
            b.hypernym,
            b.hyponym,
            b.related,
            b.unrelated,
        );
    }

    // ----- 2. surrogate depth ----------------------------------------
    println!("\n## Ablation 2 — surrogate depth k (D1, β=4, γ=0.1)\n");
    print_table_header(&[
        "k",
        "precision",
        "weighted precision",
        "coverage increase",
        "synonyms",
        "hits",
    ]);
    for k in [1usize, 3, 5, 10, 20] {
        let (_, res) = sweep(&pipeline, k, &[(4, 0.1)]);
        let r = &res[0].report;
        println!(
            "| {} | {:.3} | {:.3} | {:.0}% | {} | {} |",
            k,
            r.precision,
            r.weighted_precision,
            r.coverage_increase() * 100.0,
            r.n_synonyms,
            r.hits,
        );
    }

    // ----- 3. click model robustness ----------------------------------
    println!("\n## Ablation 3 — click model robustness (D1, β=4, γ=0.1)\n");
    print_table_header(&[
        "click model",
        "precision",
        "synonyms",
        "hits",
        "clicks in log",
    ]);
    for (label, model) in [
        ("position-biased", ClickModel::default()),
        ("cascade", ClickModel::cascade()),
    ] {
        let p = build_pipeline(
            &WorldConfig::movies_2008(),
            MOVIES_EVENTS,
            SessionConfig {
                model,
                ..Default::default()
            },
        );
        let result = SynonymMiner::new(MinerConfig::with_thresholds(4, 0.1)).mine(&p.ctx);
        let report = evaluate(&result, &p.ctx, &p.world);
        println!(
            "| {} | {:.3} | {} | {} | {} |",
            label, report.precision, report.n_synonyms, report.hits, p.stats.clicks,
        );
    }

    // ----- 5. surrogate source: Search Data vs Click Data --------------
    // The paper's Section III-A argues click-based surrogates fail
    // because canonical data values are rarely issued as queries. The
    // effect is mild on movies and severe on cameras.
    println!("\n## Ablation 5 — surrogate source (β=4, γ=0.1)\n");
    print_table_header(&[
        "dataset",
        "source",
        "hits",
        "hit ratio",
        "synonyms",
        "precision",
    ]);
    let cameras = build_pipeline(
        &WorldConfig::small_cameras(300, 882),
        150_000,
        SessionConfig::default(),
    );
    for (dataset, p) in [("movies", &pipeline), ("cameras(300)", &cameras)] {
        for source in [
            websyn_core::SurrogateSource::Search,
            websyn_core::SurrogateSource::Clicks,
        ] {
            let miner = SynonymMiner::new(MinerConfig {
                surrogate_source: source,
                ..MinerConfig::with_thresholds(4, 0.1)
            });
            let result = miner.mine(&p.ctx);
            let report = evaluate(&result, &p.ctx, &p.world);
            println!(
                "| {} | {:?} | {} | {:.1}% | {} | {:.3} |",
                dataset,
                source,
                report.hits,
                report.hit_ratio * 100.0,
                report.n_synonyms,
                report.precision,
            );
        }
    }

    // ----- 4. string-matching comparators -----------------------------
    println!("\n## Ablation 4 — string-matching comparators (D1)\n");
    print_table_header(&[
        "method",
        "hits",
        "hit ratio",
        "synonyms",
        "expansion",
        "precision",
    ]);
    let us = to_baseline_output(
        "Us",
        &SynonymMiner::new(MinerConfig::with_thresholds(4, 0.1)).mine(&pipeline.ctx),
    );
    let substring = SubstringBaseline::default().run(&pipeline.ctx.u_set, &pipeline.ctx.log);
    let trigram = EditDistanceBaseline::default().run(&pipeline.ctx.u_set, &pipeline.ctx.log);
    let cluster =
        ClusterBaseline::default().run(&pipeline.ctx.u_set, &pipeline.ctx.log, &pipeline.ctx.graph);
    for out in [&us, &substring, &trigram, &cluster] {
        println!(
            "| {} | {} | {:.1}% | {} | {:.0}% | {:.3} |",
            out.name,
            out.hits(),
            out.hit_ratio() * 100.0,
            out.total_synonyms(),
            out.expansion_ratio() * 100.0,
            out.precision(&pipeline.world),
        );
    }

    // ----- 6. fuzzy candidate sources vs the synth oracle -------------
    // The matcher's optional abbreviation source (`FuzzyConfig::abbrev`)
    // widens approximate lookup beyond the n-gram index. Here they are scored against the alias
    // ground truth: the eval set is every oracle synonym the mined
    // dictionary does NOT contain verbatim (so the exact path cannot
    // answer), plus one deterministic misspelling of every canonical
    // string — exactly the traffic the fuzzy path exists for. A query
    // counts as correct when `lookup_fuzzy` resolves it to its oracle
    // entity; recall is correct/total, precision correct/resolved.
    println!("\n## Ablation 6 — fuzzy candidate sources vs the synth oracle (D1)\n");
    // The eval fixture is shared with the matcher benchmark's recall
    // report (`websyn_bench::fuzzy_oracle_eval`), so this table and
    // the CI-gated recall numbers can never drift apart.
    let fixture = fuzzy_oracle_eval(&pipeline);
    let (exact, eval, unmined_synonyms) = (&fixture.exact, &fixture.eval, fixture.unmined_synonyms);
    println!(
        "{} eval queries ({} unmined oracle synonyms + {} misspelled canonicals); \
         dictionary holds {} surfaces\n",
        eval.len(),
        unmined_synonyms,
        eval.len() - unmined_synonyms,
        exact.len(),
    );
    print_table_header(&[
        "sources",
        "recall",
        "precision",
        "resolved",
        "correct",
        "wrong",
    ]);
    let configs = [("token-sig + ngram (default)", false), ("+ abbrev", true)];
    for (label, abbrev) in configs {
        let matcher = exact.clone().with_fuzzy(FuzzyConfig {
            abbrev,
            ..FuzzyConfig::default()
        });
        let mut resolved = 0usize;
        let mut correct = 0usize;
        for (query, truth) in eval {
            if let Some(hit) = matcher.lookup_fuzzy(query) {
                resolved += 1;
                if hit.entity == *truth {
                    correct += 1;
                }
            }
        }
        println!(
            "| {} | {:.3} | {} | {} | {} | {} |",
            label,
            correct as f64 / eval.len().max(1) as f64,
            // Precision is undefined when nothing resolved; a 1.000
            // would mask a dead fuzzy path.
            if resolved == 0 {
                "n/a".to_string()
            } else {
                format!("{:.3}", correct as f64 / resolved as f64)
            },
            resolved,
            correct,
            resolved - correct,
        );
    }

    eprintln!("done.");
}
