//! Criterion micro-benchmarks for every hot component: text analysis,
//! indexing, retrieval, session simulation, graph construction, the
//! miner's two phases, the random walk, the query matcher,
//! first-sight fuzzy resolution and the serving dictionary's compile.
//!
//! Run: `cargo bench -p websyn-bench`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use websyn_bench::{small_pipeline, synth_product_dictionary, Pipeline, SEARCH_DEPTH};
use websyn_click::session::{engine_for_world, simulate_sessions};
use websyn_click::{ClickGraph, RandomWalk, SessionConfig};
use websyn_core::miner::select_with;
use websyn_core::{EntityMatcher, FuzzyConfig, MinerConfig, SynonymMiner};
use websyn_engine::{SearchData, SearchEngine};
use websyn_synth::{queries, QueryStreamConfig, World, WorldConfig};
use websyn_text::{damerau_levenshtein, double_middle_char, levenshtein, normalize};

fn bench_text(c: &mut Criterion) {
    let mut g = c.benchmark_group("text");
    let title = "Indiana Jones and the Kingdom of the Crystal Skull!";
    g.bench_function("normalize_title", |b| {
        b.iter(|| normalize(black_box(title)))
    });
    g.bench_function("levenshtein_12x14", |b| {
        b.iter(|| levenshtein(black_box("indiana jones"), black_box("indianna jones")))
    });
    g.bench_function("damerau_12x14", |b| {
        b.iter(|| damerau_levenshtein(black_box("indiana jones"), black_box("indianna jnoes")))
    });
    g.bench_function("trigram_similarity", |b| {
        b.iter(|| {
            websyn_text::ngram::trigram_similarity(
                black_box("canon eos 350d"),
                black_box("cannon eos 350"),
            )
        })
    });
    g.finish();
}

fn world_and_engine() -> (World, SearchEngine) {
    let world = World::build(&WorldConfig::small_movies(40, 11));
    let engine = engine_for_world(&world);
    (world, engine)
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let (world, engine) = world_and_engine();

    g.bench_function("index_build_400_pages", |b| {
        b.iter(|| {
            SearchEngine::from_docs(
                world
                    .pages
                    .iter()
                    .map(|p| (p.id, p.title.as_str(), p.body.as_str())),
            )
        })
    });
    let canonical = &world.entities[0].canonical_norm;
    g.bench_function("search_top10_canonical", |b| {
        b.iter(|| engine.search(black_box(canonical), 10))
    });
    g.bench_function("search_top10_misspelled", |b| {
        // Forces the spell-correction path.
        let misspelled = format!("{}x", canonical.replace(' ', "q "));
        b.iter(|| engine.search(black_box(&misspelled), 10))
    });
    let u_set: Vec<&str> = world
        .entities
        .iter()
        .map(|e| e.canonical_norm.as_str())
        .collect();
    g.bench_function("collect_u_set", |b| {
        b.iter(|| SearchData::collect(&engine, black_box(&u_set), SEARCH_DEPTH))
    });
    g.finish();
}

fn bench_sessions(c: &mut Criterion) {
    let mut g = c.benchmark_group("sessions");
    g.sample_size(20);
    let mut world = World::build(&WorldConfig::small_movies(40, 12));
    let events = queries::generate(&mut world, &QueryStreamConfig::small(5_000));
    let engine = engine_for_world(&world);
    g.bench_function("simulate_5k_events", |b| {
        b.iter(|| simulate_sessions(&world, &engine, &events, &SessionConfig::default()))
    });
    let (log, _) = simulate_sessions(&world, &engine, &events, &SessionConfig::default());
    let n_pages = world.pages.len();
    g.bench_function("click_graph_build", |b| {
        b.iter(|| ClickGraph::build(black_box(&log), n_pages))
    });
    g.finish();
}

fn pipeline() -> Pipeline {
    small_pipeline(40, 30_000, 13)
}

fn bench_miner(c: &mut Criterion) {
    let mut g = c.benchmark_group("miner");
    g.sample_size(20);
    let p = pipeline();
    let miner = SynonymMiner::new(MinerConfig::default());

    g.bench_function("score_40_entities", |b| b.iter(|| miner.score(&p.ctx)));

    let scored = miner.score(&p.ctx);
    g.bench_function("select_single_point", |b| {
        b.iter(|| select_with(&p.ctx, black_box(&scored), 4, 0.1, miner.config))
    });
    g.bench_function("select_33_point_sweep", |b| {
        b.iter(|| {
            for beta in [2u32, 4, 6] {
                for gamma in [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
                    black_box(select_with(&p.ctx, &scored, beta, gamma, miner.config));
                }
            }
        })
    });
    g.finish();
}

fn bench_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("walk");
    g.sample_size(30);
    let p = pipeline();
    let start = p
        .ctx
        .log
        .query_id(&p.ctx.u_set[0])
        .or_else(|| p.ctx.log.queries().next().map(|(q, _)| q))
        .expect("log has queries");
    for steps in [2usize, 6, 10] {
        g.bench_with_input(BenchmarkId::new("from_query", steps), &steps, |b, &s| {
            let walk = RandomWalk {
                steps: s,
                ..Default::default()
            };
            b.iter(|| walk.from_query(&p.ctx.graph, start))
        });
    }
    g.finish();
}

fn bench_matcher(c: &mut Criterion) {
    let mut g = c.benchmark_group("matcher");
    let p = pipeline();
    let result = SynonymMiner::new(MinerConfig::with_thresholds(3, 0.1)).mine(&p.ctx);
    let matcher = EntityMatcher::from_mining(&result, &p.ctx);
    let query = format!(
        "showtimes for {} near san francisco tonight",
        p.ctx.u_set[0]
    );
    g.bench_function("build_dictionary", |b| {
        b.iter(|| EntityMatcher::from_mining(&result, &p.ctx))
    });
    g.bench_function("segment_long_query", |b| {
        b.iter(|| matcher.segment(black_box(&query)))
    });
    g.bench_function("exact_lookup", |b| {
        b.iter(|| matcher.lookup(black_box(&p.ctx.u_set[0])))
    });
    g.finish();
}

/// First-sight fuzzy resolution: misspelled product mentions over the
/// serving benchmark's 120k-surface dictionary, with no window cache
/// and no batch memo, so every window pays for candidate generation,
/// the character-count bound and verification.
fn bench_fuzzy(c: &mut Criterion) {
    let mut g = c.benchmark_group("fuzzy");
    g.sample_size(20);
    let dictionary = synth_product_dictionary(120_000);
    let queries: Vec<String> = dictionary
        .iter()
        .step_by(120_000 / 64)
        .map(|(s, _)| format!("best price for {}", double_middle_char(s)))
        .collect();
    let matcher = EntityMatcher::from_pairs(dictionary).with_fuzzy(FuzzyConfig::default());
    g.bench_function("cold_window", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(matcher.segment(black_box(q)));
            }
        })
    });
    g.finish();
}

/// The serving dictionary's compile from its artifact: parse, dedupe,
/// compile the exact side, then the token-signature and n-gram
/// indexes — what a server pays at startup and every compaction pays
/// again.
fn bench_dict(c: &mut Criterion) {
    let mut g = c.benchmark_group("dict");
    g.sample_size(20);
    let tsv = EntityMatcher::from_pairs(synth_product_dictionary(20_000))
        .with_fuzzy(FuzzyConfig::default())
        .to_tsv();
    g.bench_function("from_tsv_20k", |b| {
        b.iter(|| EntityMatcher::from_tsv(black_box(&tsv)).expect("valid artifact"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_text,
    bench_engine,
    bench_sessions,
    bench_miner,
    bench_walk,
    bench_matcher,
    bench_fuzzy,
    bench_dict
);
criterion_main!(benches);
