//! # websyn — fuzzy matching of Web queries to structured data
//!
//! A from-scratch reproduction of *Cheng, Lauw & Paparizos, "Fuzzy
//! Matching of Web Queries to Structured Data", ICDE 2010*: mining
//! query and click logs to expand structured entities (movies, cameras)
//! with the alternative strings Web users actually type — `"indy 4"`
//! for *Indiana Jones and the Kingdom of the Crystal Skull*,
//! `"digital rebel xt"` for *Canon EOS 350D* — and then using the
//! expanded dictionary to resolve free-form queries to entities.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! | --- | --- |
//! | [`common`] | ids, hashing, interning, top-k, stats, Zipf, seeding |
//! | [`text`] | normalization, tokenization, distances, n-grams, numerals, abbreviations, typos |
//! | [`synth`] | the synthetic world: catalogs, alias ground truth, pages, intents, query streams |
//! | [`engine`] | inverted index, BM25, top-k search, Search Data `A` |
//! | [`click`] | click models, session simulation, Click Data `L`, click graph, random walks |
//! | [`core`] | **the paper**: surrogates, candidates, IPC/ICR, selection, metrics, matcher |
//! | [`baselines`] | Wikipedia redirects (simulated), random walk, substring, edit distance |
//! | [`obs`] | lock-free counters and histograms, ring logs, Prometheus text rendering |
//!
//! ## Quickstart
//!
//! ```
//! use websyn::prelude::*;
//!
//! // 1. A synthetic world (stand-in for the paper's Bing logs).
//! let mut world = World::build(&WorldConfig::small_movies(20, 7));
//! let events = websyn::synth::queries::generate(
//!     &mut world,
//!     &QueryStreamConfig::small(20_000),
//! );
//!
//! // 2. Simulate five months of search-and-click in miniature.
//! let engine = engine_for_world(&world);
//! let (log, _stats) =
//!     simulate_sessions(&world, &engine, &events, &SessionConfig::default());
//!
//! // 3. Mine synonyms (IPC 4, ICR 0.1 — the paper's thresholds).
//! let u_set: Vec<String> =
//!     world.entities.iter().map(|e| e.canonical_norm.clone()).collect();
//! let search = SearchData::collect(&engine, &u_set, 10);
//! let n_pages = world.pages.len();
//! let ctx = MiningContext::new(u_set, search, log, n_pages);
//! let result = SynonymMiner::default().mine(&ctx);
//!
//! // 4. Evaluate against the exact oracle.
//! let report = evaluate(&result, &ctx, &world);
//! assert!(report.hits > 0);
//!
//! // 5. Match free-form queries to entities.
//! let matcher = EntityMatcher::from_mining(&result, &ctx);
//! let spans = matcher.segment("some user query");
//! # let _ = spans;
//! ```

pub use websyn_baselines as baselines;
pub use websyn_click as click;
pub use websyn_common as common;
pub use websyn_core as core;
pub use websyn_engine as engine;
pub use websyn_obs as obs;
pub use websyn_serve as serve;
pub use websyn_synth as synth;
pub use websyn_text as text;

/// The most commonly used items, for `use websyn::prelude::*`.
pub mod prelude {
    pub use websyn_baselines::{
        BaselineOutput, ClusterBaseline, EditDistanceBaseline, SubstringBaseline, WalkBaseline,
        WikiBaseline,
    };
    pub use websyn_click::session::{engine_for_world, simulate_sessions};
    pub use websyn_click::{ClickGraph, ClickLog, ClickModel, RandomWalk, SessionConfig};
    pub use websyn_common::{EntityId, PageId, QueryId, SeedSequence, SurfaceId};
    pub use websyn_core::{
        evaluate, CompiledDict, EntityMatcher, EvalReport, FuzzyConfig, MatchSpan, MinerConfig,
        MiningContext, MiningResult, SynonymMiner,
    };
    pub use websyn_engine::{SearchData, SearchEngine};
    pub use websyn_serve::{Engine, EngineConfig, Server, ServerConfig, ShardedCache};
    pub use websyn_synth::{QueryStreamConfig, World, WorldConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        // Compile-time check that the façade covers the workspace.
        fn assert_type<T>() {}
        assert_type::<crate::prelude::MinerConfig>();
        assert_type::<crate::prelude::WorldConfig>();
        assert_type::<crate::prelude::SessionConfig>();
        assert_type::<crate::baselines::BaselineOutput>();
        assert_type::<crate::text::TypoModel>();
        assert_type::<crate::common::Zipf>();
        assert_type::<crate::prelude::CompiledDict>();
        assert_type::<crate::prelude::SurfaceId>();
        assert_type::<crate::text::AbbrevIndex>();
        fn assert_source<T: crate::text::CandidateSource>() {}
        assert_source::<crate::text::NgramIndex>();
    }
}
