//! # websyn-core
//!
//! The paper's primary contribution: **off-line, data-driven, bottom-up
//! mining of entity synonyms from query and click logs**, for fuzzy
//! matching of Web queries to structured data (Cheng, Lauw & Paparizos,
//! ICDE 2010).
//!
//! The two-phase algorithm of Section III:
//!
//! 1. **Candidate generation**
//!    - [`surrogate`] — `G_A(u, P)`: the top-k search results for the
//!      canonical string `u` are its surrogate pages (Eq. 1, Def. 5);
//!    - [`candidates`] — `W'_u = {w' | G_A(u,P) ∩ G_L(w',P) ≠ ∅}`:
//!      every query whose clicks touch a surrogate (Eq. 2, Def. 6).
//! 2. **Candidate selection** ([`measures`], [`select`](mod@select))
//!    - **IPC** `(w', u) = |G_L(w',P) ∩ G_A(u,P)|` — strength (Eq. 3);
//!    - **ICR** `(w', u)` — the fraction of `w'`'s clicks landing inside
//!      the intersection — exclusiveness (Eq. 4);
//!    - thresholds `β` (IPC) and `γ` (ICR) produce the final synonyms.
//!
//! [`miner`] orchestrates the phases (with a score-once / select-many
//! split so threshold sweeps are cheap), [`metrics`] implements every
//! measure of Section IV (precision, weighted precision, coverage
//! increase, hit ratio, expansion ratio), [`taxonomy`] classifies mined
//! strings against the oracle, and [`matcher`] is the downstream
//! payoff: a fuzzy query → entity matcher built from mined synonyms.
//! The matcher compiles its surfaces into a token-ID dictionary
//! ([`dict`]) so exact segmentation is allocation-free, and [`fuzzy`]
//! supplies the approximate (typo-tolerant) lookup path — a pluggable
//! [`websyn_text::CandidateSource`] chain — plus batched segmentation
//! for serving.
//!
//! [`segment`] is the dictionary *lifecycle*: a [`SegmentedDict`]
//! (immutable base + ordered delta segments with tombstones, merged
//! into one serving snapshot per commit, compacted in the background)
//! behind the thread-safe [`DictHandle`]. Deltas ([`DictDelta`]) apply
//! in milliseconds without recompiling the base, and each commit
//! publishes a [`DeltaFootprint`] so serving caches can invalidate
//! only what the delta could have changed.

pub mod candidates;
pub mod config;
pub mod data;
pub mod dict;
pub mod fuzzy;
pub mod matcher;
pub mod measures;
pub mod metrics;
pub mod miner;
pub mod segment;
pub mod select;
pub mod stamp;
pub mod surrogate;
pub mod taxonomy;
pub mod telemetry;
pub mod window_cache;

pub use candidates::generate_candidates;
pub use config::MinerConfig;
pub use data::MiningContext;
pub use dict::CompiledDict;
pub use fuzzy::{FuzzyConfig, FuzzyDictionary, FuzzyMatch};
pub use matcher::{EntityMatcher, MatchScratch, MatchSpan, SegmentRequest};
pub use measures::{score_candidate, CandidateScore};
pub use metrics::{evaluate, EvalReport};
pub use miner::{
    EntityCandidates, EntitySynonyms, MinedSynonym, MiningResult, ScoredCandidates, SynonymMiner,
};
pub use segment::{
    DeltaFootprint, DeltaSegment, DictDelta, DictHandle, DictStats, DictView, FootprintLog,
    SegmentedDict,
};
pub use select::select;
pub use stamp::Stamp;
pub use surrogate::{SurrogateSource, SurrogateTable};
pub use taxonomy::{classify, RelationCounts, TruthClass};
pub use telemetry::{matcher_telemetry, MatcherTelemetry};
pub use window_cache::{WindowCache, WindowCacheStats};
