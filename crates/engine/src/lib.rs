//! # websyn-engine
//!
//! The search-engine substrate: the synthetic equivalent of "issuing
//! each u ∈ U as a query to the Bing Search API and keeping the top-k
//! results" (paper Section III-A).
//!
//! A complete, if compact, retrieval stack:
//! - [`analyzer`] — the analysis chain (normalize → tokenize) shared by
//!   indexing and querying;
//! - [`index`] — an inverted index with title-boosted term frequencies;
//! - [`score`] — BM25 (and a TF-IDF alternative used by ablations);
//! - [`spell`] — a vocabulary-driven spelling corrector, standing in
//!   for the query alteration every production engine performs;
//! - [`search`] — top-k retrieval tying it all together: a dense
//!   per-page accumulator and a per-term impact memo, both reused
//!   across the queries of a batch;
//! - [`searchdata`] — materializes the paper's Search Data `A` (the
//!   `⟨q, p, r⟩` relevance tuples), one shard of `U` per core, tuples
//!   grouped by ascending query index.
//!
//! Batching and sharding change the cost of retrieval, not its result:
//! every hit has the pages, ranks and score bits that summing
//! [`Scorer::term_score`] per posting into a hash map would give.

pub mod analyzer;
pub mod index;
pub mod score;
pub mod search;
pub mod searchdata;
pub mod spell;

#[cfg(test)]
mod contract_tests;

pub use analyzer::Analyzer;
pub use index::{InvertedIndex, Posting};
pub use score::{Bm25Params, Scorer, TfIdfParams};
pub use search::{SearchEngine, SearchHit};
pub use searchdata::{SearchData, SearchTuple};
pub use spell::SpellCorrector;
