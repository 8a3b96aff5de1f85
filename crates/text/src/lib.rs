//! # websyn-text
//!
//! Text substrate for the `websyn` workspace.
//!
//! Entity strings, Web queries and page text all pass through the same
//! analysis chain before any matching happens, so this crate owns every
//! string-level primitive the system needs:
//!
//! - [`normalize`](mod@normalize) — canonical
//!   lowercase/punctuation/whitespace form, the equality domain for
//!   query ↔ synonym matching;
//! - [`tokenize`](mod@tokenize) — word/number token stream over
//!   normalized text;
//! - [`distance`] — Levenshtein, Damerau (OSA), Jaro and Jaro–Winkler
//!   edit distances for the fuzzy baselines;
//! - [`char_bag`] — the character-count lower bound on edit distance,
//!   which rejects fuzzy candidates before they are verified;
//! - [`ngram`] — character/word n-grams and Jaccard/Dice/cosine/overlap
//!   set similarities;
//! - [`ngram_index`] — an inverted character n-gram signature index
//!   with length/count filters, the candidate-generation half of fuzzy
//!   dictionary lookup;
//! - [`token_signature`] — a token-run signature index for multi-token
//!   windows (length-band, token-count and aligned-offset filters),
//!   the fast candidate generator on the segmenter's fuzzy hot path;
//! - [`candidate`] — the [`CandidateSource`] trait every approximate
//!   generator implements (n-gram, token run, abbreviation), so
//!   matchers and spell correctors share one pluggable generation
//!   stage;
//! - [`numerals`] — roman ↔ arabic ↔ word numeral transforms
//!   ("Indiana Jones IV" ↔ "Indiana Jones 4" ↔ "Indiana Jones Four");
//! - [`abbrev`] — systematic abbreviation transforms (acronyms, subtitle
//!   truncation, stopword dropping, `and` ↔ `&` ...), the generative
//!   engine behind the synthetic alias universe;
//! - [`typo`] — a QWERTY keyboard typo channel used by the query-stream
//!   simulator.

pub mod abbrev;
mod bitpar;
pub mod candidate;
pub mod char_bag;
pub mod distance;
pub mod ngram;
pub mod ngram_index;
pub mod normalize;
pub mod numerals;
pub mod token_signature;
pub mod tokenize;
pub mod typo;

pub use abbrev::AbbrevKind;
pub use candidate::{AbbrevIndex, CandidateSource, PrefixHit};
pub use char_bag::CharBag;
pub use distance::{
    damerau_levenshtein, damerau_levenshtein_within, damerau_levenshtein_within_ref, jaro,
    jaro_winkler, kernel_dispatch_stats, levenshtein, levenshtein_within, levenshtein_within_ref,
    normalized_levenshtein, KernelDispatchStats,
};
pub use ngram::{char_ngrams, cosine, dice, jaccard, overlap_coefficient, word_ngrams};
pub use ngram_index::NgramIndex;
pub use normalize::{normalize, normalized, NormalizeOptions};
pub use numerals::{arabic_to_roman, arabic_to_words, roman_to_arabic, words_to_arabic};
pub use token_signature::TokenSignatureIndex;
pub use tokenize::{token_bounds, tokenize, Token, TokenKind};
pub use typo::{double_middle_char, TypoModel};
