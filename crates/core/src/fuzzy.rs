//! Fuzzy surface resolution: candidate generation + verification.
//!
//! The exact dictionary in [`crate::matcher`] only resolves surfaces
//! that were mined or declared verbatim; a query-time typo ("cannon eos
//! 350d") falls straight through it. This module adds the approximate
//! half of the paper's title — *fuzzy* matching of Web queries — as a
//! classic pipeline of three stages:
//!
//! 1. **generate** — a chain of [`CandidateSource`]s over the compiled
//!    dictionary's surfaces proposes candidate surface ids. The default
//!    chain splits by token count: multi-token windows probe the
//!    token-run signature index
//!    ([`websyn_text::TokenSignatureIndex`]: intact-run anchors with
//!    length-band, token-count and aligned-offset filters — the fast
//!    path, since a typo damages one token and the neighbours anchor),
//!    while single-token windows probe the char n-gram signature index
//!    ([`websyn_text::NgramIndex`]: length + count filters), whose
//!    character granularity is the recall backstop when the lone token
//!    itself is damaged. The optional abbreviation source
//!    ([`websyn_text::AbbrevIndex`]) widens recall to systematic
//!    abbreviations when [`FuzzyConfig::abbrev`] is set.
//! 2. **bound** — each proposal from a filtering source is screened by
//!    the character-count lower bound on edit distance
//!    ([`websyn_text::CharBag`], one 24-byte count vector per surface,
//!    kept in [`CompiledDict`]): a surface whose bound exceeds the
//!    window's budget cannot verify and is dropped before it is
//!    sorted, deduplicated or loaded. The per-position generator
//!    applies it twice: while collecting hits, against the position's
//!    longest window (a surface holding more of some char than the
//!    whole longest window is out of reach of every prefix of it), and
//!    per window before the sort. The bound is exact (it never exceeds
//!    the Levenshtein or OSA distance), so it changes which ids are
//!    verified, never a result. Two readings stay unbounded: the
//!    n-gram fallback gate still asks whether the earlier sources
//!    proposed anything *before* the bound, and the segment footprint
//!    test (`FuzzyDictionary::proposes_any`) remains a conservative
//!    over-approximation.
//! 3. **verify** — each surviving proposal from a filtering source pays
//!    for a real bounded edit-distance computation
//!    ([`websyn_text::distance`]), and only candidates within the
//!    length-scaled budget of [`FuzzyConfig`] survive. Proposals from a
//!    transform source (abbrev) are exact by construction and resolve
//!    at distance 0.
//!
//! Before either stage runs, the window is screened against the
//! compiled dictionary's reachability tables
//! ([`CompiledDict::can_reach`]): a window that provably cannot reach
//! any surface within its edit budget skips generation and
//! verification entirely. Pruning is conservative — it only ever skips
//! work, never changes a result (pinned by the pruned-vs-unpruned
//! equivalence proptests).
//!
//! Resolution is *exact-first*: the caller is expected to try the
//! compiled-dictionary lookup before the fuzzy path, so enabling fuzzy
//! matching never changes the result for a surface that already
//! resolves exactly. Among the verified candidates the minimum distance
//! wins; if two *different* entities tie at the minimum distance the
//! mention is ambiguous and resolves to nothing, mirroring how the
//! exact dictionary drops ambiguous surfaces. Surface ids ascend
//! lexicographically (see [`crate::dict`]), so a same-entity tie keeps
//! the lexicographically smallest surface, deterministically.

use crate::dict::CompiledDict;
use crate::window_cache::Verdict;
use std::sync::Arc;
use websyn_common::{EntityId, SurfaceId};
use websyn_text::{
    damerau_levenshtein, damerau_levenshtein_within, levenshtein, levenshtein_within, AbbrevIndex,
    CandidateSource, CharBag, NgramIndex, PrefixHit, TokenSignatureIndex,
};

#[cfg(test)]
thread_local! {
    /// Test-only switch that turns the character-count bound off on
    /// this thread, so the bound-on ≡ bound-off proptests can compare
    /// both against one compiled dictionary.
    static BOUND_DISABLED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the character-count bound screens candidates. Always on
/// outside this crate's unit tests.
#[inline]
fn bound_enabled() -> bool {
    #[cfg(test)]
    {
        !BOUND_DISABLED.get()
    }
    #[cfg(not(test))]
    {
        true
    }
}

/// Runs `f` with the character-count bound turned off on this thread.
#[cfg(test)]
pub(crate) fn without_bound<R>(f: impl FnOnce() -> R) -> R {
    BOUND_DISABLED.set(true);
    let r = f();
    BOUND_DISABLED.set(false);
    r
}

/// Tuning for fuzzy surface lookup.
///
/// The edit-distance budget scales with string length the way serving
/// stacks usually configure fuzziness (cf. Lucene/Elasticsearch
/// `AUTO`): very short strings must match exactly — a single edit on a
/// 3-char model number reaches a different product — while long titles
/// tolerate two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzyConfig {
    /// Character n-gram size of the candidate index. Bigrams keep
    /// short, digit-heavy surfaces ("350d") recallable; trigrams prune
    /// harder on long text.
    pub gram_size: usize,
    /// Minimum normalized char length (query and surface) at which one
    /// edit is allowed; shorter strings resolve exactly only.
    pub min_len_one_edit: usize,
    /// Minimum normalized char length at which two edits are allowed.
    pub min_len_two_edits: usize,
    /// Hard cap on the edit distance regardless of length.
    pub max_distance: usize,
    /// Count an adjacent transposition ("cnaon") as one edit
    /// (Damerau/OSA) instead of two (plain Levenshtein).
    pub transpositions: bool,
    /// Chain the systematic-abbreviation source: queries that *are* a
    /// mechanical variant of a surface (acronym, stopword drop, bare
    /// model tail) resolve at distance 0 without edit verification.
    /// Off by default.
    pub abbrev: bool,
    /// Generate candidates for **multi-token** windows from the
    /// token-run signature index
    /// ([`websyn_text::TokenSignatureIndex`]: length-band, token-count
    /// and aligned-offset filters over intact token runs) instead of
    /// scanning char-gram postings for the joined window. Single-token
    /// windows keep the n-gram index, whose character granularity is
    /// the recall backstop when the lone token itself is damaged, and
    /// two-token windows fall back to it when no run anchors (both
    /// tokens damaged). On by default — this is the fuzzy hot path's
    /// fast generator.
    ///
    /// Recall coverage: typo-class damage (character edits inside
    /// tokens, one space edit next to otherwise-intact tokens) always
    /// leaves an anchor; a two-token window whose single space was
    /// split out of a surface token ("tv set" → "tvset") or transposed
    /// with a letter ("th ebest" → "the best") anchors through the
    /// index's de-spaced keys; and a two-token window with one
    /// character typo in *each* token reaches the n-gram fallback.
    ///
    /// Residual tradeoff (measured zero on the committed evals, but
    /// real): the fallback fires only when both tokens are out of
    /// vocabulary at the full two-edit budget, and windows of ≥ 3
    /// tokens have neither fallback nor de-spaced anchor — so a
    /// damaged token that happens to equal another dictionary token, a
    /// space substituted *by* a letter ("tv set" → "tvxset"), or edits
    /// that collapse three or more tokens at once can miss a surface
    /// the pure n-gram chain would have proposed. Disable to restore
    /// the n-gram-only chain of PR 3.
    pub token_signature: bool,
}

impl Default for FuzzyConfig {
    fn default() -> Self {
        Self {
            gram_size: 2,
            min_len_one_edit: 4,
            min_len_two_edits: 9,
            max_distance: 2,
            transpositions: true,
            abbrev: false,
            token_signature: true,
        }
    }
}

impl FuzzyConfig {
    /// The edit-distance budget for a normalized string of `chars`
    /// characters under this config.
    pub fn max_distance_for(&self, chars: usize) -> usize {
        let by_len = if chars >= self.min_len_two_edits {
            2
        } else if chars >= self.min_len_one_edit {
            1
        } else {
            0
        };
        by_len.min(self.max_distance)
    }

    /// The distance between two normalized strings under the configured
    /// metric.
    pub fn distance(&self, a: &str, b: &str) -> usize {
        if self.transpositions {
            damerau_levenshtein(a, b)
        } else {
            levenshtein(a, b)
        }
    }

    /// Bounded form of [`FuzzyConfig::distance`]: `Some(d)` iff
    /// `d ≤ k`, using the banded O((2k+1)·len) verification kernels —
    /// this is what the hot path calls, since most candidates are
    /// rejected.
    pub fn distance_within(&self, a: &str, b: &str, k: usize) -> Option<usize> {
        if self.transpositions {
            damerau_levenshtein_within(a, b, k)
        } else {
            levenshtein_within(a, b, k)
        }
    }
}

/// A successful fuzzy resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzyMatch {
    /// Interned id of the dictionary surface the query resolved to.
    pub surface_id: SurfaceId,
    /// The entity that surface maps to.
    pub entity: EntityId,
    /// Verified edit distance between query and surface (0 = exact, or
    /// an exact transform hit from a non-verifying source).
    pub distance: usize,
    /// Shared handle on the surface string (see
    /// [`FuzzyMatch::surface`]).
    surface: Arc<str>,
}

impl FuzzyMatch {
    /// The dictionary surface the query resolved to.
    pub fn surface(&self) -> &str {
        &self.surface
    }

    /// Crate-internal constructor (the matcher builds distance-0 hits
    /// for exact lookups).
    pub(crate) fn new(
        surface_id: SurfaceId,
        entity: EntityId,
        distance: usize,
        surface: Arc<str>,
    ) -> Self {
        Self {
            surface_id,
            entity,
            distance,
            surface,
        }
    }
}

impl From<FuzzyMatch> for Verdict {
    /// The window-cache verdict of a resolution: everything but the
    /// surface id.
    fn from(m: FuzzyMatch) -> Self {
        Verdict {
            surface: m.surface,
            entity: m.entity,
            distance: m.distance,
        }
    }
}

/// One chain entry: a candidate source plus the query token counts it
/// is consulted for. The token-signature index only fires on
/// multi-token windows (an intact-run anchor cannot exist inside a
/// damaged lone token); the n-gram index backstops single tokens when
/// the signature index is enabled and covers everything otherwise. A
/// `fallback` entry backstops the multi-damage case the anchor-keyed
/// sources cannot see — a window where *every* token was damaged (one
/// typo in each of two tokens leaves no intact run) — so it is
/// consulted only when that case is actually live: the sources before
/// it proposed nothing, every window token is out of vocabulary
/// (a damaged token almost never collides with a dictionary token),
/// and the window affords the full two-edit budget that damaging two
/// tokens costs.
#[derive(Clone)]
struct SourceEntry {
    source: Arc<dyn CandidateSource + Send + Sync>,
    /// Inclusive token-count range `[min, max]` this source applies to.
    min_tokens: usize,
    max_tokens: usize,
    /// Cached `!source.needs_verification()` — read on every window.
    verified: bool,
    /// Consulted only when no earlier source proposed anything.
    fallback: bool,
    /// Whether the source supports per-position prefix generation
    /// ([`CandidateSource::propose_prefix`]) — probed once at chain
    /// construction (the support flag is constant per source).
    prefix_capable: bool,
}

impl SourceEntry {
    fn new(
        source: Arc<dyn CandidateSource + Send + Sync>,
        min_tokens: usize,
        max_tokens: usize,
    ) -> Self {
        let verified = !source.needs_verification();
        let prefix_capable = source.propose_prefix("", 0, &mut |_| true, &mut Vec::new());
        Self {
            source,
            min_tokens,
            max_tokens,
            verified,
            fallback: false,
            prefix_capable,
        }
    }

    fn fallback(mut self) -> Self {
        self.fallback = true;
        self
    }
}

/// The compiled fuzzy side of a matcher dictionary: a shared
/// [`CompiledDict`] plus the chain of candidate sources the config
/// enables.
///
/// Surface ids ascend lexicographically, so candidate order (and
/// therefore tie-breaking) is deterministic however the sources
/// iterate.
#[derive(Clone)]
pub struct FuzzyDictionary {
    config: FuzzyConfig,
    dict: Arc<CompiledDict>,
    /// Generation chain, consulted in order. `Arc`ed so cloning a
    /// matcher shares the compiled indexes.
    sources: Vec<SourceEntry>,
    /// Whether every chain source requires edit-distance verification.
    /// When true, the [`CompiledDict::can_reach`] pruning tables prove
    /// window skips sound: any surviving proposal would be verified
    /// within the edit budget, so an edit-unreachable window cannot
    /// resolve. A non-verifying source (abbrev: transform hits at any
    /// edit distance) disables pruning.
    all_verifying: bool,
    /// Per-budget bitmasks of window token counts at which a window
    /// with **no** in-vocabulary token may still resolve (some
    /// applicable source proposes unanchored — see
    /// [`CandidateSource::proposes_unanchored`]); bit `m` covers
    /// windows of `m` tokens, bit 31 covers 31-and-up. Windows whose
    /// bit is clear provably resolve to nothing and the segmenter
    /// skips them without memo or generation. Index 0 is budget 1,
    /// index 1 is budget 2 (budget 0 never reaches the fuzzy path).
    unanchored_masks: [u32; 2],
    /// Chain index of the (first) source supporting per-position
    /// prefix generation — the one a [`PrefixContext`] feeds.
    prefix_source: Option<usize>,
}

/// Lazily prepared per-position generation state: the segmenter
/// creates one per start position over the position's *longest*
/// window, and [`FuzzyDictionary::resolve_pruned_prefix`] fills it on
/// first use — so positions whose every window is pruned or memoized
/// never pay the probe pass at all.
pub(crate) struct PrefixContext<'a> {
    /// The longest window's text at this position.
    max_text: &'a str,
    /// The longest window's edit budget (monotone in window length, so
    /// ≥ every shorter window's budget — the collection contract of
    /// [`CandidateSource::propose_prefix`]).
    max_budget: usize,
    prepared: bool,
    hits: &'a mut Vec<PrefixHit>,
}

impl<'a> PrefixContext<'a> {
    /// A fresh context over a position's longest window. `hits` is
    /// caller-owned scratch (cleared here).
    pub(crate) fn new(max_text: &'a str, max_budget: usize, hits: &'a mut Vec<PrefixHit>) -> Self {
        hits.clear();
        Self {
            max_text,
            max_budget,
            prepared: false,
            hits,
        }
    }
}

impl std::fmt::Debug for FuzzyDictionary {
    // The trait objects have no `Debug` bound; the source names plus
    // the config describe the chain completely.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuzzyDictionary")
            .field("config", &self.config)
            .field("surfaces", &self.dict.len())
            .field("sources", &self.source_names())
            .finish()
    }
}

impl FuzzyDictionary {
    /// Compiles the fuzzy dictionary from `(surface, entity)` pairs.
    /// Pairs may arrive in any order; they are sorted internally.
    pub fn build(pairs: Vec<(String, EntityId)>, config: FuzzyConfig) -> Self {
        Self::from_dict(Arc::new(CompiledDict::build(pairs)), config)
    }

    /// Compiles the fuzzy side over an existing compiled dictionary —
    /// how [`crate::EntityMatcher::with_fuzzy`] shares one dictionary
    /// between the exact and approximate paths.
    pub fn from_dict(dict: Arc<CompiledDict>, config: FuzzyConfig) -> Self {
        let mut sources: Vec<SourceEntry> = Vec::new();
        if config.token_signature {
            sources.push(SourceEntry::new(
                Arc::new(TokenSignatureIndex::build(dict.surface_strs())),
                2,
                usize::MAX,
            ));
            let ngram: Arc<dyn CandidateSource + Send + Sync> =
                Arc::new(NgramIndex::build(dict.surface_strs(), config.gram_size));
            sources.push(SourceEntry::new(Arc::clone(&ngram), 1, 1));
            // Two-token recall backstop: a window whose both tokens
            // were damaged (one typo each fits a 2-edit budget) has no
            // intact run for the signature index to anchor, so the
            // char-gram index steps in — gated to the windows where
            // that case is live (see `SourceEntry`), which keeps it
            // off the hot path. Windows of ≥3 tokens need no backstop:
            // within a 2-edit budget at most two space edits land, so
            // runs of up to three tokens always leave an anchor for
            // typo-class damage (the residual losses — multi-merge
            // edits collapsing several tokens, a damaged token that
            // happens to equal another dictionary token — are
            // documented on `FuzzyConfig::token_signature`).
            sources.push(SourceEntry::new(ngram, 2, 2).fallback());
        } else {
            sources.push(SourceEntry::new(
                Arc::new(NgramIndex::build(dict.surface_strs(), config.gram_size)),
                1,
                usize::MAX,
            ));
        }
        if config.abbrev {
            sources.push(SourceEntry::new(
                Arc::new(AbbrevIndex::build(dict.surface_strs())),
                1,
                usize::MAX,
            ));
        }
        let all_verifying = sources.iter().all(|e| e.source.needs_verification());
        let unanchored_masks = Self::compute_unanchored_masks(&sources);
        let prefix_source = sources.iter().position(|e| e.prefix_capable);
        Self {
            config,
            dict,
            sources,
            all_verifying,
            unanchored_masks,
            prefix_source,
        }
    }

    /// Precomputes [`FuzzyDictionary::unanchored_mask`] for budgets 1
    /// and 2: bit `m` is set when some source applicable to `m`-token
    /// queries (fallback entries only count at the full two-edit
    /// budget) proposes without a vocabulary anchor.
    fn compute_unanchored_masks(sources: &[SourceEntry]) -> [u32; 2] {
        let mut masks = [0u32; 2];
        for (i, mask) in masks.iter_mut().enumerate() {
            let budget = i + 1;
            for m in 1..=31usize {
                let reachable = sources.iter().any(|e| {
                    m >= e.min_tokens
                        && m <= e.max_tokens
                        && (!e.fallback || budget >= 2)
                        && e.source.proposes_unanchored(m, budget)
                });
                if reachable {
                    *mask |= 1 << m;
                }
            }
        }
        masks
    }

    /// The config the dictionary was compiled with.
    pub fn config(&self) -> &FuzzyConfig {
        &self.config
    }

    /// The shared compiled dictionary.
    pub fn dict(&self) -> &Arc<CompiledDict> {
        &self.dict
    }

    /// Heap bytes of the candidate sources, each counted once however
    /// many chain entries share it. The compiled dictionary is the
    /// matcher's and is not included.
    pub fn heap_bytes(&self) -> usize {
        let mut seen: Vec<*const ()> = Vec::new();
        let mut bytes = 0;
        for entry in &self.sources {
            let ptr = Arc::as_ptr(&entry.source).cast::<()>();
            if !seen.contains(&ptr) {
                seen.push(ptr);
                bytes += entry.source.heap_bytes();
            }
        }
        bytes
    }

    /// Names of the candidate sources, in consultation order.
    pub fn source_names(&self) -> Vec<&'static str> {
        self.sources.iter().map(|s| s.source.name()).collect()
    }

    /// Appends a custom candidate source to the chain, consulted for
    /// every query token count. Proposal ids must be surface ids of
    /// [`FuzzyDictionary::dict`] (build any index over
    /// [`CompiledDict::surface_strs`], whose order coincides with
    /// surface ids). Sources are consulted in insertion order;
    /// resolution semantics (verification, budgets, tie rules) apply
    /// uniformly, so adding a source can only widen recall.
    pub fn push_source(&mut self, source: Arc<dyn CandidateSource + Send + Sync>) {
        self.all_verifying = self.all_verifying && source.needs_verification();
        self.sources.push(SourceEntry::new(source, 1, usize::MAX));
        self.unanchored_masks = Self::compute_unanchored_masks(&self.sources);
        self.prefix_source = self.sources.iter().position(|e| e.prefix_capable);
    }

    /// Whether every chain source verifies its proposals with an edit
    /// distance — the precondition for [`CompiledDict::can_reach`]
    /// window pruning to be sound (see [`crate::EntityMatcher`]).
    pub fn all_verifying(&self) -> bool {
        self.all_verifying
    }

    /// Whether a window of `n_tokens` tokens at edit budget `budget`
    /// containing **no** in-vocabulary token can resolve under this
    /// chain. `false` is the segmenter's cheapest window skip: no
    /// applicable source can propose for such a window, so neither
    /// memoization nor generation is worth starting.
    pub fn may_resolve_unanchored(&self, n_tokens: usize, budget: usize) -> bool {
        if budget == 0 {
            // Only a non-verifying source could fire; those are
            // content-free and the masks conservatively cover them at
            // budget 1, which the caller uses for budget 0 too.
            return self.unanchored_masks[0] >> n_tokens.min(31) & 1 == 1;
        }
        self.unanchored_masks[budget.clamp(1, 2) - 1] >> n_tokens.min(31) & 1 == 1
    }

    /// Number of indexed surfaces.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Resolves an already-normalized string approximately.
    ///
    /// Returns the unique entity whose surface sits at the minimum
    /// verified distance within budget, or `None` when nothing is close
    /// enough or the minimum is contested between entities. The caller
    /// handles the exact (distance 0) path; this method still returns
    /// an exact hit correctly if asked, since the surface's own runs
    /// and grams always pass the filters.
    pub fn resolve(&self, normalized: &str) -> Option<FuzzyMatch> {
        thread_local! {
            static SCRATCH: crate::dict::QueryScratch =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        SCRATCH.with_borrow_mut(|(bounds, ids)| {
            self.dict.map_query(normalized, bounds, ids);
            self.resolve_mapped(normalized, ids, normalized.chars().count())
        })
    }

    /// [`FuzzyDictionary::resolve`] when the caller already holds the
    /// window's dictionary token ids and char length — sparing a
    /// re-tokenization per window. `ids` must be the
    /// [`CompiledDict::map_query`] ids of `normalized`.
    pub(crate) fn resolve_mapped(
        &self,
        normalized: &str,
        ids: &[u32],
        chars: usize,
    ) -> Option<FuzzyMatch> {
        let budget = self.config.max_distance_for(chars);
        let edit_reachable = self.dict.can_reach(ids, chars, budget).edit_reachable;
        self.resolve_pruned(normalized, ids, budget, edit_reachable)
    }

    /// Whether any source in the chain supports per-position prefix
    /// generation — gates the segmenter's [`PrefixContext`] setup.
    pub(crate) fn has_prefix_source(&self) -> bool {
        self.prefix_source.is_some()
    }

    /// The resolution core, with the window's edit budget and
    /// [`CompiledDict::can_reach`] verdict already computed — see
    /// [`FuzzyDictionary::resolve_pruned_prefix`], which this wraps
    /// without per-position generation state.
    pub(crate) fn resolve_pruned(
        &self,
        normalized: &str,
        ids: &[u32],
        budget: usize,
        edit_reachable: bool,
    ) -> Option<FuzzyMatch> {
        self.resolve_pruned_prefix(
            normalized,
            ids,
            normalized.chars().count(),
            budget,
            edit_reachable,
            None,
        )
    }

    /// The resolution core with the window's edit budget, char length
    /// and [`CompiledDict::can_reach`] verdict already computed — the
    /// segmenter's entry point, which shares those with its own window
    /// pruning instead of recomputing them per resolution. When the
    /// segmenter also passes its position's [`PrefixContext`],
    /// prefix-capable sources draw proposals from one shared
    /// per-position probe pass ([`CandidateSource::propose_prefix`],
    /// prepared lazily here) instead of re-probing per window —
    /// byte-identical proposals either way, pinned by the index's own
    /// equivalence tests and the segmenter proptests. Either way the
    /// character-count bound drops proposals that cannot verify before
    /// they are counted, sorted or verified (see the module docs).
    pub(crate) fn resolve_pruned_prefix(
        &self,
        normalized: &str,
        ids: &[u32],
        chars: usize,
        budget: usize,
        edit_reachable: bool,
        mut prefix: Option<&mut PrefixContext<'_>>,
    ) -> Option<FuzzyMatch> {
        thread_local! {
            static PROPOSALS: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        // Window pruning: when every source verifies within the edit
        // budget, an edit-unreachable window cannot resolve — skip
        // generation and verification outright. (`can_reach` is also
        // false at budget 0, where only a non-verifying source could
        // fire.)
        if self.all_verifying && !edit_reachable {
            return None;
        }
        let m = ids.len();
        let bag = CharBag::of(normalized);
        let mut best: Option<(SurfaceId, usize)> = None;
        let mut contested = false;
        // Whether an earlier source proposed anything *before* the
        // bound: the fallback gate's reading, which the bound must not
        // change.
        let mut proposed_any = false;
        // A prefix-served source that came back empty after the bound:
        // whether it proposed anything before the bound is unknown,
        // since its collection pass dropped hits without knowing this
        // window.
        let mut unsure: Option<usize> = None;
        let mut bounded = 0u64;
        PROPOSALS.with_borrow_mut(|proposals| {
            for (entry_idx, entry) in self.sources.iter().enumerate() {
                if m < entry.min_tokens || m > entry.max_tokens {
                    continue;
                }
                // A fallback entry fires only when the multi-damage
                // case it exists for is live: earlier sources came up
                // empty (whether or not their proposals verified),
                // every window token is out of vocabulary, and the
                // budget affords one edit per token.
                if entry.fallback {
                    if budget < 2 || ids.iter().any(|&t| t != crate::dict::UNKNOWN_TOKEN) {
                        continue;
                    }
                    if let (false, Some(k)) = (proposed_any, unsure) {
                        proposals.clear();
                        self.sources[k]
                            .source
                            .propose(normalized, budget, proposals);
                        proposed_any = !proposals.is_empty();
                    }
                    if proposed_any {
                        continue;
                    }
                }
                let verified = entry.verified;
                if !verified && !edit_reachable {
                    continue;
                }
                // The character-count bound screens what a verifying
                // source proposes; a trusted source's hits resolve at
                // distance 0 whatever their edit distance.
                let bound = !verified && bound_enabled();
                let within =
                    |s: u32| !bound || self.dict.char_bag(SurfaceId::new(s)).bound(&bag) <= budget;
                proposals.clear();
                let from_prefix =
                    prefix.is_some() && self.prefix_source == Some(entry_idx) && budget > 0;
                if from_prefix {
                    let ctx = prefix.as_mut().expect("checked above");
                    if !ctx.prepared {
                        // One probe pass over the position's longest
                        // window serves every shorter window here. A
                        // surface holding more of some char than the
                        // whole longest window cannot verify against
                        // any prefix of it (see `CharBag::excess`).
                        let longest = CharBag::of(ctx.max_text);
                        let max_budget = ctx.max_budget;
                        entry.source.propose_prefix(
                            ctx.max_text,
                            max_budget,
                            &mut |s| {
                                let keep = !bound
                                    || self.dict.char_bag(SurfaceId::new(s)).excess(&longest)
                                        <= max_budget;
                                bounded += u64::from(!keep);
                                keep
                            },
                            ctx.hits,
                        );
                        ctx.prepared = true;
                    }
                    let mut window_dropped = 0u64;
                    entry.source.filter_prefix(
                        ctx.hits,
                        m,
                        chars,
                        budget,
                        &mut |s| {
                            let keep = within(s);
                            window_dropped += u64::from(!keep);
                            keep
                        },
                        proposals,
                    );
                    bounded += window_dropped;
                    let any = !proposals.is_empty() || window_dropped > 0;
                    proposed_any |= any;
                    if bound && !any {
                        unsure = Some(entry_idx);
                    }
                } else {
                    entry.source.propose(normalized, budget, proposals);
                    proposed_any |= !proposals.is_empty();
                    let before = proposals.len();
                    proposals.retain(|&s| within(s));
                    bounded += (before - proposals.len()) as u64;
                }
                crate::telemetry::CANDIDATES_PROPOSED.add(proposals.len() as u64);
                for &raw in proposals.iter() {
                    let sid = SurfaceId::new(raw);
                    let d = if verified {
                        0
                    } else {
                        // A char edit moves the token count by at most
                        // one, so a far token count cannot verify —
                        // reject before paying for the distance.
                        if self.dict.token_ids(sid).len().abs_diff(m) > budget {
                            continue;
                        }
                        // Both sides must afford the distance: a short
                        // surface does not become reachable just
                        // because the query is long.
                        let allowed =
                            budget.min(self.config.max_distance_for(self.dict.char_len(sid)));
                        if allowed == 0 {
                            continue;
                        }
                        match self.config.distance_within(
                            normalized,
                            self.dict.surface(sid),
                            allowed,
                        ) {
                            Some(d) => d,
                            None => continue,
                        }
                    };
                    crate::telemetry::CANDIDATES_VERIFIED.incr();
                    match best {
                        Some((_, bd)) if d > bd => {}
                        Some((bsid, bd)) if d == bd => {
                            // A second *entity* at the same distance
                            // makes the mention ambiguous; a same-entity
                            // tie keeps the lexicographically smallest
                            // surface. Each source proposes ids
                            // ascending, but a later source may propose
                            // a smaller id than the incumbent, so the
                            // comparison is explicit.
                            if self.dict.entity(sid) != self.dict.entity(bsid) {
                                contested = true;
                            } else if sid < bsid {
                                best = Some((sid, d));
                            }
                        }
                        _ => {
                            best = Some((sid, d));
                            contested = false;
                        }
                    }
                }
            }
        });
        crate::telemetry::CANDIDATES_BOUNDED.add(bounded);
        if contested {
            return None;
        }
        best.map(|(sid, distance)| FuzzyMatch {
            surface_id: sid,
            entity: self.dict.entity(sid),
            distance,
            surface: self.dict.surface_arc(sid),
        })
    }

    /// Whether any applicable source proposes at least one candidate
    /// for `normalized` at `budget` — consulted *unconditionally*
    /// (fallback gating ignored), so the answer over-approximates what
    /// resolution would actually consider. This is the conservative
    /// half of the segmented-dictionary footprint test
    /// (`crate::segment`): a window unrelated to every changed surface
    /// — no proposal from any source built over the changes, no
    /// vocabulary token shared, no exact hit — provably resolves the
    /// same before and after the change, because resolution only ever
    /// sees proposed candidates. The character-count bound is not
    /// applied here, and must not be: a proposal the bound rejects
    /// still gates the n-gram fallback, so a change that only adds such
    /// a proposal can still change how the window resolves.
    pub(crate) fn proposes_any(&self, normalized: &str, n_tokens: usize, budget: usize) -> bool {
        thread_local! {
            static PROPOSALS: std::cell::RefCell<Vec<u32>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        PROPOSALS.with_borrow_mut(|proposals| {
            self.sources.iter().any(|entry| {
                if n_tokens < entry.min_tokens || n_tokens > entry.max_tokens {
                    return false;
                }
                proposals.clear();
                entry.source.propose(normalized, budget, proposals);
                !proposals.is_empty()
            })
        })
    }
}

/// One verified candidate of the merged (base + overlay) resolution:
/// which segment owns the winning surface, its id *in that segment's
/// dictionary*, and the verified distance.
pub(crate) type MergedResolution = (bool, SurfaceId, usize);

/// Resolves one window against a segmented dictionary — the base
/// chain and the delta-overlay chain run side by side, reproducing the
/// monolithic resolution over the *merged* surface set byte for byte:
///
/// - both dictionaries are compiled with the same [`FuzzyConfig`], so
///   their source chains are structurally identical and are consulted
///   in lock-step (chain position `k` of the base, then of the
///   overlay) — the monolithic consultation order;
/// - base proposals for surfaces shadowed by a delta (overridden or
///   tombstoned) are dropped *before* they count toward the fallback
///   gate, exactly as if the surface were absent from a monolithic
///   recompile;
/// - the fallback's all-out-of-vocabulary gate runs against the
///   *merged* vocabulary: a base token carried only by tombstoned
///   surfaces is dead, a token introduced by a delta surface is live;
/// - the character-count bound drops a live proposal only after it
///   has counted toward the fallback gate, as in the monolithic pass;
/// - ties follow the monolithic rules — minimum distance wins, an
///   equal-distance tie between different entities is contested
///   (resolves to nothing), a same-entity tie keeps the
///   lexicographically smallest surface *string* (within one segment
///   that is id order; across segments the strings are compared
///   directly, and the same string can never appear live in both).
///
/// `edit_reachable` is the union of both dictionaries' reachability
/// screens — conservative over the merged surface set, and pruning is
/// results-invariant (the pruned ≡ unpruned property), so the union
/// is sound.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_merged_window(
    base: &FuzzyDictionary,
    over: &FuzzyDictionary,
    shadowed: impl Fn(u32) -> bool,
    dead_token: impl Fn(u32) -> bool,
    text: &str,
    base_ids: &[u32],
    over_ids: &[u32],
    budget: usize,
    edit_reachable: bool,
) -> Option<MergedResolution> {
    thread_local! {
        static PROPOSALS: std::cell::RefCell<Vec<u32>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    debug_assert_eq!(base.sources.len(), over.sources.len());
    debug_assert_eq!(base_ids.len(), over_ids.len());
    if base.all_verifying && !edit_reachable {
        return None;
    }
    let m = base_ids.len();
    let config = &base.config;
    let bag = CharBag::of(text);
    let verify = |dict: &CompiledDict, verified: bool, sid: SurfaceId| -> Option<usize> {
        if verified {
            return Some(0);
        }
        if dict.token_ids(sid).len().abs_diff(m) > budget {
            return None;
        }
        let allowed = budget.min(config.max_distance_for(dict.char_len(sid)));
        if allowed == 0 {
            return None;
        }
        config.distance_within(text, dict.surface(sid), allowed)
    };
    let mut best: Option<MergedResolution> = None;
    let mut contested = false;
    let mut proposed_any = false;
    let (mut proposed, mut bounded) = (0u64, 0u64);
    PROPOSALS.with_borrow_mut(|proposals| {
        for k in 0..base.sources.len() {
            let entry = &base.sources[k];
            if m < entry.min_tokens || m > entry.max_tokens {
                continue;
            }
            if entry.fallback
                && (proposed_any
                    || budget < 2
                    || (0..m).any(|i| {
                        (base_ids[i] != crate::dict::UNKNOWN_TOKEN && !dead_token(base_ids[i]))
                            || over_ids[i] != crate::dict::UNKNOWN_TOKEN
                    }))
            {
                continue;
            }
            let verified = entry.verified;
            if !verified && !edit_reachable {
                continue;
            }
            let bound = !verified && bound_enabled();
            // Base then overlay at the same chain position; the
            // accumulator below is order-invariant within a position
            // (explicit id/string comparisons), so this interleaving
            // reproduces the monolithic single-chain pass.
            for overlay_side in [false, true] {
                let (fd, side_entry) = if overlay_side {
                    (over, &over.sources[k])
                } else {
                    (base, entry)
                };
                proposals.clear();
                side_entry.source.propose(text, budget, proposals);
                let mut live_any = false;
                for &raw in proposals.iter() {
                    if !overlay_side && shadowed(raw) {
                        continue;
                    }
                    // Counted live before the bound: the fallback
                    // gate reads what was proposed, not what verifies.
                    live_any = true;
                    let sid = SurfaceId::new(raw);
                    if bound && fd.dict.char_bag(sid).bound(&bag) > budget {
                        bounded += 1;
                        continue;
                    }
                    proposed += 1;
                    let Some(d) = verify(&fd.dict, verified, sid) else {
                        continue;
                    };
                    crate::telemetry::CANDIDATES_VERIFIED.incr();
                    match best {
                        Some((_, _, bd)) if d > bd => {}
                        Some((bo, bsid, bd)) if d == bd => {
                            let bdict = if bo { &over.dict } else { &base.dict };
                            if fd.dict.entity(sid) != bdict.entity(bsid) {
                                contested = true;
                            } else if fd.dict.surface(sid) < bdict.surface(bsid) {
                                best = Some((overlay_side, sid, d));
                            }
                        }
                        _ => {
                            best = Some((overlay_side, sid, d));
                            contested = false;
                        }
                    }
                }
                proposed_any |= live_any;
            }
        }
    });
    crate::telemetry::CANDIDATES_PROPOSED.add(proposed);
    crate::telemetry::CANDIDATES_BOUNDED.add(bounded);
    if contested {
        return None;
    }
    best
}

#[cfg(test)]
mod bound_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> FuzzyDictionary {
        FuzzyDictionary::build(
            vec![
                ("canon eos 350d".into(), EntityId::new(2)),
                ("indiana jones 4".into(), EntityId::new(0)),
                ("indy 4".into(), EntityId::new(0)),
                ("madagascar 2".into(), EntityId::new(1)),
            ],
            FuzzyConfig::default(),
        )
    }

    #[test]
    fn budget_scales_with_length() {
        let c = FuzzyConfig::default();
        assert_eq!(c.max_distance_for(0), 0);
        assert_eq!(c.max_distance_for(3), 0);
        assert_eq!(c.max_distance_for(4), 1);
        assert_eq!(c.max_distance_for(8), 1);
        assert_eq!(c.max_distance_for(9), 2);
        assert_eq!(c.max_distance_for(40), 2);
        let capped = FuzzyConfig {
            max_distance: 1,
            ..FuzzyConfig::default()
        };
        assert_eq!(capped.max_distance_for(40), 1);
    }

    #[test]
    fn one_substitution_resolves() {
        let m = dict().resolve("cannon eos 350d").expect("fuzzy hit");
        assert_eq!(m.entity, EntityId::new(2));
        assert_eq!(m.surface(), "canon eos 350d");
        assert_eq!(m.distance, 1);
    }

    #[test]
    fn transposition_costs_one_by_default() {
        let m = dict().resolve("madagasacr 2").expect("fuzzy hit");
        assert_eq!(m.entity, EntityId::new(1));
        assert_eq!(m.distance, 1);
        let strict = FuzzyDictionary::build(
            vec![("madagascar 2".into(), EntityId::new(1))],
            FuzzyConfig {
                transpositions: false,
                ..FuzzyConfig::default()
            },
        );
        // Under plain Levenshtein the swap costs 2, still in budget for
        // a 12-char string.
        assert_eq!(strict.resolve("madagasacr 2").expect("hit").distance, 2);
    }

    #[test]
    fn short_strings_never_resolve_fuzzily() {
        // "indy 4" is 6 chars: budget 1. A 3-char query gets budget 0.
        assert!(dict().resolve("ind").is_none());
        // And a short *surface* is not reachable from a long query:
        // surface "indy 4" (6 chars) affords 1 edit, not 2.
        assert!(dict().resolve("inndy 44").is_none());
        assert!(dict().resolve("indy 44").is_some());
    }

    #[test]
    fn beyond_budget_is_rejected() {
        assert!(dict().resolve("canon eos 999x").is_none());
        assert!(dict().resolve("totally unrelated").is_none());
    }

    #[test]
    fn entity_tie_at_min_distance_is_ambiguous() {
        let d = FuzzyDictionary::build(
            vec![
                ("kodak z812".into(), EntityId::new(5)),
                ("kodak z712".into(), EntityId::new(6)),
            ],
            FuzzyConfig::default(),
        );
        // "kodak z912" is distance 1 from both → contested → None.
        assert!(d.resolve("kodak z912").is_none());
        // Distance 1 from exactly one → resolves.
        let m = d.resolve("kodak z8122").expect("unique hit");
        assert_eq!(m.entity, EntityId::new(5));
    }

    #[test]
    fn same_entity_tie_is_fine_and_deterministic() {
        let d = FuzzyDictionary::build(
            vec![
                ("indiana 4".into(), EntityId::new(0)),
                ("indiano 4".into(), EntityId::new(0)),
            ],
            FuzzyConfig::default(),
        );
        let m = d.resolve("indians 4").expect("hit");
        assert_eq!(m.entity, EntityId::new(0));
        // Lexicographically smallest surface at the tie wins.
        assert_eq!(m.surface(), "indiana 4");
    }

    #[test]
    fn empty_dictionary_resolves_nothing() {
        let d = FuzzyDictionary::build(Vec::new(), FuzzyConfig::default());
        assert!(d.is_empty());
        assert!(d.resolve("anything here").is_none());
    }

    #[test]
    fn default_chain_is_token_signature_plus_ngram() {
        // The n-gram index appears twice: the single-token generator
        // and the two-token fallback (same shared index).
        assert_eq!(dict().source_names(), vec!["token-sig", "ngram", "ngram"]);
        // All-out-of-vocabulary windows: two-token windows stay live
        // (de-spaced anchors at any budget, n-gram fallback at 2),
        // three-token windows only at the full budget (pair-key merge
        // plus one more space edit), wider windows are provably dead.
        assert!(dict().may_resolve_unanchored(2, 1));
        assert!(dict().may_resolve_unanchored(2, 2));
        assert!(!dict().may_resolve_unanchored(3, 1));
        assert!(dict().may_resolve_unanchored(3, 2));
        assert!(!dict().may_resolve_unanchored(4, 2));
        assert!(!dict().may_resolve_unanchored(8, 2));
        let full = FuzzyDictionary::build(
            vec![("indiana jones 4".into(), EntityId::new(0))],
            FuzzyConfig {
                abbrev: true,
                ..FuzzyConfig::default()
            },
        );
        assert_eq!(
            full.source_names(),
            vec!["token-sig", "ngram", "ngram", "abbrev"]
        );
        assert!(!full.all_verifying(), "abbrev disables window pruning");
        assert!(
            full.may_resolve_unanchored(7, 2),
            "abbrev proposes for any token count"
        );
        // Disabling the signature index restores the PR-3 chain.
        let plain = FuzzyDictionary::build(
            vec![("indiana jones 4".into(), EntityId::new(0))],
            FuzzyConfig {
                token_signature: false,
                ..FuzzyConfig::default()
            },
        );
        assert_eq!(plain.source_names(), vec!["ngram"]);
        assert!(plain.all_verifying());
        assert!(plain.may_resolve_unanchored(7, 2));
    }

    #[test]
    fn split_space_resolves_through_despaced_anchor() {
        // One inserted space splits a surface token: budget 1, both
        // query tokens damaged, recovered by the de-spaced concat key
        // (no n-gram fallback needed — it is gated to budget 2).
        let d = FuzzyDictionary::build(
            vec![("tvset".into(), EntityId::new(3))],
            FuzzyConfig::default(),
        );
        let m = d.resolve("tv set").expect("split-space hit");
        assert_eq!(m.entity, EntityId::new(3));
        assert_eq!(m.distance, 1);
    }

    #[test]
    fn merged_token_resolves_through_despaced_pair_key() {
        // "canoneos 350x" merges a surface pair and typos the tail:
        // the merged token is out of vocabulary yet equals the posted
        // de-spaced pair key "canoneos", so the surface is proposed
        // and verifies at distance 2.
        let d = FuzzyDictionary::build(
            vec![
                ("canon eos 350d".into(), EntityId::new(1)),
                ("nikon 350x".into(), EntityId::new(2)),
            ],
            FuzzyConfig::default(),
        );
        let m = d.resolve("canoneos 350x").expect("pair-key hit");
        assert_eq!(m.entity, EntityId::new(1));
        assert_eq!(m.distance, 2);
        // And the all-out-of-vocabulary three-token merge shape the
        // unanchored mask must keep live: one pair-key merge plus one
        // adjacent merge.
        let d = FuzzyDictionary::build(
            vec![("ab cd efgh".into(), EntityId::new(7))],
            FuzzyConfig::default(),
        );
        let m = d.resolve("abcd ef gh").expect("double space-damage hit");
        assert_eq!(m.entity, EntityId::new(7));
        assert_eq!(m.distance, 2);
    }

    #[test]
    fn two_token_window_with_both_tokens_damaged_falls_back_to_ngrams() {
        // One typo in each token: no intact run for the signature
        // index to anchor, so without the fallback nothing would be
        // proposed. The n-gram backstop keeps the PR-3 resolution.
        let d = FuzzyDictionary::build(
            vec![("canon eos".into(), EntityId::new(1))],
            FuzzyConfig::default(),
        );
        let m = d.resolve("canom eoz").expect("fallback hit");
        assert_eq!(m.entity, EntityId::new(1));
        assert_eq!(m.distance, 2);
        // When the signature index *does* anchor, the fallback stays
        // out of the way (same result either way here).
        let m = d.resolve("canom eos").expect("anchored hit");
        assert_eq!(m.distance, 1);
    }

    #[test]
    fn abbrev_source_resolves_transform_hits_at_distance_zero() {
        let d = FuzzyDictionary::build(
            vec![("lord of the rings".into(), EntityId::new(9))],
            FuzzyConfig {
                abbrev: true,
                ..FuzzyConfig::default()
            },
        );
        let m = d.resolve("lotr").expect("acronym hit");
        assert_eq!(m.entity, EntityId::new(9));
        assert_eq!(m.distance, 0);
        assert_eq!(m.surface(), "lord of the rings");
        // Without the source the acronym is hopeless (distance 13).
        assert!(dict().resolve("lotr").is_none());
    }

    #[test]
    fn abbrev_contested_between_entities_is_ambiguous() {
        let d = FuzzyDictionary::build(
            vec![
                ("lord of the rings".into(), EntityId::new(1)),
                ("legend of the ring".into(), EntityId::new(2)),
            ],
            FuzzyConfig {
                abbrev: true,
                ..FuzzyConfig::default()
            },
        );
        assert!(
            d.resolve("lotr").is_none(),
            "two entities claim the acronym"
        );
    }

    #[test]
    fn cross_source_same_entity_tie_keeps_smallest_surface() {
        // A later source proposing a *smaller* surface id at the same
        // distance must displace the incumbent, keeping the
        // lexicographic-tie invariant across the whole chain.
        struct Reversed(Vec<u32>);
        impl websyn_text::CandidateSource for Reversed {
            fn name(&self) -> &'static str {
                "reversed"
            }
            fn propose(&self, _query: &str, _max_dist: usize, out: &mut Vec<u32>) {
                out.extend(self.0.iter().rev());
            }
            fn heap_bytes(&self) -> usize {
                self.0.capacity() * 4
            }
        }
        let mut d = FuzzyDictionary::build(
            vec![
                ("indiana 4".into(), EntityId::new(0)),
                ("indiano 4".into(), EntityId::new(0)),
            ],
            FuzzyConfig::default(),
        );
        d.push_source(Arc::new(Reversed(vec![0, 1])));
        assert_eq!(
            d.source_names(),
            vec!["token-sig", "ngram", "ngram", "reversed"]
        );
        // Both surfaces are distance 1 from the query; whatever order
        // the sources propose them in, the smaller id wins.
        let m = d.resolve("indians 4").expect("hit");
        assert_eq!(m.surface(), "indiana 4");
        // And a later-source *different-entity* tie still contests.
        let mut contested = FuzzyDictionary::build(
            vec![
                ("kodak z812".into(), EntityId::new(5)),
                ("kodak z712".into(), EntityId::new(6)),
            ],
            FuzzyConfig::default(),
        );
        contested.push_source(Arc::new(Reversed(vec![0, 1])));
        assert!(contested.resolve("kodak z912").is_none());
    }

    #[test]
    fn transform_source_keeps_verification_authoritative() {
        // With the abbreviation source chained, edit-distance proposals
        // are still verified: only the source's own transform hits
        // skip verification.
        let d = FuzzyDictionary::build(
            vec![("indiana jones".into(), EntityId::new(0))],
            FuzzyConfig {
                abbrev: true,
                ..FuzzyConfig::default()
            },
        );
        // A typo one edit away: proposed by the signature index,
        // verified at distance 1.
        let m = d.resolve("indianna jones").expect("hit");
        assert_eq!(m.distance, 1);
        // Four edits away and no transform of the surface: rejected.
        assert!(d.resolve("indynni jones").is_none());
    }
}
