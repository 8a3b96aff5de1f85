//! Equivalence of the compiled token-ID segmenter with its reference
//! implementations.
//!
//! Two generations of invariants live here:
//!
//! - **PR-3 vs PR-2**: the compiled token-ID dictionary (integer-slice
//!   probes) must reproduce the PR-2 String-keyed segmenter span for
//!   span. The fuzzy variant of that check pins
//!   `FuzzyConfig::token_signature = false`, because it replicates the
//!   PR-2 n-gram-only candidate chain.
//! - **PR-5 pruned vs unpruned**: the production fuzzy path now prunes
//!   windows through `CompiledDict::can_reach` and generates
//!   multi-token candidates from the token-run signature index. The
//!   pruning and the fast-path plumbing (single exact descent per
//!   position, window memoization, mapped-token resolution) must be
//!   invisible: a faithful *unpruned* replica of the same candidate
//!   chain — plain per-window loop, no reachability tables, no memo —
//!   must produce byte-identical `MatchSpan` streams on random
//!   dictionaries and typo'd queries.

use proptest::prelude::*;
use websyn::common::{EntityId, FxHashMap, FxHashSet};
use websyn::core::{EntityMatcher, FuzzyConfig, MatchSpan, WindowCache};
use websyn::text::{normalize, NgramIndex, TokenSignatureIndex};

/// A span projected to plain data, so reference and compiled spans
/// compare without sharing types.
type FlatSpan = (usize, usize, String, EntityId, usize);

fn flatten(spans: &[MatchSpan]) -> Vec<FlatSpan> {
    spans
        .iter()
        .map(|s| {
            (
                s.start,
                s.end,
                s.surface().to_string(),
                s.entity,
                s.distance,
            )
        })
        .collect()
}

/// The reference fuzzy side: sorted surfaces + the candidate chain the
/// config selects, verified with the bounded metric, with **no**
/// window pruning or memoization. With `token_signature` off this is
/// the PR-2 n-gram pipeline verbatim; with it on it is the faithful
/// unpruned replica of the PR-5 chain (token-run signatures for
/// multi-token queries, n-grams for single tokens). Copied, not
/// imported — the point is to pin behaviour independently.
struct ReferenceFuzzy {
    config: FuzzyConfig,
    surfaces: Vec<(String, EntityId)>,
    index: NgramIndex,
    signature: Option<TokenSignatureIndex>,
    /// Every token of every surface — "out of vocabulary" below means
    /// absent from this set.
    vocabulary: FxHashSet<String>,
}

impl ReferenceFuzzy {
    fn build(mut pairs: Vec<(String, EntityId)>, config: FuzzyConfig) -> Self {
        pairs.sort_unstable();
        let index = NgramIndex::build(pairs.iter().map(|(s, _)| s.as_str()), config.gram_size);
        let signature = config
            .token_signature
            .then(|| TokenSignatureIndex::build(pairs.iter().map(|(s, _)| s.as_str())));
        let vocabulary = pairs
            .iter()
            .flat_map(|(s, _)| s.split(' ').map(str::to_string))
            .collect();
        Self {
            config,
            surfaces: pairs,
            index,
            signature,
            vocabulary,
        }
    }

    fn resolve(&self, normalized: &str) -> Option<(String, EntityId, usize)> {
        let q_len = normalized.chars().count();
        let budget = self.config.max_distance_for(q_len);
        if budget == 0 {
            return None;
        }
        let tokens = normalized.split(' ').filter(|t| !t.is_empty()).count();
        let candidates = match &self.signature {
            Some(signature) if tokens >= 2 => {
                let mut out = Vec::new();
                signature.candidates_into(normalized, budget, &mut out);
                // Two-token fallback: when no intact run anchors, both
                // tokens are out of vocabulary and the full two-edit
                // budget is available, the char-gram index backstops
                // (mirrors the production chain's fallback entry).
                if out.is_empty()
                    && tokens == 2
                    && budget >= 2
                    && normalized.split(' ').all(|t| !self.vocabulary.contains(t))
                {
                    self.index.candidates_into(normalized, budget, &mut out);
                }
                out
            }
            _ => self.index.candidates(normalized, budget),
        };
        let mut best: Option<(String, EntityId, usize)> = None;
        let mut contested = false;
        for id in candidates {
            let (surface, entity) = &self.surfaces[id as usize];
            let allowed = budget.min(self.config.max_distance_for(self.index.surface_len(id)));
            if allowed == 0 {
                continue;
            }
            let Some(d) = self.config.distance_within(normalized, surface, allowed) else {
                continue;
            };
            match &best {
                Some((_, _, bd)) if d > *bd => {}
                Some((_, be, bd)) if d == *bd => {
                    if entity != be {
                        contested = true;
                    }
                }
                _ => {
                    best = Some((surface.clone(), *entity, d));
                    contested = false;
                }
            }
        }
        if contested {
            None
        } else {
            best
        }
    }
}

/// The PR-2 matcher: String-keyed exact dictionary, `join(" ")` per
/// window, fuzzy fallback inside the same window loop.
struct ReferenceMatcher {
    surfaces: FxHashMap<String, EntityId>,
    max_tokens: usize,
    fuzzy: Option<ReferenceFuzzy>,
}

impl ReferenceMatcher {
    fn from_pairs(pairs: &[(String, EntityId)], fuzzy: Option<FuzzyConfig>) -> Self {
        let mut surfaces: FxHashMap<String, EntityId> = FxHashMap::default();
        let mut banned: FxHashSet<String> = FxHashSet::default();
        for (raw, entity) in pairs {
            let surface = normalize(raw);
            if surface.is_empty() || banned.contains(&surface) {
                continue;
            }
            match surfaces.get(&surface) {
                None => {
                    surfaces.insert(surface, *entity);
                }
                Some(&existing) if existing == *entity => {}
                Some(_) => {
                    surfaces.remove(&surface);
                    banned.insert(surface);
                }
            }
        }
        let max_tokens = surfaces
            .keys()
            .map(|s| s.split(' ').count())
            .max()
            .unwrap_or(0);
        let fuzzy = fuzzy.map(|config| {
            let pairs: Vec<(String, EntityId)> =
                surfaces.iter().map(|(s, &e)| (s.clone(), e)).collect();
            ReferenceFuzzy::build(pairs, config)
        });
        Self {
            surfaces,
            max_tokens,
            fuzzy,
        }
    }

    fn segment(&self, query: &str) -> Vec<FlatSpan> {
        let normalized = normalize(query);
        let tokens: Vec<&str> = normalized.split(' ').filter(|t| !t.is_empty()).collect();
        let mut spans = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut matched = false;
            let longest = self.max_tokens.min(tokens.len() - i);
            for window in (1..=longest).rev() {
                let window_text = tokens[i..i + window].join(" ");
                if let Some(&entity) = self.surfaces.get(&window_text) {
                    spans.push((i, i + window, window_text, entity, 0));
                    i += window;
                    matched = true;
                    break;
                }
                if let Some(hit) = self.fuzzy.as_ref().and_then(|f| f.resolve(&window_text)) {
                    spans.push((i, i + window, hit.0, hit.1, hit.2));
                    i += window;
                    matched = true;
                    break;
                }
            }
            if !matched {
                i += 1;
            }
        }
        spans
    }
}

/// Applies one deterministic character edit to `s`, driven by `seed`:
/// substitution, deletion, insertion or adjacent transposition.
fn mutate(s: &str, seed: u64) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return s.to_string();
    }
    let pos = (seed / 4) as usize % chars.len();
    let letter = char::from(b'a' + (seed / 64 % 26) as u8);
    let mut out = chars.clone();
    match seed % 4 {
        0 => out[pos] = letter,
        1 => {
            out.remove(pos);
        }
        2 => out.insert(pos, letter),
        _ => {
            if pos + 1 < out.len() {
                out.swap(pos, pos + 1);
            } else {
                out[pos] = letter;
            }
        }
    }
    out.into_iter().collect()
}

/// Builds a query from the dictionary: each `(selector, seed)` segment
/// is a surface verbatim, a surface with one typo, or a noise word.
fn compose_query(surfaces: &[(String, EntityId)], segments: &[(usize, u64)]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for &(selector, seed) in segments {
        let surface = &surfaces[selector % surfaces.len()].0;
        match seed % 3 {
            0 => parts.push(surface.clone()),
            1 => parts.push(mutate(surface, seed / 3)),
            _ => parts.push(format!("noise{}", seed % 97)),
        }
    }
    parts.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact path: identical span streams with fuzzy disabled.
    #[test]
    fn exact_segmenter_matches_reference(
        pairs in collection::vec(("[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6), 1..14),
        segments in collection::vec((0usize..64, 0u64..1_000_000_000), 1..5),
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        let reference = ReferenceMatcher::from_pairs(&pairs, None);
        let compiled = EntityMatcher::from_pairs(pairs.clone());
        let query = compose_query(&pairs, &segments);
        prop_assert_eq!(flatten(&compiled.segment(&query)), reference.segment(&query));
        // The dictionary surfaces themselves segment identically too.
        for (s, _) in &pairs {
            prop_assert_eq!(flatten(&compiled.segment(s)), reference.segment(s));
        }
    }

    /// PR-2 fuzzy parity: identical span streams (including distances
    /// and the ambiguity-drop rule) on the n-gram-only chain — the
    /// PR-2 reference predates the token-signature index, so the
    /// compiled matcher pins `token_signature: false` to compare like
    /// with like.
    #[test]
    fn fuzzy_segmenter_matches_reference(
        pairs in collection::vec(("[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6), 1..14),
        segments in collection::vec((0usize..64, 0u64..1_000_000_000), 1..5),
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        let config = FuzzyConfig {
            token_signature: false,
            ..FuzzyConfig::default()
        };
        let reference = ReferenceMatcher::from_pairs(&pairs, Some(config.clone()));
        let compiled = EntityMatcher::from_pairs(pairs.clone()).with_fuzzy(config);
        let query = compose_query(&pairs, &segments);
        prop_assert_eq!(flatten(&compiled.segment(&query)), reference.segment(&query));
        // Whole-query fuzzy lookup agrees as well.
        match (compiled.lookup_fuzzy(&query), reference.fuzzy.as_ref().unwrap().resolve(&normalize(&query))) {
            (Some(hit), Some((surface, entity, distance))) => {
                prop_assert_eq!(hit.surface(), surface.as_str());
                prop_assert_eq!(hit.entity, entity);
                prop_assert_eq!(hit.distance, distance);
            }
            (new, old) => {
                // Exact whole-query hits resolve before the fuzzy side;
                // the reference resolve still finds them at distance 0.
                let exact = compiled.lookup(&query);
                prop_assert!(
                    new.is_some() == (old.is_some() || exact.is_some()),
                    "lookup_fuzzy diverged: new={:?} old={:?} exact={:?}",
                    new.map(|h| h.surface().to_string()), old, exact
                );
            }
        }
    }

    /// PR-5 pruned ≡ unpruned: the production fuzzy path (window
    /// pruning through the dictionary's reachability tables, one exact
    /// descent per position, token-signature generation for
    /// multi-token windows, window memoization) must return
    /// byte-identical spans to the plain unpruned per-window replica
    /// of the same candidate chain, across random dictionaries and
    /// typo'd queries — pruning may only skip work, never change a
    /// result.
    #[test]
    fn pruned_token_signature_path_matches_unpruned_reference(
        pairs in collection::vec(("[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6), 1..14),
        segments in collection::vec((0usize..64, 0u64..1_000_000_000), 1..5),
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        let config = FuzzyConfig::default();
        prop_assert!(config.token_signature, "default must exercise the new chain");
        let reference = ReferenceMatcher::from_pairs(&pairs, Some(config.clone()));
        let compiled = EntityMatcher::from_pairs(pairs.clone()).with_fuzzy(config);
        let query = compose_query(&pairs, &segments);
        prop_assert_eq!(flatten(&compiled.segment(&query)), reference.segment(&query));
        // The memoized batch path agrees too (scratch is invisible).
        let batched = compiled.match_batch(std::slice::from_ref(&query), 1);
        prop_assert_eq!(flatten(&batched[0]), reference.segment(&query));
        // Dictionary surfaces themselves still segment identically.
        for (s, _) in &pairs {
            prop_assert_eq!(flatten(&compiled.segment(s)), reference.segment(s));
        }
    }

    /// The cross-batch window cache is a pure-function cache: spans
    /// are byte-identical with it attached and without — across
    /// repeated queries (warm entries), sharded batches, a tiny
    /// capacity (live eviction), and a rebuild-and-swap that shares
    /// the same cache with a different dictionary (entries stamped with
    /// another fuzzy dictionary's uid stay invisible, in both swap
    /// directions).
    #[test]
    fn window_cache_is_invisible_to_spans(
        pairs in collection::vec(("[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6), 2..14),
        seeds in collection::vec((0usize..64, 0u64..1_000_000_000), 1..4),
        n_queries in 1usize..10,
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        let plain = EntityMatcher::from_pairs(pairs.clone()).with_fuzzy(FuzzyConfig::default());
        // Tiny capacity so eviction is live in the test.
        let cache = std::sync::Arc::new(WindowCache::new(8));
        let cached = plain.clone().with_shared_window_cache(std::sync::Arc::clone(&cache));
        let queries: Vec<String> = (0..n_queries)
            .map(|i| {
                let shifted: Vec<(usize, u64)> = seeds
                    .iter()
                    .map(|&(sel, seed)| (sel + i, seed + i as u64))
                    .collect();
                compose_query(&pairs, &shifted)
            })
            .collect();
        let expected: Vec<Vec<FlatSpan>> =
            queries.iter().map(|q| flatten(&plain.segment(q))).collect();
        // Two passes: the second reads warm entries from the first.
        for _ in 0..2 {
            for (q, want) in queries.iter().zip(&expected) {
                prop_assert_eq!(&flatten(&cached.segment(q)), want);
            }
            let batched = cached.match_batch(&queries, 4);
            for (spans, want) in batched.iter().zip(&expected) {
                prop_assert_eq!(&flatten(spans), want);
            }
        }
        // Rebuild-and-swap: a different dictionary shares the same
        // cache — the warm entries above must be invisible to it.
        let mut swapped_pairs = pairs.clone();
        swapped_pairs.truncate(swapped_pairs.len().div_ceil(2));
        let swapped_plain =
            EntityMatcher::from_pairs(swapped_pairs).with_fuzzy(FuzzyConfig::default());
        let swapped =
            swapped_plain.clone().with_shared_window_cache(std::sync::Arc::clone(&cache));
        for q in &queries {
            prop_assert_eq!(flatten(&swapped.segment(q)), flatten(&swapped_plain.segment(q)));
        }
        // Swapping back must not resurrect the first dictionary's
        // pre-swap windows either.
        for (q, want) in queries.iter().zip(&expected) {
            prop_assert_eq!(&flatten(&cached.segment(q)), want);
        }
    }

    /// `match_batch` over the compiled core is shard-invariant: any
    /// shard count reproduces the sequential segmentation byte for
    /// byte.
    #[test]
    fn match_batch_is_shard_invariant(
        pairs in collection::vec(("[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6), 1..14),
        seeds in collection::vec((0usize..64, 0u64..1_000_000_000), 1..4),
        n_queries in 1usize..20,
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        let matcher = EntityMatcher::from_pairs(pairs.clone()).with_fuzzy(FuzzyConfig::default());
        let queries: Vec<String> = (0..n_queries)
            .map(|i| {
                let shifted: Vec<(usize, u64)> = seeds
                    .iter()
                    .map(|&(sel, seed)| (sel + i, seed + i as u64))
                    .collect();
                compose_query(&pairs, &shifted)
            })
            .collect();
        let sequential: Vec<Vec<MatchSpan>> =
            queries.iter().map(|q| matcher.segment(q)).collect();
        for shards in [1usize, 2, 3, 7, 16, 64] {
            prop_assert_eq!(&matcher.match_batch(&queries, shards), &sequential, "shards={}", shards);
        }
    }
}
