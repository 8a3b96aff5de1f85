//! Flat ≡ hash map: the token-signature index the CSR layout replaced
//! is kept here verbatim as an oracle, and every query form must
//! answer identically on both — `propose` at every budget, the
//! per-position `propose_prefix` hits (ids, geometry and order) and
//! each prefix window's `filter_prefix`, with and without `keep`
//! screens — on random dictionaries with empty surfaces, repeated
//! tokens, a single surface, and é, ß, CJK and emoji text.

use super::{token_offsets, Occurrence, TokenPos};
use crate::candidate::{CandidateSource, PrefixHit};
use crate::TokenSignatureIndex;
use proptest::prelude::*;
use websyn_common::FxHashMap;

/// The hash-map index: one owned key and one `Vec` per posted run.
#[derive(Debug, Clone, Default)]
struct HashTokenSignatureIndex {
    /// token text / de-spaced pair text → occurrences, in ascending
    /// (surface, offset) order.
    postings: FxHashMap<Box<str>, Vec<Occurrence>>,
    /// Char length of each surface, by id.
    lengths: Vec<u32>,
    /// Token count of each surface, by id.
    token_counts: Vec<u32>,
}

impl HashTokenSignatureIndex {
    /// Indexes `surfaces`. Ids are build-order positions. Empty
    /// surfaces are kept (they occupy an id) but post no keys and are
    /// never proposed.
    pub fn build<S: AsRef<str>>(surfaces: impl IntoIterator<Item = S>) -> Self {
        let mut postings: FxHashMap<Box<str>, Vec<Occurrence>> = FxHashMap::default();
        let mut lengths = Vec::new();
        let mut token_counts = Vec::new();
        let mut tokens: Vec<TokenPos> = Vec::new();
        let mut despaced = String::new();
        for (id, surface) in surfaces.into_iter().enumerate() {
            let surface = surface.as_ref();
            let id = u32::try_from(id).expect("more than u32::MAX surfaces");
            token_offsets(surface, &mut tokens);
            lengths.push(surface.chars().count() as u32);
            token_counts.push(tokens.len() as u32);
            for (i, a) in tokens.iter().enumerate() {
                let token = &surface[a.byte_start as usize..a.byte_end as usize];
                postings
                    .entry(Box::from(token))
                    .or_default()
                    .push(Occurrence {
                        surface: id,
                        offset: a.char_start,
                    });
                // De-spaced adjacent pair: the space-damage anchor.
                if let Some(b) = tokens.get(i + 1) {
                    despaced.clear();
                    despaced.push_str(token);
                    despaced.push_str(&surface[b.byte_start as usize..b.byte_end as usize]);
                    postings
                        .entry(Box::from(despaced.as_str()))
                        .or_default()
                        .push(Occurrence {
                            surface: id,
                            offset: a.char_start,
                        });
                }
            }
        }
        // Build order visits surfaces ascending, so each posting list
        // is already (surface, offset)-sorted.
        Self {
            postings,
            lengths,
            token_counts,
        }
    }

    /// Number of indexed surfaces.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// Whether the index holds no surfaces.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Number of distinct posted runs.
    pub fn n_runs(&self) -> usize {
        self.postings.len()
    }

    /// Char length of surface `id` as recorded at build time.
    pub fn surface_len(&self, id: u32) -> usize {
        self.lengths[id as usize] as usize
    }

    /// Token count of surface `id` as recorded at build time.
    pub fn surface_tokens(&self, id: u32) -> usize {
        self.token_counts[id as usize] as usize
    }

    /// [`CandidateSource::propose`] into a caller-owned buffer,
    /// appending without clearing (the allocation-free form). Proposes
    /// nothing for single-token or empty queries, or at `max_dist` 0.
    ///
    /// Every query token is probed against the postings regardless of
    /// any dictionary-vocabulary knowledge the caller holds: an
    /// out-of-vocabulary token can still equal a posted *de-spaced
    /// pair* key (a merged-space typo, "canoneos"), so skipping it
    /// would silently lose within-budget matches. The probe is one
    /// hash lookup per token either way.
    pub fn candidates_into(&self, query: &str, max_dist: usize, out: &mut Vec<u32>) {
        if max_dist == 0 || self.is_empty() {
            return;
        }
        thread_local! {
            static SCRATCH: std::cell::RefCell<(Vec<TokenPos>, String)> =
                const { std::cell::RefCell::new((Vec::new(), String::new()) )};
        }
        SCRATCH.with_borrow_mut(|(tokens, despaced)| {
            token_offsets(query, tokens);
            let m = tokens.len();
            if m < 2 {
                return;
            }
            // Queries are normalized (no trailing spaces), so the last
            // token's end is the query's char length.
            let q_len = tokens[m - 1].char_end;
            let k = max_dist as u32;
            let start = out.len();
            let filter_push = |occurrences: &[Occurrence], at: u32, out: &mut Vec<u32>| {
                for occ in occurrences {
                    let s = occ.surface as usize;
                    if self.lengths[s].abs_diff(q_len) <= k
                        && self.token_counts[s].abs_diff(m as u32) <= k
                        && occ.offset.abs_diff(at) <= k
                    {
                        out.push(occ.surface);
                    }
                }
            };
            // Token anchors: intact tokens, and merged-space query
            // tokens hitting a de-spaced pair key.
            for a in tokens.iter() {
                let token = &query[a.byte_start as usize..a.byte_end as usize];
                if let Some(occurrences) = self.postings.get(token) {
                    filter_push(occurrences, a.char_start, out);
                }
            }
            // Space-damage anchor, for two-token windows (one space to
            // account for): the de-spaced window matches a surface
            // token (split-out space, "tv set" → "tvset") or a posted
            // de-spaced pair (space/letter transposition, "th ebest" →
            // "the best"). Wider windows would need every space
            // accounted for and are left to the documented residual.
            if m == 2 {
                despaced.clear();
                for t in tokens.iter() {
                    despaced.push_str(&query[t.byte_start as usize..t.byte_end as usize]);
                }
                if let Some(occurrences) = self.postings.get(despaced.as_str()) {
                    filter_push(occurrences, 0, out);
                }
            }
            // Sort + dedup only the appended region, preserving the
            // buffer contract shared with the other sources.
            out[start..].sort_unstable();
            let mut w = start;
            for r in start..out.len() {
                if w == start || out[w - 1] != out[r] {
                    out[w] = out[r];
                    w += 1;
                }
            }
            out.truncate(w);
        })
    }
}

impl HashTokenSignatureIndex {
    /// One probe pass for every token-aligned prefix window of
    /// `query`: each query token (and the two-token de-spaced concat)
    /// hits the postings exactly once, instead of once per window
    /// length containing it. Collected hits carry the anchor geometry,
    /// pre-screened only by window-*independent* bounds — the aligned
    /// offset (identical for every prefix, since all prefixes share
    /// the query's start) and the *upper* length/token-count bands of
    /// the longest prefix (shorter prefixes only tighten those caps
    /// downward; their lower bands must wait for
    /// [`TokenSignatureIndex::filter_prefix`]). `keep` screens each
    /// hit that passes those bounds.
    fn propose_prefix(
        &self,
        query: &str,
        max_dist: usize,
        keep: &mut dyn FnMut(u32) -> bool,
        out: &mut Vec<PrefixHit>,
    ) -> bool {
        if max_dist == 0 || self.is_empty() {
            return true;
        }
        thread_local! {
            static SCRATCH: std::cell::RefCell<(Vec<TokenPos>, String)> =
                const { std::cell::RefCell::new((Vec::new(), String::new()) )};
        }
        SCRATCH.with_borrow_mut(|(tokens, despaced)| {
            token_offsets(query, tokens);
            let m = tokens.len();
            if m < 2 {
                // No multi-token prefix exists; single-token windows
                // are out of scope exactly as in `propose`.
                return;
            }
            let k = max_dist as u32;
            let token_cap = m as u32 + k;
            let len_cap = tokens[m - 1].char_end + k;
            let mut collect = |occurrences: &[Occurrence],
                               at: u32,
                               token_index: u32,
                               out: &mut Vec<PrefixHit>| {
                for occ in occurrences {
                    let s = occ.surface as usize;
                    if occ.offset.abs_diff(at) <= k
                        && self.token_counts[s] <= token_cap
                        && self.lengths[s] <= len_cap
                        && keep(occ.surface)
                    {
                        out.push(PrefixHit {
                            surface: occ.surface,
                            token_index,
                            query_offset: at,
                            surface_offset: occ.offset,
                        });
                    }
                }
            };
            for (ti, a) in tokens.iter().enumerate() {
                let token = &query[a.byte_start as usize..a.byte_end as usize];
                if let Some(occurrences) = self.postings.get(token) {
                    collect(occurrences, a.char_start, ti as u32, out);
                }
            }
            // The two-token prefix's space-damage probe (see
            // `candidates_into`): fixed per position, probed once.
            despaced.clear();
            for t in &tokens[..2] {
                despaced.push_str(&query[t.byte_start as usize..t.byte_end as usize]);
            }
            if let Some(occurrences) = self.postings.get(despaced.as_str()) {
                collect(occurrences, 0, PrefixHit::DESPACED, out);
            }
        });
        true
    }

    /// Replays [`TokenSignatureIndex::candidates_into`]'s filters for
    /// one prefix window over the pre-collected hits: same length
    /// band, token-count band and aligned-offset screen, then `keep`,
    /// then the same sort-and-dedup output contract — the proposals of
    /// `propose` that `keep` accepts, minus the per-window posting
    /// probes.
    fn filter_prefix(
        &self,
        hits: &[PrefixHit],
        n_tokens: usize,
        query_chars: usize,
        max_dist: usize,
        keep: &mut dyn FnMut(u32) -> bool,
        out: &mut Vec<u32>,
    ) {
        if max_dist == 0 || n_tokens < 2 {
            return;
        }
        let k = max_dist as u32;
        let t = n_tokens as u32;
        let q_len = query_chars as u32;
        let start = out.len();
        for hit in hits {
            let in_window = if hit.token_index == PrefixHit::DESPACED {
                n_tokens == 2
            } else {
                hit.token_index < t
            };
            if !in_window {
                continue;
            }
            let s = hit.surface as usize;
            if self.lengths[s].abs_diff(q_len) <= k
                && self.token_counts[s].abs_diff(t) <= k
                && hit.surface_offset.abs_diff(hit.query_offset) <= k
                && keep(hit.surface)
            {
                out.push(hit.surface);
            }
        }
        out[start..].sort_unstable();
        let mut w = start;
        for r in start..out.len() {
            if w == start || out[w - 1] != out[r] {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
    }
}

/// Joins token lists into single-spaced surfaces (an empty list is the
/// empty surface).
fn join_all(token_lists: &[Vec<String>]) -> Vec<String> {
    token_lists.iter().map(|t| t.join(" ")).collect()
}

/// Every `(hash map, flat)` answer for `query` must agree.
fn assert_same_answers(oracle: &HashTokenSignatureIndex, flat: &TokenSignatureIndex, query: &str) {
    // (collection screen, per-window screen): none, then one each.
    type Screen = fn(u32) -> bool;
    let screens: [(Screen, Screen); 2] = [(|_| true, |_| true), (|s| s % 4 != 1, |s| s % 3 != 2)];
    for k in 0..=3 {
        let (mut want, mut got) = (vec![u32::MAX], vec![u32::MAX]);
        oracle.candidates_into(query, k, &mut want);
        flat.propose(query, k, &mut got);
        assert_eq!(got, want, "propose {query:?} k={k}");
    }
    let token_ends: Vec<usize> = query
        .char_indices()
        .filter(|&(_, c)| c == ' ')
        .map(|(i, _)| i)
        .chain([query.len()])
        .collect();
    for (collect_keep, window_keep) in screens {
        for k_max in 0..=2 {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            oracle.propose_prefix(query, k_max, &mut { collect_keep }, &mut want);
            assert!(flat.propose_prefix(query, k_max, &mut { collect_keep }, &mut got));
            assert_eq!(got, want, "propose_prefix {query:?} k_max={k_max}");
            for (t, &end) in token_ends.iter().enumerate() {
                let chars = query[..end].chars().count();
                for k in 0..=k_max {
                    let (mut want_w, mut got_w) = (vec![7u32], vec![7u32]);
                    oracle.filter_prefix(&want, t + 1, chars, k, &mut { window_keep }, &mut want_w);
                    flat.filter_prefix(&got, t + 1, chars, k, &mut { window_keep }, &mut got_w);
                    assert_eq!(
                        got_w,
                        want_w,
                        "filter_prefix {query:?} tokens={} k={k}",
                        t + 1
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_index_matches_hash_map_oracle(
        dictionary in collection::vec(collection::vec("[abéß東😀]{1,3}", 0..5), 1..14),
        queries in collection::vec(collection::vec("[abéß東😀]{1,3}", 1..6), 1..8),
    ) {
        let surfaces = join_all(&dictionary);
        let oracle = HashTokenSignatureIndex::build(&surfaces);
        let flat = TokenSignatureIndex::build(&surfaces);
        prop_assert_eq!(flat.len(), oracle.len());
        prop_assert_eq!(flat.is_empty(), oracle.is_empty());
        prop_assert_eq!(flat.n_runs(), oracle.n_runs());
        for id in 0..flat.len() as u32 {
            prop_assert_eq!(flat.surface_len(id), oracle.surface_len(id));
            prop_assert_eq!(flat.surface_tokens(id), oracle.surface_tokens(id));
        }
        // Random queries, and every surface as a query (its own runs
        // all hit).
        for query in join_all(&queries).iter().chain(&surfaces) {
            assert_same_answers(&oracle, &flat, query);
        }
    }
}

#[test]
fn flat_index_matches_hash_map_oracle_on_repeated_runs() {
    // Repeated tokens inside one surface, a token equal to another
    // surface's de-spaced pair, and a lone surface.
    for surfaces in [
        vec!["ab a b ab", "aba b", "a b", "", "ab"],
        vec!["東京 東京 京"],
        vec!["ß😀 é ß😀é", "ß😀é"],
    ] {
        let oracle = HashTokenSignatureIndex::build(&surfaces);
        let flat = TokenSignatureIndex::build(&surfaces);
        assert_eq!(flat.n_runs(), oracle.n_runs());
        for query in [
            "ab a b",
            "a ba b ab",
            "東京 東京",
            "ß😀 é",
            "ß😀é x",
            "a b ab a b",
        ] {
            assert_same_answers(&oracle, &flat, query);
        }
    }
}
