//! Token-level signature index for multi-token fuzzy candidate
//! generation.
//!
//! The char n-gram index ([`crate::ngram_index::NgramIndex`]) treats a
//! query window as one flat character string: every probe hashes every
//! padded gram of the window and scans posting lists shared by *any*
//! surface containing those characters. For multi-token windows that is
//! both slower and looser than it needs to be — after normalization the
//! window already has token structure, and a surface within a small
//! edit budget of a multi-token window almost always shares one of the
//! window's token *runs* verbatim (an edit damages the token it lands
//! in; the neighbours survive intact).
//!
//! [`TokenSignatureIndex`] exploits that with two key families:
//!
//! - every **token** of every surface, keyed by its text — the anchor
//!   for typo-class damage (the intact neighbours of a damaged token
//!   propose the true surface);
//! - every **de-spaced adjacent pair** (`"canon eos"` posted as
//!   `"canoneos"`) — the anchor for *space* damage: a query whose
//!   space was split out ("tv set" for surface token "tvset") or
//!   transposed with a letter ("th ebest" for "the best") concatenates
//!   to exactly a posted key, where no intact token exists to anchor.
//!   Query side, a two-token window's de-spaced concatenation is
//!   probed (its single space is the one edit being repaired; wider
//!   windows would need every space accounted for and are left to the
//!   documented residual).
//!
//! Every posting hit is pruned with three integer filters before the
//! caller pays for edit-distance verification:
//!
//! - **length band** — `|surface_chars − query_chars| ≤ k`;
//! - **token count** — a char edit inserts or deletes at most one
//!   space, so `|surface_tokens − query_tokens| ≤ k`;
//! - **aligned offset** — if an alignment within budget `k` matches the
//!   shared content on both sides, the prefixes before it differ by at
//!   most `k` edits, so the char offsets differ by at most `k`. A
//!   surface containing the anchor far from where the query has it is
//!   rejected without any distance computation.
//!
//! The per-position form ([`CandidateSource::propose_prefix`] and
//! [`CandidateSource::filter_prefix`]) applies one more, caller-supplied
//! screen after these three: a `keep` predicate over surface ids. The
//! fuzzy resolver passes the character-count bound
//! ([`crate::CharBag`]), which rejects most anchored hits before they
//! are sorted, deduplicated or verified. The index itself holds no
//! character counts; the resolver keeps the one array it shares with
//! its verifier.
//!
//! # Layout
//!
//! The postings are one compressed-sparse-row (CSR) table: every posted
//! run's text sits in one arena behind a `u32` open-addressing table
//! ([`websyn_common::StringInterner`]), which maps a probe to a run
//! id; `u32` offsets per run id delimit that run's slice of one
//! occurrence array. The whole index is a handful of flat arrays,
//! however many runs it posts, and [`TokenSignatureIndex::build`]
//! fills them by counting, not by growing one list per run.
//!
//! The index is a *filter* in the same sense as the n-gram index:
//! proposals must still be verified, and a window whose every token
//! was damaged beyond the space cases above may propose nothing (the
//! chain keeps the char-gram source as the single-token generator and
//! as a gated two-token fallback). See
//! [`crate::candidate::CandidateSource`].

use crate::candidate::{CandidateSource, PrefixHit};
use websyn_common::StringInterner;

/// One occurrence of a posted key inside a surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Occurrence {
    /// Surface id (build-order position).
    surface: u32,
    /// Char offset of the key's first token inside the surface.
    offset: u32,
}

/// An inverted index from surface tokens and de-spaced adjacent token
/// pairs to the surfaces containing them, with length-band,
/// token-count and aligned-offset filters applied at query time.
///
/// Ids are the 0-based positions of the surfaces in the order they
/// were passed to [`TokenSignatureIndex::build`], matching every other
/// candidate source built over the same surface list.
///
/// # Examples
///
/// ```
/// use websyn_text::{CandidateSource, TokenSignatureIndex};
///
/// let idx = TokenSignatureIndex::build(["canon eos 350d", "nikon d80"]);
/// let mut out = Vec::new();
/// // A typo in one token: the intact runs anchor the true surface.
/// idx.propose("cannon eos 350d", 1, &mut out);
/// assert_eq!(out, vec![0]);
/// out.clear();
/// // Single-token queries are out of scope (no intact run can anchor
/// // a damaged lone token): pair the index with a char-gram source.
/// idx.propose("cannon", 1, &mut out);
/// assert!(out.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TokenSignatureIndex {
    /// Posted runs (token text / de-spaced pair text), one arena behind
    /// a `u32` table; a run's id indexes `starts`.
    keys: StringInterner<u32>,
    /// `occurrences[starts[k] .. starts[k + 1]]` are run `k`'s
    /// occurrences, in ascending (surface, offset) order; `keys.len() + 1`
    /// entries.
    starts: Vec<u32>,
    /// Every run's occurrences, concatenated in run-id order.
    occurrences: Vec<Occurrence>,
    /// Char length of each surface, by id.
    lengths: Vec<u32>,
    /// Token count of each surface, by id.
    token_counts: Vec<u32>,
}

/// One space-separated token of a query or surface: char-level
/// position (edit budgets are char-level) plus byte range (slicing is
/// byte-level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TokenPos {
    /// Char offset of the token's first char.
    char_start: u32,
    /// Char offset one past the token's last char.
    char_end: u32,
    /// Byte offset of the token's first byte.
    byte_start: u32,
    /// Byte offset one past the token's last byte.
    byte_end: u32,
}

/// Positions of every space-separated token of `s`, pushed into `out`
/// (cleared first). One pass; chars and bytes are tracked together so
/// neither slicing nor length math needs a second walk.
fn token_offsets(s: &str, out: &mut Vec<TokenPos>) {
    out.clear();
    let mut chars = 0u32;
    let mut start: Option<(u32, u32)> = None;
    for (byte, c) in s.char_indices() {
        if c == ' ' {
            if let Some((cs, bs)) = start.take() {
                out.push(TokenPos {
                    char_start: cs,
                    char_end: chars,
                    byte_start: bs,
                    byte_end: byte as u32,
                });
            }
        } else if start.is_none() {
            start = Some((chars, byte as u32));
        }
        chars += 1;
    }
    if let Some((cs, bs)) = start {
        out.push(TokenPos {
            char_start: cs,
            char_end: chars,
            byte_start: bs,
            byte_end: s.len() as u32,
        });
    }
}

/// Calls `f(run, char offset)` for every run `surface` posts, in
/// posting order: each token, then the de-spaced pair it starts (the
/// space-damage anchor). `tokens` are the surface's
/// [`token_offsets`]; `despaced` is scratch.
fn for_each_run(
    surface: &str,
    tokens: &[TokenPos],
    despaced: &mut String,
    mut f: impl FnMut(&str, u32),
) {
    for (i, a) in tokens.iter().enumerate() {
        let token = &surface[a.byte_start as usize..a.byte_end as usize];
        f(token, a.char_start);
        if let Some(b) = tokens.get(i + 1) {
            despaced.clear();
            despaced.push_str(token);
            despaced.push_str(&surface[b.byte_start as usize..b.byte_end as usize]);
            f(despaced, a.char_start);
        }
    }
}

impl TokenSignatureIndex {
    /// Indexes `surfaces`. Ids are build-order positions. Empty
    /// surfaces are kept (they occupy an id) but post no keys and are
    /// never proposed.
    ///
    /// Two passes, no per-run allocation: the first interns every run a
    /// surface posts and records the run ids in posting order; the
    /// second is a counting sort that writes each occurrence into its
    /// run's slice. Both passes visit surfaces (and, inside one,
    /// offsets) ascending, so each slice comes out
    /// (surface, offset)-sorted.
    pub fn build<S: AsRef<str>>(surfaces: impl IntoIterator<Item = S>) -> Self {
        let surfaces: Vec<S> = surfaces.into_iter().collect();
        let mut keys: StringInterner<u32> = StringInterner::new();
        let mut lengths = Vec::with_capacity(surfaces.len());
        let mut token_counts = Vec::with_capacity(surfaces.len());
        let mut posted: Vec<u32> = Vec::new();
        let mut tokens: Vec<TokenPos> = Vec::new();
        let mut despaced = String::new();
        for surface in &surfaces {
            let surface = surface.as_ref();
            token_offsets(surface, &mut tokens);
            lengths.push(surface.chars().count() as u32);
            token_counts.push(tokens.len() as u32);
            for_each_run(surface, &tokens, &mut despaced, |run, _| {
                posted.push(keys.intern(run));
            });
        }
        keys.shrink_to_fit();
        assert!(
            u32::try_from(posted.len()).is_ok(),
            "token-signature postings overflow u32 offsets"
        );
        let mut starts = vec![0u32; keys.len() + 1];
        for &key in &posted {
            starts[key as usize + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let mut occurrences = vec![
            Occurrence {
                surface: 0,
                offset: 0,
            };
            posted.len()
        ];
        let mut cursors = starts.clone();
        let mut next = posted.iter();
        for (id, surface) in surfaces.iter().enumerate() {
            let surface = surface.as_ref();
            let id = u32::try_from(id).expect("more than u32::MAX surfaces");
            token_offsets(surface, &mut tokens);
            for_each_run(surface, &tokens, &mut despaced, |_, offset| {
                let key = *next.next().expect("one run id per posted run");
                let cursor = &mut cursors[key as usize];
                occurrences[*cursor as usize] = Occurrence {
                    surface: id,
                    offset,
                };
                *cursor += 1;
            });
        }
        Self {
            keys,
            starts,
            occurrences,
            lengths,
            token_counts,
        }
    }

    /// The occurrences of run `key`, or `None` when nothing posts it.
    #[inline]
    fn postings(&self, key: &str) -> Option<&[Occurrence]> {
        let k = self.keys.get(key)? as usize;
        Some(&self.occurrences[self.starts[k] as usize..self.starts[k + 1] as usize])
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
        self.keys.len()
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
                if let Some(occurrences) = self.postings(token) {
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
                if let Some(occurrences) = self.postings(despaced) {
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

impl CandidateSource for TokenSignatureIndex {
    fn name(&self) -> &'static str {
        "token-sig"
    }

    fn propose(&self, query: &str, max_dist: usize, out: &mut Vec<u32>) {
        self.candidates_into(query, max_dist, out);
    }

    fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes()
            + (self.starts.capacity() + self.lengths.capacity() + self.token_counts.capacity()) * 4
            + self.occurrences.capacity() * std::mem::size_of::<Occurrence>()
    }

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
                if let Some(occurrences) = self.postings(token) {
                    collect(occurrences, a.char_start, ti as u32, out);
                }
            }
            // The two-token prefix's space-damage probe (see
            // `candidates_into`): fixed per position, probed once.
            despaced.clear();
            for t in &tokens[..2] {
                despaced.push_str(&query[t.byte_start as usize..t.byte_end as usize]);
            }
            if let Some(occurrences) = self.postings(despaced) {
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

    fn proposes_unanchored(&self, n_tokens: usize, max_dist: usize) -> bool {
        // Without an in-vocabulary token, a window can only resolve
        // through the space-damage anchors — a merged query token
        // equalling a de-spaced pair key, or the two-token de-spaced
        // concat. A two-token window needs one space edit; a
        // three-token window needs two (one pair-key merge plus one
        // adjacent merge of the remaining tokens, e.g. "abcd ef gh"
        // for surface "ab cd efgh"); four or more out-of-vocabulary
        // tokens cannot all be explained within a two-edit budget.
        (n_tokens == 2 && max_dist >= 1) || (n_tokens == 3 && max_dist >= 2)
    }
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::damerau_levenshtein;

    fn index() -> TokenSignatureIndex {
        TokenSignatureIndex::build([
            "canon eos 350d",
            "canon eos 400d",
            "nikon d80",
            "indiana jones 4",
            "indy 4",
        ])
    }

    #[test]
    fn exact_multi_token_string_is_its_own_candidate() {
        let idx = index();
        let mut out = Vec::new();
        idx.propose("canon eos 350d", 1, &mut out);
        assert!(out.contains(&0), "{out:?}");
    }

    #[test]
    fn one_typo_keeps_the_true_surface_via_intact_runs() {
        let idx = index();
        // Substitution, deletion, insertion, transposition — in any
        // token of the window.
        for q in [
            "cannon eos 350d",
            "canon eo 350d",
            "canon eos 3500d",
            "cnaon eos 350d",
            "canon eos 35d0",
        ] {
            let mut out = Vec::new();
            idx.propose(q, 2, &mut out);
            assert!(out.contains(&0), "{q:?} lost surface 0: {out:?}");
        }
    }

    #[test]
    fn merged_space_recalls_through_pair_runs() {
        // "canoneos 350d" deletes the space: the query token "canoneos"
        // anchors nothing, but the intact "350d" run does — and the
        // surface pair run "canon eos" is also posted, so the reverse
        // direction (query pair "eos 350d" vs a merged surface token)
        // works symmetrically.
        let idx = TokenSignatureIndex::build(["canon eos 350d", "canoneos 350x"]);
        let mut out = Vec::new();
        idx.propose("canoneos 350d", 2, &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn split_space_anchors_through_despaced_keys() {
        // The query split a space out of a surface token: no intact
        // token matches, but the de-spaced window does.
        let idx = TokenSignatureIndex::build(["tvset deluxe", "tvset"]);
        let mut out = Vec::new();
        idx.propose("tv set", 1, &mut out);
        assert_eq!(out, vec![1], "length band keeps only the true surface");
    }

    #[test]
    fn space_letter_transposition_anchors_through_despaced_pairs() {
        // "th ebest" is one OSA edit from "the best" (space ↔ 'e'):
        // both tokens are damaged, but the de-spaced window "thebest"
        // equals the posted de-spaced pair of the surface.
        let idx = TokenSignatureIndex::build(["the best", "the rest"]);
        let mut out = Vec::new();
        idx.propose("th ebest", 1, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn offset_filter_rejects_misplaced_anchors() {
        // Both surfaces contain the token "2", but only at offsets
        // compatible with where the query has it.
        let idx = TokenSignatureIndex::build(["madagascar 2", "2 fast furious"]);
        let mut out = Vec::new();
        idx.propose("madagascat 2", 1, &mut out);
        assert_eq!(out, vec![0], "anchor '2' at offset 11 vs 0 must filter");
    }

    #[test]
    fn token_count_and_length_filters_apply() {
        let idx = index();
        let mut out = Vec::new();
        // Shares the run "eos" but is 9 chars longer than any surface.
        idx.propose("canon eos 350d super zoom kit", 2, &mut out);
        assert!(out.is_empty(), "{out:?}");
        out.clear();
        // Shares "indiana jones" but the window has 5 tokens vs 3.
        idx.propose("indiana jones 4 x y", 2, &mut out);
        // Length filter also rejects here; either way nothing passes.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn single_token_and_zero_budget_propose_nothing() {
        let idx = index();
        let mut out = Vec::new();
        idx.propose("cannon", 2, &mut out);
        assert!(out.is_empty(), "single-token queries are out of scope");
        idx.propose("canon eos 350d", 0, &mut out);
        assert!(out.is_empty());
        idx.propose("", 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn proposals_are_sorted_deduped_and_appended() {
        let idx = index();
        let mut out = vec![99];
        idx.propose("canon eos 350e", 2, &mut out);
        assert_eq!(out[0], 99, "buffer prefix untouched");
        let appended = &out[1..];
        let mut sorted = appended.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(appended, sorted);
    }

    #[test]
    fn every_one_edit_neighbour_with_an_intact_token_survives() {
        // The documented recall contract: a multi-token query one edit
        // away from a surface always shares an intact token run, so
        // generation never loses it.
        let surfaces = ["canon eos 350d", "nikon d80 kit", "indiana jones 4"];
        let idx = TokenSignatureIndex::build(surfaces);
        for (id, s) in surfaces.iter().enumerate() {
            // Damage each char position by substitution.
            let chars: Vec<char> = s.chars().collect();
            for pos in 0..chars.len() {
                let mut q: Vec<char> = chars.clone();
                q[pos] = if q[pos] == 'q' { 'z' } else { 'q' };
                let q: String = q.into_iter().collect();
                let mut out = Vec::new();
                idx.propose(&q, 2, &mut out);
                assert!(
                    damerau_levenshtein(&q, s) > 2 || out.contains(&(id as u32)),
                    "{q:?} lost {s:?}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let idx = TokenSignatureIndex::build(std::iter::empty::<&str>());
        assert!(idx.is_empty());
        let mut out = Vec::new();
        idx.propose("a b", 2, &mut out);
        assert!(out.is_empty());
        let with_empty = TokenSignatureIndex::build(["", "a b"]);
        assert_eq!(with_empty.len(), 2);
        out.clear();
        with_empty.propose("a b", 1, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn prefix_form_matches_per_window_proposals() {
        use crate::candidate::PrefixHit;
        // The per-position contract: for every token-aligned prefix
        // window and every budget ≤ the collection budget,
        // filter_prefix over one propose_prefix pass must equal a
        // fresh propose over the window text, minus the ids either
        // `keep` screen rejects.
        let idx = TokenSignatureIndex::build([
            "canon eos 350d",
            "canon eos 400d",
            "nikon d80",
            "indiana jones 4",
            "indy 4",
            "tvset",
            "the best",
            "canoneos 350x",
        ]);
        let queries = [
            "cannon eos 350d best price",
            "canoneos 350d review",
            "tv set deluxe model",
            "th ebest of indiana jnoes 4",
            "canon eos 350d",
            "zzz yyy xxx",
            "2 fast furious",
        ];
        // (collection screen, per-window screen): none, then one each.
        type Screen = fn(u32) -> bool;
        let screens: [(Screen, Screen); 2] = [(|_| true, |_| true), (|s| s != 0, |s| s % 3 != 1)];
        for (collect_keep, window_keep) in screens {
            for query in queries {
                for k_max in 1usize..=2 {
                    let mut hits: Vec<PrefixHit> = Vec::new();
                    assert!(idx.propose_prefix(query, k_max, &mut { collect_keep }, &mut hits));
                    // Every token-aligned prefix of the query.
                    let token_ends: Vec<usize> = query
                        .char_indices()
                        .filter(|&(_, c)| c == ' ')
                        .map(|(i, _)| i)
                        .chain([query.len()])
                        .collect();
                    for (t, &end) in token_ends.iter().enumerate() {
                        let window = &query[..end];
                        let n_tokens = t + 1;
                        for k in 0..=k_max {
                            let mut direct = Vec::new();
                            idx.propose(window, k, &mut direct);
                            direct.retain(|&s| collect_keep(s) && window_keep(s));
                            let mut filtered = vec![7u32]; // prefix must survive
                            idx.filter_prefix(
                                &hits,
                                n_tokens,
                                window.chars().count(),
                                k,
                                &mut { window_keep },
                                &mut filtered,
                            );
                            assert_eq!(filtered[0], 7);
                            assert_eq!(
                                &filtered[1..],
                                &direct[..],
                                "window {window:?} k={k} k_max={k_max}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_ascii_surfaces_slice_correctly() {
        let idx = TokenSignatureIndex::build(["café noir 2", "tokyo 東京 3"]);
        assert_eq!(idx.surface_len(0), 11);
        let mut out = Vec::new();
        idx.propose("cafe noir 2", 1, &mut out);
        assert_eq!(out, vec![0], "intact runs anchor across non-ascii");
    }
}
