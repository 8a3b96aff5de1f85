//! Pluggable candidate generation for approximate dictionary lookup.
//!
//! Every approximate matcher in the workspace has the same two-stage
//! shape: a cheap *generation* stage proposes a handful of dictionary
//! surface ids for a query string, and a *verification* stage decides
//! which proposal (if any) actually resolves. Before this module each
//! consumer hard-wired its own generator — the entity matcher an n-gram
//! signature index, the spelling corrector first-character/length
//! buckets — which made the generators impossible to combine or swap.
//!
//! [`CandidateSource`] is the shared generation interface (cf.
//! Endrullis et al., "Evaluation of Query Generators for Entity Search
//! Engines", which evaluates exactly such pluggable generator stacks).
//! A source proposes ids into a caller-owned buffer; the caller applies
//! its own verification and selection policy. Two generators live
//! here or nearby:
//!
//! - [`NgramIndex`](crate::ngram_index::NgramIndex) — character n-gram
//!   signatures with length/count filters (edit-distance recall);
//! - [`AbbrevIndex`] — precomputed systematic abbreviations
//!   ([`crate::abbrev`]): acronyms, stopword drops, numeral respells.
//!   Its proposals are deterministic transform hits, not edit-distance
//!   neighbours, so it reports `needs_verification() == false`.

use crate::abbrev;
use websyn_common::FxHashMap;

/// A generator of candidate surface ids for approximate lookup.
///
/// Ids are the 0-based build-order positions in whatever surface table
/// the caller indexed — every source built over the same surface list
/// proposes ids from the same space, which is what lets a resolver
/// chain sources. Proposals are suggestions only: unless
/// [`CandidateSource::needs_verification`] returns `false`, the caller
/// must verify each one with a real distance computation before
/// accepting it.
pub trait CandidateSource {
    /// Short stable name, for diagnostics and pipeline descriptions.
    fn name(&self) -> &'static str;

    /// Whether proposals still require edit-distance verification.
    /// Signature filters (n-grams, token runs) return `true`:
    /// they over-generate. Deterministic transform sources (abbrev)
    /// return `false`: a hit *is* the resolution, at transform
    /// distance 0.
    fn needs_verification(&self) -> bool {
        true
    }

    /// Pushes candidate ids for `query` at edit budget `max_dist` into
    /// `out` (which the caller has cleared), ascending and deduplicated
    /// within this source's own output.
    fn propose(&self, query: &str, max_dist: usize, out: &mut Vec<u32>);

    /// Heap bytes the source holds, summed from its buffers'
    /// capacities — what the serving dictionary reports as its memory.
    fn heap_bytes(&self) -> usize;

    /// Whether a query of `n_tokens` tokens at edit budget `max_dist`
    /// can produce a **within-budget** proposal even when none of its
    /// tokens occurs verbatim in an indexed surface. Content-free and
    /// transform generators (grams, abbreviations)
    /// conservatively say `true` for every shape; anchor-keyed
    /// postings (the token-signature index) say `true` only where a
    /// space-damage anchor can still verify. Resolvers use a `false`
    /// across every applicable source to skip all-out-of-vocabulary
    /// queries without any generation work — sound because such a
    /// query's *resolution* is then provably empty (over-generated
    /// proposals that cannot verify do not count).
    fn proposes_unanchored(&self, n_tokens: usize, max_dist: usize) -> bool {
        let _ = (n_tokens, max_dist);
        true
    }

    /// Per-position generation: collect, in **one** pass over `query`
    /// (the longest window starting at a segmenter position), anchored
    /// hits valid for *every* token-aligned prefix window of it, at
    /// the loosest budget any prefix will use (`max_dist`). The caller
    /// then extracts each prefix window's proposals with
    /// [`CandidateSource::filter_prefix`], instead of paying one
    /// [`CandidateSource::propose`] per (position, window-length)
    /// pair.
    ///
    /// `keep` is the caller's exact screen, consulted once per hit that
    /// passes the source's own filters: a hit whose surface it rejects
    /// is not collected. The caller guarantees that `keep` rejects only
    /// surfaces that no prefix window can verify at its budget (the
    /// fuzzy resolver passes the character-count bound against the
    /// longest window, see [`crate::CharBag::excess`]), so dropping
    /// them early changes which ids reach verification, never a
    /// result.
    ///
    /// Returns `true` when the source supports this form (and has
    /// appended its hits); the default returns `false` and callers
    /// fall back to per-window `propose`.
    fn propose_prefix(
        &self,
        query: &str,
        max_dist: usize,
        keep: &mut dyn FnMut(u32) -> bool,
        out: &mut Vec<PrefixHit>,
    ) -> bool {
        let _ = (query, max_dist, keep, out);
        false
    }

    /// Extracts the proposals for one prefix window of the query that
    /// [`CandidateSource::propose_prefix`] scanned: the window's first
    /// `n_tokens` tokens, `query_chars` chars, at edit budget
    /// `max_dist` (≤ the collection budget). Appends to `out` exactly
    /// the ids `propose` would have produced for that window text and
    /// `keep` accepts — ascending and deduplicated within this call's
    /// output. `keep` is consulted per hit, after the source's own
    /// filters and before the sort. The default is for sources that
    /// never return `true` from `propose_prefix` and must not be
    /// reached.
    fn filter_prefix(
        &self,
        hits: &[PrefixHit],
        n_tokens: usize,
        query_chars: usize,
        max_dist: usize,
        keep: &mut dyn FnMut(u32) -> bool,
        out: &mut Vec<u32>,
    ) {
        let _ = (hits, n_tokens, query_chars, max_dist, keep, out);
        unimplemented!("filter_prefix without propose_prefix support")
    }
}

/// One anchored candidate occurrence from a per-position generation
/// pass (see [`CandidateSource::propose_prefix`]): enough geometry to
/// re-apply a *shorter* prefix window's filters without re-probing any
/// posting list. All offsets are char-level, relative to the scanned
/// query's start — which is every prefix window's start too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixHit {
    /// Proposed surface id.
    pub surface: u32,
    /// Index of the query token that anchored the proposal, or
    /// [`PrefixHit::DESPACED`] for a hit of the two-token de-spaced
    /// probe (valid only for the two-token prefix window).
    pub token_index: u32,
    /// Char offset of the anchor inside the query.
    pub query_offset: u32,
    /// Char offset of the anchored key inside the surface.
    pub surface_offset: u32,
}

impl PrefixHit {
    /// Sentinel `token_index` for hits of the two-token de-spaced
    /// concatenation probe.
    pub const DESPACED: u32 = u32::MAX;
}

/// Precomputed systematic abbreviations: every mechanical variant of
/// every surface ([`crate::abbrev::variants`]) maps back to the surface
/// that generated it, so a query that *is* such a variant resolves in
/// one hash probe.
///
/// Unlike the signature sources, a hit here is exact by construction —
/// "lotr" is not within any edit budget of "lord of the rings", and
/// verifying it with an edit distance would wrongly reject it. The
/// source therefore reports [`CandidateSource::needs_verification`]
/// `false` and resolvers accept its proposals at distance 0.
///
/// # Examples
///
/// ```
/// use websyn_text::{AbbrevIndex, CandidateSource};
///
/// let idx = AbbrevIndex::build(["lord of the rings"]);
/// let mut out = Vec::new();
/// idx.propose("lotr", 0, &mut out);
/// assert_eq!(out, vec![0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AbbrevIndex {
    /// abbreviated form → surface ids that generate it, ascending.
    forms: FxHashMap<String, Vec<u32>>,
}

impl AbbrevIndex {
    /// Indexes the mechanical variants of `surfaces`. Ids are
    /// build-order positions. A variant generated by several surfaces
    /// maps to all of them (the resolver's ambiguity policy decides
    /// what a contested form means).
    pub fn build<S: AsRef<str>>(surfaces: impl IntoIterator<Item = S>) -> Self {
        let mut forms: FxHashMap<String, Vec<u32>> = FxHashMap::default();
        for (id, surface) in surfaces.into_iter().enumerate() {
            let id = u32::try_from(id).expect("more than u32::MAX surfaces");
            let tokens: Vec<&str> = surface
                .as_ref()
                .split(' ')
                .filter(|t| !t.is_empty())
                .collect();
            for variant in abbrev::variants(&tokens) {
                let ids = forms.entry(variant.text).or_default();
                if ids.last() != Some(&id) {
                    ids.push(id);
                }
            }
        }
        Self { forms }
    }

    /// Number of distinct abbreviated forms.
    pub fn n_forms(&self) -> usize {
        self.forms.len()
    }
}

impl CandidateSource for AbbrevIndex {
    fn name(&self) -> &'static str {
        "abbrev"
    }

    fn needs_verification(&self) -> bool {
        false
    }

    fn propose(&self, query: &str, _max_dist: usize, out: &mut Vec<u32>) {
        if let Some(ids) = self.forms.get(query) {
            out.extend_from_slice(ids);
        }
    }

    /// Estimated: the map's slots (one control byte each) plus every
    /// key's and posting list's own buffer.
    fn heap_bytes(&self) -> usize {
        self.forms.capacity() * (std::mem::size_of::<(String, Vec<u32>)>() + 1)
            + self
                .forms
                .iter()
                .map(|(form, ids)| form.capacity() + ids.capacity() * 4)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbrev_maps_acronyms_and_tails() {
        let idx = AbbrevIndex::build(["lord of the rings", "canon eos 350d"]);
        let mut out = Vec::new();
        idx.propose("lotr", 0, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        idx.propose("350d", 0, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        idx.propose("lord of the rings", 0, &mut out);
        assert!(out.is_empty(), "the surface itself is not a variant");
        assert!(!idx.needs_verification());
    }

    #[test]
    fn abbrev_contested_form_proposes_all_generators() {
        // Both surfaces acronymize to "lotr": the resolver sees both and
        // applies its own ambiguity policy.
        let idx = AbbrevIndex::build(["lord of the rings", "legend of the ring"]);
        let mut out = Vec::new();
        idx.propose("lotr", 0, &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn empty_inputs() {
        let a = AbbrevIndex::build([""]);
        let mut out = Vec::new();
        a.propose("", 0, &mut out);
        assert!(out.is_empty());
    }
}
