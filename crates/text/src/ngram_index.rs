//! Character n-gram signature index for fuzzy candidate generation.
//!
//! Verifying an edit distance against every dictionary surface is
//! O(dictionary), far too slow for a serving path. The standard fix
//! (Gravano et al., "Approximate String Joins in a Database"; also the
//! filter stack behind Lucene fuzzy queries) is *candidate generation +
//! verification*: an inverted index from character n-grams to the
//! surfaces containing them produces a small candidate set, and only
//! those candidates pay for a real edit-distance computation.
//!
//! [`NgramIndex`] implements the generation half with two filters:
//!
//! - **length filter** — strings within edit distance `k` differ in
//!   length by at most `k`, so candidates outside `len(q) ± k` are
//!   skipped without touching their grams;
//! - **count filter, in prefix form** — one edit operation destroys at
//!   most `n` of a string's padded n-grams, so a surface within
//!   distance `k` must share at least `T = |G(q)| − k·n` of the query's
//!   grams; contrapositively, it must contain at least one of *any*
//!   `|G(q)| − T + 1 = k·n + 1` chosen query grams. Probing only the
//!   `k·n + 1` grams with the shortest posting lists (the classic
//!   prefix filter of the similarity-join literature) therefore touches
//!   every surface that could pass the count bound, without
//!   maintaining per-candidate counts in the hot loop.
//!
//! Both filters are over *distinct* grams (set semantics). For strings
//! with heavily repeated grams the count bound is approximate, so the
//! index is a *filter*, not an oracle: it may very rarely miss a true
//! candidate, and it never certifies one — callers must verify every
//! candidate with a real distance function (see
//! [`crate::distance`]).
//!
//! Grams are stored as 64-bit FNV hashes rather than strings: the
//! query path hashes each padded window in place and never allocates
//! per gram, which matters because the segmenter probes the index for
//! every query window that misses the exact dictionary. A hash
//! collision can only *add* a candidate (later rejected by
//! verification), never lose one.
//!
//! # Layout
//!
//! The postings are one compressed-sparse-row (CSR) table: the distinct
//! gram hashes in one sorted array (a few hundred bigrams, so a probe
//! is a binary search over a cache-resident array), `u32` offsets per
//! gram into one posting array, and each gram's surface count for the
//! rarest-first probe order. A posting list is ascending, so it is
//! stored as `u16` gaps between consecutive ids, with an escape for
//! the rare gap that does not fit; a scan decodes it with one add per
//! id. [`NgramIndex::build`] counts each gram's list in one pass over
//! the surfaces and writes the lists in a second, with no per-gram
//! allocation.

use crate::candidate::CandidateSource;
use websyn_common::FxHashMap;

/// Inverted index from character n-grams to the ids of the dictionary
/// surfaces that contain them, with length and count filters applied at
/// query time.
///
/// Ids are the 0-based positions of the surfaces in the order they were
/// passed to [`NgramIndex::build`]; [`NgramIndex::candidates`] returns
/// them sorted ascending, so output is deterministic for a fixed build
/// order.
///
/// # Examples
///
/// ```
/// use websyn_text::NgramIndex;
///
/// let idx = NgramIndex::build(["canon eos 350d", "nikon d80"], 2);
/// // One typo away: candidate generation keeps the right surface.
/// assert_eq!(idx.candidates("cannon eos 350d", 1), vec![0]);
/// // Nothing nearby: both filters reject everything.
/// assert!(idx.candidates("zzzzzzzz", 1).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NgramIndex {
    /// Gram size `n`.
    n: usize,
    /// Distinct gram hashes, ascending; a gram's position indexes
    /// `starts` and `counts`.
    grams: Vec<u64>,
    /// `postings[starts[g] .. starts[g + 1]]` encodes the ascending ids
    /// of the surfaces containing gram `g` (see [`GAP_ESCAPE`]);
    /// `grams.len() + 1` entries.
    starts: Vec<u32>,
    /// Number of surfaces containing gram `g` — its posting list's
    /// length, which ranks the grams a probe scans.
    counts: Vec<u32>,
    /// Every gram's posting list, concatenated in gram order.
    postings: Vec<u16>,
    /// Char length of each indexed surface (for the length filter).
    lengths: Vec<u32>,
    /// Grams one edit may destroy: `n` under Levenshtein edits, `n + 1`
    /// once adjacent transpositions count as one edit (a transposition
    /// touches two characters, so it can break `n + 1` windows). Drives
    /// the prefix-probe count.
    per_edit_grams: usize,
}

/// Posting lists store each id as its gap from the previous id of the
/// list (the first from 0) in one `u16`; a gap of `GAP_ESCAPE` or more
/// is written as `GAP_ESCAPE` followed by the id itself, high half
/// first. Lists are ascending and most gaps are small, so the lists
/// take half the bytes of plain `u32` ids and decode in one add per
/// id.
const GAP_ESCAPE: u16 = u16::MAX;

/// The encoded length of `id` after `prev` (`None` for a list's first
/// id).
#[inline]
fn gap_units(prev: Option<u32>, id: u32) -> u32 {
    if id - prev.unwrap_or(0) < u32::from(GAP_ESCAPE) {
        1
    } else {
        3
    }
}

/// FNV-1a over the chars of one padded gram window.
fn gram_hash(window: &[char]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in window {
        h ^= c as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Calls `f` with the hash of every padded `n`-gram of `s`, reusing
/// `buf` as the padded char buffer (no per-gram allocation).
fn for_each_gram(s: &str, n: usize, buf: &mut Vec<char>, mut f: impl FnMut(u64)) {
    buf.clear();
    let pad = n - 1;
    buf.extend(std::iter::repeat_n('#', pad));
    buf.extend(s.chars());
    if buf.len() == pad {
        return; // empty string: no grams, matching `char_ngrams`.
    }
    buf.extend(std::iter::repeat_n('#', pad));
    for w in buf.windows(n) {
        f(gram_hash(w));
    }
}

impl NgramIndex {
    /// Indexes `surfaces` with gram size `n`. Empty surfaces are kept
    /// (they occupy an id) but generate no grams and are never returned
    /// as candidates.
    ///
    /// # Panics
    /// Panics if `n == 0`: a zero-gram index can generate no
    /// signatures.
    pub fn build<S: AsRef<str>>(surfaces: impl IntoIterator<Item = S>, n: usize) -> Self {
        assert!(n > 0, "gram size must be positive");
        // Two passes over the surfaces' grams: the first counts each
        // gram's surfaces and its list's encoded length, the second
        // encodes each surface id into its grams' lists. Surfaces are
        // visited in id order, so every list comes out ascending, and
        // a gram repeated inside one surface is always its list's
        // latest id.
        let surfaces: Vec<S> = surfaces.into_iter().collect();
        let mut lengths = Vec::with_capacity(surfaces.len());
        let mut buf = Vec::new();
        // gram → its slot, in first-seen order during the first pass,
        // then → its position in `grams`.
        let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
        // Per slot: (surface count, encoded units, latest id).
        let mut tally: Vec<(u32, u32, Option<u32>)> = Vec::new();
        for (id, surface) in surfaces.iter().enumerate() {
            let surface = surface.as_ref();
            let id = u32::try_from(id).expect("more than u32::MAX surfaces");
            lengths.push(surface.chars().count() as u32);
            for_each_gram(surface, n, &mut buf, |gram| {
                let fresh = tally.len() as u32;
                let slot = *slots.entry(gram).or_insert(fresh) as usize;
                if slot == tally.len() {
                    tally.push((0, 0, None));
                }
                let (count, units, latest) = &mut tally[slot];
                if *latest != Some(id) {
                    *units += gap_units(*latest, id);
                    *count += 1;
                    *latest = Some(id);
                }
            });
        }
        let mut grams: Vec<u64> = slots.keys().copied().collect();
        grams.sort_unstable();
        let mut starts = Vec::with_capacity(grams.len() + 1);
        let mut counts = Vec::with_capacity(grams.len());
        starts.push(0u32);
        for (g, gram) in grams.iter().enumerate() {
            let slot = slots.get_mut(gram).expect("counted gram");
            let (count, units, _) = tally[*slot as usize];
            counts.push(count);
            starts.push(
                starts[g]
                    .checked_add(units)
                    .expect("n-gram postings overflow u32 offsets"),
            );
            *slot = g as u32;
        }
        drop(tally);
        // Per gram: (write cursor, latest id written).
        let mut cursors: Vec<(u32, Option<u32>)> = starts.iter().map(|&s| (s, None)).collect();
        let mut postings = vec![0u16; starts[grams.len()] as usize];
        for (id, surface) in surfaces.iter().enumerate() {
            let id = id as u32;
            for_each_gram(surface.as_ref(), n, &mut buf, |gram| {
                let (cursor, latest) = &mut cursors[slots[&gram] as usize];
                if *latest == Some(id) {
                    return;
                }
                let at = *cursor as usize;
                if gap_units(*latest, id) == 1 {
                    postings[at] = (id - latest.unwrap_or(0)) as u16;
                } else {
                    postings[at..at + 3].copy_from_slice(&[
                        GAP_ESCAPE,
                        (id >> 16) as u16,
                        id as u16,
                    ]);
                }
                *cursor += gap_units(*latest, id);
                *latest = Some(id);
            });
        }
        Self {
            n,
            grams,
            starts,
            counts,
            postings,
            lengths,
            per_edit_grams: n,
        }
    }

    /// Calls `f` with the id of every surface containing gram `g` (an
    /// index into `grams`), ascending.
    #[inline]
    fn for_each_id(&self, g: usize, mut f: impl FnMut(u32)) {
        // An iterator, not indexing: the scan is the n-gram source's
        // hottest loop, and indexing pays a bounds check per unit.
        let mut list = self.postings[self.starts[g] as usize..self.starts[g + 1] as usize].iter();
        let mut id = 0u32;
        while let Some(&gap) = list.next() {
            if gap == GAP_ESCAPE {
                let mut half = || u32::from(*list.next().expect("an escape has two halves"));
                id = half() << 16 | half();
            } else {
                id += u32::from(gap);
            }
            f(id);
        }
    }

    /// Switches the count filter to its transposition-safe form: the
    /// prefix probe widens from `k·n + 1` to `k·(n + 1) + 1` gram
    /// lists, so a surface reachable only through adjacent
    /// transpositions (one OSA edit, up to `n + 1` destroyed grams)
    /// still passes generation. Callers that verify with a
    /// Damerau/OSA metric and cannot afford transposition misses (the
    /// spelling corrector) build with this; the plain form probes
    /// fewer lists, as the matcher's chain always has.
    pub fn with_transpositions(mut self) -> Self {
        self.per_edit_grams = self.n + 1;
        self
    }

    /// Gram size the index was built with.
    pub fn gram_size(&self) -> usize {
        self.n
    }

    /// Number of indexed surfaces.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// Whether the index holds no surfaces.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Number of distinct grams in the index.
    pub fn n_grams(&self) -> usize {
        self.grams.len()
    }

    /// Char length of surface `id` as recorded at build time.
    pub fn surface_len(&self, id: u32) -> usize {
        self.lengths[id as usize] as usize
    }

    /// Ids of surfaces that pass both filters for `query` at edit
    /// distance `max_dist`, sorted ascending. Every returned id still
    /// needs edit-distance verification; with `max_dist == 0` the
    /// result is empty (use an exact map for distance 0).
    pub fn candidates(&self, query: &str, max_dist: usize) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidates_into(query, max_dist, &mut out);
        out
    }

    /// [`NgramIndex::candidates`] into a caller-owned buffer — the
    /// allocation-free form the serving path uses (and the
    /// [`CandidateSource`] implementation delegates to). Appends to
    /// `out` without clearing it.
    pub fn candidates_into(&self, query: &str, max_dist: usize, out: &mut Vec<u32>) {
        if max_dist == 0 || self.is_empty() {
            return;
        }
        // The segmenter calls this for every window that misses the
        // exact dictionary, so the gram buffers are thread-local
        // scratch rather than per-call allocations.
        thread_local! {
            #[allow(clippy::type_complexity)]
            static SCRATCH: std::cell::RefCell<(Vec<char>, Vec<u64>, Vec<(u32, u32)>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
        }
        SCRATCH.with_borrow_mut(|(buf, grams, ranked)| {
            grams.clear();
            for_each_gram(query, self.n, buf, |gram| grams.push(gram));
            grams.sort_unstable();
            grams.dedup();
            if grams.is_empty() {
                return;
            }
            let q_len = query.chars().count() as u32;

            // Prefix form of the count filter: a qualifying surface shares
            // at least |G(q)| − k·n query grams, so it must contain one of
            // the k·n + 1 probed grams — probe the rarest (shortest
            // posting lists; a gram absent from the index is rarest of
            // all). This is the segmenter's hottest loop: only the probed
            // lists are scanned, and the length filter keeps far-length
            // surfaces out of the union. Selecting the rarest grams is a
            // partial selection over (list length, gram) pairs in reused
            // scratch — no allocation, no full sort.
            let probe_count = (max_dist * self.per_edit_grams + 1).min(grams.len());
            ranked.clear();
            ranked.extend(grams.iter().map(|g| match self.grams.binary_search(g) {
                Ok(i) => (self.counts[i], i as u32),
                Err(_) => (0, u32::MAX),
            }));
            if ranked.len() > probe_count {
                ranked.select_nth_unstable(probe_count - 1);
                ranked.truncate(probe_count);
            }
            let start = out.len();
            for &(len, g) in ranked.iter() {
                if len == 0 {
                    continue;
                }
                self.for_each_id(g as usize, |id| {
                    if self.lengths[id as usize].abs_diff(q_len) <= max_dist as u32 {
                        out.push(id);
                    }
                });
            }
            // Sort + dedup only the region this call appended, so the
            // buffer contract (append, never disturb) holds.
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

impl CandidateSource for NgramIndex {
    fn name(&self) -> &'static str {
        "ngram"
    }

    fn propose(&self, query: &str, max_dist: usize, out: &mut Vec<u32>) {
        self.candidates_into(query, max_dist, out);
    }

    fn heap_bytes(&self) -> usize {
        self.grams.capacity() * 8
            + self.postings.capacity() * 2
            + (self.starts.capacity() + self.counts.capacity() + self.lengths.capacity()) * 4
    }
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::damerau_levenshtein;

    fn index() -> NgramIndex {
        NgramIndex::build(
            [
                "canon eos 350d",
                "canon eos 400d",
                "nikon d80",
                "indiana jones 4",
                "indy 4",
            ],
            2,
        )
    }

    #[test]
    fn exact_string_is_its_own_candidate() {
        let idx = index();
        let surfaces = [
            "canon eos 350d",
            "canon eos 400d",
            "nikon d80",
            "indiana jones 4",
            "indy 4",
        ];
        for (id, s) in surfaces.iter().enumerate() {
            assert!(
                idx.candidates(s, 1).contains(&(id as u32)),
                "{s} not in its own candidate set"
            );
        }
    }

    #[test]
    fn one_typo_keeps_the_true_surface() {
        let idx = index();
        // substitution, deletion, insertion, transposition.
        for q in [
            "cannon eos 350d",
            "canon eos 350",
            "canon eos 3500d",
            "cnaon eos 350d",
        ] {
            let cands = idx.candidates(q, 2);
            assert!(cands.contains(&0), "{q:?} lost surface 0: {cands:?}");
        }
    }

    #[test]
    fn length_filter_prunes_far_lengths() {
        let idx = index();
        // "indy 4" (6 chars) can never be within distance 1 of a
        // 14-char surface.
        for id in idx.candidates("indy 4", 1) {
            assert!(idx.surface_len(id).abs_diff(6) <= 1);
        }
    }

    #[test]
    fn unrelated_query_yields_nothing() {
        let idx = index();
        assert!(idx.candidates("zzzz qqqq wwww", 2).is_empty());
    }

    #[test]
    fn zero_distance_and_empty_inputs() {
        let idx = index();
        assert!(idx.candidates("canon eos 350d", 0).is_empty());
        assert!(idx.candidates("", 2).is_empty());
        let empty = NgramIndex::build(std::iter::empty::<&str>(), 2);
        assert!(empty.is_empty());
        assert!(empty.candidates("anything", 2).is_empty());
    }

    #[test]
    fn empty_surface_occupies_id_but_never_matches() {
        let idx = NgramIndex::build(["", "abc"], 2);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.candidates("abc", 1), vec![1]);
    }

    #[test]
    fn candidates_are_sorted_and_deterministic() {
        let idx = index();
        let a = idx.candidates("canon eos 300d", 2);
        let b = idx.candidates("canon eos 300d", 2);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(a, sorted);
    }

    #[test]
    fn duplicate_grams_counted_once_per_surface() {
        // "aaaa" has padded bigrams {#a, aa, a#}: 3 distinct.
        let idx = NgramIndex::build(["aaaa"], 2);
        assert_eq!(idx.n_grams(), 3);
        // Still recalled under one edit.
        assert_eq!(idx.candidates("aaab", 1), vec![0]);
    }

    #[test]
    fn every_verified_neighbour_survives_generation_on_this_dictionary() {
        // On a duplicate-light dictionary the filter stack is lossless:
        // brute-force every surface within the distance budget and
        // check generation kept it.
        let surfaces = [
            "canon eos 350d",
            "canon eos 400d",
            "nikon d80",
            "indiana jones 4",
            "indy 4",
        ];
        let idx = NgramIndex::build(surfaces, 2);
        for q in ["canon eos 350d", "cannon eos 400d", "nikon d8", "indy 44"] {
            let cands = idx.candidates(q, 2);
            for (id, s) in surfaces.iter().enumerate() {
                if damerau_levenshtein(q, s) <= 2 {
                    assert!(
                        cands.contains(&(id as u32)),
                        "{q:?} lost true neighbour {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gram size must be positive")]
    fn zero_gram_size_panics() {
        let _ = NgramIndex::build(["x"], 0);
    }

    #[test]
    fn transposition_safe_probe_recalls_osa_neighbours() {
        // "jnoes" is one OSA edit from "jones" but a transposition
        // destroys 3 bigrams, below the plain count threshold; the
        // widened probe keeps it.
        let idx = NgramIndex::build(["jones", "escape", "kingdom"], 2).with_transpositions();
        assert_eq!(idx.candidates("jnoes", 1), vec![0]);
        // Still a filter: unrelated strings propose nothing.
        assert!(idx.candidates("zzzzz", 1).is_empty());
    }
}
