//! Flat ≡ hash map: the n-gram index the CSR layout replaced is kept
//! here verbatim as an oracle, and `candidates` must answer
//! identically on both — for every budget, gram size and probe form
//! — on random dictionaries with empty surfaces, repeated grams, a
//! single surface, and é, ß, CJK and emoji text.

use super::for_each_gram;
use crate::NgramIndex;
use proptest::prelude::*;
use websyn_common::FxHashMap;

/// The hash-map index: one `Vec` of ids per gram.
#[derive(Debug, Clone, Default)]
struct HashNgramIndex {
    /// Gram size `n`.
    n: usize,
    /// gram hash → ids of surfaces containing it, ascending.
    postings: FxHashMap<u64, Vec<u32>>,
    /// Char length of each indexed surface (for the length filter).
    lengths: Vec<u32>,
    /// Grams one edit may destroy: `n` under Levenshtein edits, `n + 1`
    /// once adjacent transpositions count as one edit (a transposition
    /// touches two characters, so it can break `n + 1` windows). Drives
    /// the prefix-probe count.
    per_edit_grams: usize,
}

impl HashNgramIndex {
    /// Indexes `surfaces` with gram size `n`. Empty surfaces are kept
    /// (they occupy an id) but generate no grams and are never returned
    /// as candidates.
    ///
    /// # Panics
    /// Panics if `n == 0`: a zero-gram index can generate no
    /// signatures.
    pub fn build<S: AsRef<str>>(surfaces: impl IntoIterator<Item = S>, n: usize) -> Self {
        assert!(n > 0, "gram size must be positive");
        let mut postings: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        let mut lengths = Vec::new();
        let mut buf = Vec::new();
        for (id, surface) in surfaces.into_iter().enumerate() {
            let surface = surface.as_ref();
            let id = u32::try_from(id).expect("more than u32::MAX surfaces");
            lengths.push(surface.chars().count() as u32);
            for_each_gram(surface, n, &mut buf, |gram| {
                let ids = postings.entry(gram).or_default();
                // Ids arrive in ascending order, so a duplicate gram
                // within one surface is always the current tail entry.
                if ids.last() != Some(&id) {
                    ids.push(id);
                }
            });
        }
        Self {
            n,
            postings,
            lengths,
            per_edit_grams: n,
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
        self.postings.len()
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
            static SCRATCH: std::cell::RefCell<(Vec<char>, Vec<u64>, Vec<(u32, u64)>)> =
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
            ranked.extend(grams.iter().map(|&g| {
                let len = self.postings.get(&g).map_or(0, |ids| ids.len()) as u32;
                (len, g)
            }));
            if ranked.len() > probe_count {
                ranked.select_nth_unstable(probe_count - 1);
                ranked.truncate(probe_count);
            }
            let start = out.len();
            for &(len, gram) in ranked.iter() {
                if len == 0 {
                    continue;
                }
                let Some(ids) = self.postings.get(&gram) else {
                    continue;
                };
                for &id in ids {
                    if self.lengths[id as usize].abs_diff(q_len) <= max_dist as u32 {
                        out.push(id);
                    }
                }
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

/// Builds both indexes over `surfaces` and requires the same answer to
/// every query at every budget, plain and transposition-safe.
fn assert_same_answers(surfaces: &[String], queries: &[String], n: usize) {
    let pairs = [
        (
            HashNgramIndex::build(surfaces, n),
            NgramIndex::build(surfaces, n),
        ),
        (
            HashNgramIndex::build(surfaces, n).with_transpositions(),
            NgramIndex::build(surfaces, n).with_transpositions(),
        ),
    ];
    for (oracle, flat) in &pairs {
        assert_eq!(flat.n_grams(), oracle.n_grams());
        assert_eq!(flat.len(), oracle.len());
        assert_eq!(flat.is_empty(), oracle.is_empty());
        assert_eq!(flat.gram_size(), oracle.gram_size());
        for id in 0..flat.len() as u32 {
            assert_eq!(flat.surface_len(id), oracle.surface_len(id));
        }
        for query in queries.iter().chain(surfaces) {
            for k in 0..=3 {
                let (mut want, mut got) = (vec![u32::MAX], vec![u32::MAX]);
                oracle.candidates_into(query, k, &mut want);
                flat.candidates_into(query, k, &mut got);
                assert_eq!(got, want, "{query:?} k={k} n={n}");
                assert_eq!(flat.candidates(query, k), oracle.candidates(query, k));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_index_matches_hash_map_oracle(
        surfaces in collection::vec("[abé ß東😀]{0,9}", 1..16),
        queries in collection::vec("[abé ß東😀]{0,9}", 1..8),
        n in 1usize..4,
    ) {
        assert_same_answers(&surfaces, &queries, n);
    }
}

#[test]
fn gap_escapes_decode_like_plain_ids() {
    // Ids far enough apart that their gaps take the escape form (and
    // an id above `u16::MAX` as a list's first entry).
    let mut surfaces: Vec<String> = (0..70_000).map(|_| String::new()).collect();
    surfaces[3] = "ab".to_string();
    surfaces[66_000] = "ab".to_string();
    surfaces[66_001] = "abc".to_string();
    surfaces[69_999] = "zq".to_string();
    let queries = ["ab", "abd", "zq", "zqq", "b"].map(String::from);
    assert_same_answers(&surfaces, &queries, 2);
    assert_eq!(
        NgramIndex::build(&surfaces, 2).candidates("ab", 1),
        vec![3, 66_000, 66_001]
    );
}
