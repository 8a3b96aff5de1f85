//! Search Data `A` (paper Section II-B).
//!
//! `A` is a set of tuples `a = ⟨q, p, r⟩`: the relevance rank `r` of
//! page `p` for query `q`, "derived by issuing each u ∈ U as a query to
//! the Bing Search API and keeping the top-k results". Here the engine
//! plays Bing.
//!
//! [`SearchData::collect`] splits `U` into one contiguous shard per
//! core. Each shard keeps one search scratch (dense accumulator and
//! per-term impact memo) for all its queries, and the shards' tuples
//! are concatenated in input order, so the table does not depend on
//! the shard count. The tuples stay grouped by ascending query index,
//! which is what lets [`SearchData::pages_for`] find a query's run by
//! binary search.

use crate::search::{Scratch, SearchEngine};
use websyn_common::PageId;

/// One `⟨q, p, r⟩` tuple. The query is stored as an index into the
/// issuing string set `U` to keep the table compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchTuple {
    /// Index of the issuing string in `U`.
    pub query: u32,
    /// Retrieved page.
    pub page: PageId,
    /// 1-based relevance rank (rank 1 = most relevant).
    pub rank: u32,
}

/// The materialized Search Data for a string set `U`.
#[derive(Debug, Clone, Default)]
pub struct SearchData {
    /// The issuing strings, in index order.
    pub queries: Vec<String>,
    /// All tuples, sorted by query index, each query's in ascending
    /// rank order. [`pages_for`](Self::pages_for) relies on this order.
    pub tuples: Vec<SearchTuple>,
    /// The `k` used for retrieval.
    pub top_k: usize,
}

impl SearchData {
    /// Issues every string in `u_set` against the engine, keeping the
    /// top `k` results each (Eq. 1's `G_A` becomes a rank filter over
    /// this table). The strings are searched in parallel, one shard
    /// per available core.
    pub fn collect<S: AsRef<str> + Sync>(engine: &SearchEngine, u_set: &[S], k: usize) -> Self {
        let shards = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::collect_sharded(engine, u_set, k, shards)
    }

    /// [`collect`](Self::collect) over at most `shards` threads.
    pub(crate) fn collect_sharded<S: AsRef<str> + Sync>(
        engine: &SearchEngine,
        u_set: &[S],
        k: usize,
        shards: usize,
    ) -> Self {
        let queries = u_set.iter().map(|u| u.as_ref().to_string()).collect();
        let per_query = k.min(engine.index().doc_count());
        let mut tuples = Vec::with_capacity(u_set.len() * per_query);
        if !u_set.is_empty() {
            let chunk = u_set.len().div_ceil(shards.max(1));
            std::thread::scope(|scope| {
                let handles: Vec<_> = u_set
                    .chunks(chunk)
                    .enumerate()
                    .map(|(s, part)| {
                        scope.spawn(move || {
                            let mut scratch = Scratch::default();
                            let mut out = Vec::with_capacity(part.len() * per_query);
                            for (i, u) in part.iter().enumerate() {
                                let query = (s * chunk + i) as u32;
                                for hit in engine.search_with(&mut scratch, u.as_ref(), k) {
                                    out.push(SearchTuple {
                                        query,
                                        page: hit.page,
                                        rank: hit.rank,
                                    });
                                }
                            }
                            out
                        })
                    })
                    .collect();
                for handle in handles {
                    tuples.extend(handle.join().expect("search shard panicked"));
                }
            });
        }
        Self {
            queries,
            tuples,
            top_k: k,
        }
    }

    /// The pages retrieved for query index `qi` with rank ≤ `k`
    /// (Eq. 1: `G_A(u, P) = {a.p | a ∈ A, a.q = u ∧ a.r ≤ k}`).
    pub fn pages_for(&self, qi: u32, k: usize) -> impl Iterator<Item = PageId> + '_ {
        let lo = self.tuples.partition_point(|t| t.query < qi);
        let hi = lo + self.tuples[lo..].partition_point(|t| t.query == qi);
        self.tuples[lo..hi]
            .iter()
            .filter(move |t| (t.rank as usize) <= k)
            .map(|t| t.page)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SearchEngine {
        let docs = vec![
            (PageId::new(0), "alpha beta", "alpha beta gamma"),
            (PageId::new(1), "alpha", "alpha delta"),
            (PageId::new(2), "epsilon", "epsilon zeta"),
        ];
        SearchEngine::from_docs(docs)
    }

    #[test]
    fn collect_materializes_topk() {
        let e = engine();
        let data = SearchData::collect(&e, &["alpha beta", "epsilon"], 2);
        assert_eq!(data.queries.len(), 2);
        assert_eq!(data.top_k, 2);
        // Query 0 matches docs 0 and 1; query 1 matches doc 2 only.
        let q0: Vec<u32> = data.pages_for(0, 2).map(|p| p.raw()).collect();
        assert_eq!(q0.len(), 2);
        assert_eq!(q0[0], 0, "doc 0 matches both terms, ranks first");
        let q1: Vec<u32> = data.pages_for(1, 2).map(|p| p.raw()).collect();
        assert_eq!(q1, vec![2]);
    }

    #[test]
    fn rank_filter_tightens() {
        let e = engine();
        let data = SearchData::collect(&e, &["alpha"], 10);
        let all: Vec<_> = data.pages_for(0, 10).collect();
        let top1: Vec<_> = data.pages_for(0, 1).collect();
        assert!(top1.len() <= all.len());
        assert_eq!(top1.len(), 1);
    }

    #[test]
    fn pages_for_matches_a_full_scan() {
        // Queries 0, 2 and 5 (the first and the last) retrieve nothing.
        let runs: [&[u32]; 6] = [&[], &[4, 1, 7], &[], &[2], &[9, 3], &[]];
        let mut data = SearchData {
            queries: (0..runs.len()).map(|i| format!("q{i}")).collect(),
            top_k: 3,
            ..SearchData::default()
        };
        for (qi, pages) in runs.iter().enumerate() {
            for (r, &p) in pages.iter().enumerate() {
                data.tuples.push(SearchTuple {
                    query: qi as u32,
                    page: PageId::new(p),
                    rank: r as u32 + 1,
                });
            }
        }
        for qi in 0..=runs.len() as u32 {
            for k in 0..=4 {
                let scan: Vec<PageId> = data
                    .tuples
                    .iter()
                    .filter(|t| t.query == qi && (t.rank as usize) <= k)
                    .map(|t| t.page)
                    .collect();
                assert_eq!(
                    data.pages_for(qi, k).collect::<Vec<_>>(),
                    scan,
                    "qi={qi} k={k}"
                );
            }
        }
    }

    #[test]
    fn empty_u_set() {
        let e = engine();
        let data = SearchData::collect::<&str>(&e, &[], 5);
        assert!(data.is_empty());
        assert_eq!(data.len(), 0);
    }

    #[test]
    fn unmatched_query_contributes_no_tuples() {
        let e = engine();
        let data = SearchData::collect(&e, &["zzzz"], 5);
        assert!(data.is_empty());
        assert_eq!(data.queries.len(), 1, "the string is still recorded in U");
    }
}
