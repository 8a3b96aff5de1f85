//! Top-k retrieval.
//!
//! Term-at-a-time scoring over the inverted index with deterministic
//! tie-breaking (lower page id first), optional spelling correction of
//! out-of-vocabulary query terms, and 1-based ranks as in the paper's
//! Search Data definition ("rank 1 being the most relevant").
//!
//! Scores accumulate in a dense per-page `Vec<f64>` with a list of the
//! pages a query touched; draining that list into [`TopK`] zeroes each
//! slot it reads, so the accumulator is clean for the next query. The
//! impact of a posting ([`Scorer::term_score`]) is computed once per
//! term and memoized in the same scratch, which
//! [`SearchData::collect`](crate::SearchData::collect) keeps for a
//! whole batch: canonical strings share most of their terms. Each page
//! still sums its terms in query order from the same impacts, and
//! `TopK` orders by (score, page id), so the hits are the same, bit for
//! bit, whatever the batch.

use crate::index::InvertedIndex;
use crate::score::Scorer;
use crate::spell::SpellCorrector;
use websyn_common::{FxHashMap, PageId, TermId, TopK};

/// One search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The retrieved page.
    pub page: PageId,
    /// Retrieval score (scorer-dependent scale).
    pub score: f64,
    /// 1-based rank.
    pub rank: u32,
}

/// A search engine: index + scorer + optional spelling correction.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    index: InvertedIndex,
    scorer: Scorer,
    speller: Option<SpellCorrector>,
}

impl SearchEngine {
    /// Builds an engine over `(id, title, body)` documents with the
    /// default scorer (BM25) and spelling correction enabled.
    pub fn from_docs<'a, I>(docs: I) -> Self
    where
        I: IntoIterator<Item = (PageId, &'a str, &'a str)>,
    {
        Self::with_scorer(docs, Scorer::default())
    }

    /// Builds an engine with an explicit scorer.
    pub fn with_scorer<'a, I>(docs: I, scorer: Scorer) -> Self
    where
        I: IntoIterator<Item = (PageId, &'a str, &'a str)>,
    {
        let index = InvertedIndex::build(docs, scorer.title_boost());
        let speller = Some(SpellCorrector::build(
            index.vocab_iter().map(|(_, term, df)| (term, df)),
        ));
        Self {
            index,
            scorer,
            speller,
        }
    }

    /// Disables spelling correction (ablation switch).
    pub fn without_spelling(mut self) -> Self {
        self.speller = None;
        self
    }

    /// The underlying index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The query terms after analysis and spelling correction. Exposed
    /// so the click substrate can reuse the exact retrieval-side view
    /// of a query.
    pub fn effective_terms(&self, query: &str) -> Vec<String> {
        let mut terms = self.index.analyzer().analyze(query);
        if let Some(speller) = &self.speller {
            for term in &mut terms {
                if self.index.term_id(term).is_none() {
                    if let Some(fixed) = speller.correct(term) {
                        *term = fixed;
                    }
                }
            }
        }
        terms
    }

    /// Retrieves the top-`k` pages for `query`.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        self.search_with(&mut Scratch::default(), query, k)
    }

    /// [`search`](Self::search) with caller-owned scratch, so a batch
    /// reuses one accumulator and one impact memo across its queries.
    pub(crate) fn search_with(
        &self,
        scratch: &mut Scratch,
        query: &str,
        k: usize,
    ) -> Vec<SearchHit> {
        let terms = self.effective_terms(query);
        if terms.is_empty() || k == 0 {
            return Vec::new();
        }

        // Term-at-a-time accumulation.
        let Scratch {
            acc,
            touched,
            impacts,
        } = scratch;
        acc.resize(self.index.doc_count(), 0.0);
        for term in &terms {
            let Some(tid) = self.index.term_id(term) else {
                continue;
            };
            let impacts = impacts.entry(tid).or_insert_with(|| self.impacts(tid));
            for (posting, &s) in self.index.postings(tid).iter().zip(impacts.iter()) {
                let slot = &mut acc[posting.page.as_usize()];
                // A zero first impact re-pushes the page later; the
                // drain below reads its slot once and the copy as 0.
                if *slot == 0.0 {
                    touched.push(posting.page);
                }
                *slot += s;
            }
        }

        let mut topk = TopK::new(k);
        // Once the collector is full, a push below its threshold is a
        // no-op: skip it without the call.
        let mut floor = 0.0;
        for page in touched.drain(..) {
            let score = std::mem::take(&mut acc[page.as_usize()]);
            if score > 0.0 && score >= floor {
                // TopK breaks score ties on the smaller key; PageId orders
                // ascending, giving "older" pages stable precedence.
                topk.push(score, page);
                floor = topk.threshold().unwrap_or(0.0);
            }
        }
        topk.into_sorted_vec()
            .into_iter()
            .enumerate()
            .map(|(i, s)| SearchHit {
                page: s.item,
                score: s.score,
                rank: (i + 1) as u32,
            })
            .collect()
    }

    /// The scorer's impact of every posting of `tid`, in postings order.
    fn impacts(&self, tid: TermId) -> Box<[f64]> {
        let n_docs = self.index.doc_count();
        let avg_dl = self.index.avg_doc_len();
        let df = self.index.doc_freq(tid);
        self.index
            .postings(tid)
            .iter()
            .map(|p| {
                let dl = self.index.doc_len(p.page);
                self.scorer.term_score(p.tf, df, n_docs, dl, avg_dl)
            })
            .collect()
    }
}

/// Scoring state for one thread, reused across the queries of a batch.
/// It belongs to one engine: the memo is keyed by that index's term ids.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Accumulated score per page id; every slot is 0 between queries.
    acc: Vec<f64>,
    /// Pages whose slot was 0 when a posting reached them.
    touched: Vec<PageId>,
    /// Per-term posting impacts, parallel to the postings list.
    impacts: FxHashMap<TermId, Box<[f64]>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SearchEngine {
        let docs = vec![
            (
                PageId::new(0),
                "indiana jones kingdom crystal skull",
                "indiana jones kingdom crystal skull official studio site",
            ),
            (
                PageId::new(1),
                "indiana jones kingdom crystal skull",
                "indiana jones kingdom crystal skull indy buy dvd shop",
            ),
            (
                PageId::new(2),
                "madagascar escape africa",
                "madagascar escape africa dvd shop buy",
            ),
            (
                PageId::new(3),
                "harrison ford",
                "harrison ford biography indiana jones madagascar",
            ),
            (PageId::new(4), "knitting recipes", "yarn patterns wool"),
        ];
        SearchEngine::from_docs(docs)
    }

    #[test]
    fn canonical_query_ranks_entity_pages_first() {
        let e = engine();
        let hits = e.search("indiana jones kingdom crystal skull", 10);
        assert!(hits.len() >= 3);
        let top2: Vec<u32> = hits[..2].iter().map(|h| h.page.raw()).collect();
        assert!(top2.contains(&0) && top2.contains(&1), "top2 {top2:?}");
        // The actor page matches fewer terms → ranks lower.
        let actor_rank = hits.iter().find(|h| h.page.raw() == 3).map(|h| h.rank);
        assert!(actor_rank.is_none_or(|r| r > 2));
    }

    #[test]
    fn ranks_are_one_based_and_dense() {
        let e = engine();
        let hits = e.search("indiana jones", 10);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.rank, (i + 1) as u32);
        }
        assert_eq!(hits[0].rank, 1);
    }

    #[test]
    fn k_limits_results() {
        let e = engine();
        let hits = e.search("indiana jones", 1);
        assert_eq!(hits.len(), 1);
        assert!(e.search("indiana jones", 0).is_empty());
    }

    #[test]
    fn scores_non_increasing() {
        let e = engine();
        let hits = e.search("indiana jones skull", 10);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn no_match_returns_empty() {
        let e = engine();
        assert!(e.search("zzzz qqqq", 10).is_empty());
        assert!(e.search("", 10).is_empty());
        assert!(e.search("!!!", 10).is_empty());
    }

    #[test]
    fn misspelled_query_is_corrected() {
        let e = engine();
        let clean = e.search("indiana jones", 10);
        let typo = e.search("indianna jones", 10);
        assert_eq!(
            clean.iter().map(|h| h.page).collect::<Vec<_>>(),
            typo.iter().map(|h| h.page).collect::<Vec<_>>(),
            "correction should recover the clean ranking"
        );
        // Without spelling correction the typo term contributes nothing.
        let e2 = engine().without_spelling();
        let typo2 = e2.search("indianna jones", 10);
        assert!(typo2.len() <= typo.len());
        assert_eq!(e2.effective_terms("indianna"), vec!["indianna".to_string()]);
    }

    #[test]
    fn effective_terms_reports_corrections() {
        let e = engine();
        assert_eq!(
            e.effective_terms("indianna jnoes"),
            vec!["indiana".to_string(), "jones".to_string()]
        );
    }

    #[test]
    fn deterministic_ranking_under_ties() {
        // Two identical documents must rank by page id.
        let docs = vec![
            (PageId::new(0), "same text", "same text body"),
            (PageId::new(1), "same text", "same text body"),
        ];
        let e = SearchEngine::from_docs(docs);
        let hits = e.search("same text", 10);
        assert_eq!(hits[0].page.raw(), 0);
        assert_eq!(hits[1].page.raw(), 1);
    }

    #[test]
    fn raw_queries_are_normalized() {
        let e = engine();
        let a = e.search("Indiana Jones!", 5);
        let b = e.search("indiana jones", 5);
        assert_eq!(a, b);
    }
}
