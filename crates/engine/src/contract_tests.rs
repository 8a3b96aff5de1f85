//! The bit-exact contract of retrieval: [`SearchEngine::search`] and
//! [`SearchData::collect`] return exactly what a hash-map accumulator
//! over [`Scorer::term_score`] per posting returns — same pages, same
//! ranks, same score bits — for either scorer, any batch and any shard
//! count.

use crate::search::{Scratch, SearchHit};
use crate::{Bm25Params, Scorer, SearchData, SearchEngine, SearchTuple, TfIdfParams};
use proptest::prelude::*;
use websyn_common::{FxHashMap, PageId, TopK};

const WORDS: [&str; 10] = [
    "canon",
    "nikon",
    "camera",
    "digital",
    "compact",
    "powershot",
    "coolpix",
    "rebel",
    "silver",
    "zoomlens",
];
/// Added to every document body: its TF-IDF impact is 0.
const EVERYWHERE: &str = "photo";

/// The accumulator `search` used before the dense scratch: a hash map
/// summing [`Scorer::term_score`] per posting, then [`TopK`].
fn oracle(engine: &SearchEngine, scorer: Scorer, query: &str, k: usize) -> Vec<SearchHit> {
    let index = engine.index();
    let terms = engine.effective_terms(query);
    if terms.is_empty() || k == 0 {
        return Vec::new();
    }

    // Term-at-a-time accumulation.
    let n_docs = index.doc_count();
    let avg_dl = index.avg_doc_len();
    let mut acc: FxHashMap<PageId, f64> = FxHashMap::default();
    for term in &terms {
        let Some(tid) = index.term_id(term) else {
            continue;
        };
        let df = index.doc_freq(tid);
        for posting in index.postings(tid) {
            let dl = index.doc_len(posting.page);
            let s = scorer.term_score(posting.tf, df, n_docs, dl, avg_dl);
            *acc.entry(posting.page).or_insert(0.0) += s;
        }
    }

    let mut topk = TopK::new(k);
    for (page, score) in acc {
        if score > 0.0 {
            topk.push(score, page);
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

fn bits(hits: &[SearchHit]) -> Vec<(PageId, u32, u64)> {
    hits.iter()
        .map(|h| (h.page, h.rank, h.score.to_bits()))
        .collect()
}

/// Word `i` of a generated query: a vocabulary word, a misspelling of
/// one (spell-correction path), the everywhere term, an unknown term
/// or punctuation.
fn query_word(i: usize) -> String {
    match i {
        0..=9 => WORDS[i].to_string(),
        10..=12 => {
            let w = WORDS[i - 10];
            let mid = w.len() / 2;
            format!("{}{}", &w[..=mid], &w[mid..])
        }
        13 => EVERYWHERE.to_string(),
        14 => "qqqqqq".to_string(),
        _ => "?!".to_string(),
    }
}

fn words(ids: &[usize]) -> String {
    ids.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn search_and_collect_match_the_hash_map_oracle_bit_for_bit(
        docs in collection::vec(
            (collection::vec(0usize..10, 0..3), collection::vec(0usize..10, 0..6), 0usize..4),
            1..14,
        ),
        queries in collection::vec(collection::vec(0usize..16, 0..5), 0..9),
    ) {
        // A `0` copy flag repeats the previous document: identical
        // documents test the page-id tie-break.
        let mut texts: Vec<(String, String)> = Vec::new();
        for (title, body, copy) in &docs {
            let text = match texts.last() {
                Some(prev) if *copy == 0 => prev.clone(),
                _ => (words(title), format!("{} {EVERYWHERE}", words(body))),
            };
            texts.push(text);
        }
        let mut u_set: Vec<String> = queries
            .iter()
            .map(|q| q.iter().map(|&i| query_word(i)).collect::<Vec<_>>().join(" "))
            .collect();
        // Empty and all-punctuation queries, and a duplicated term.
        u_set.extend(["".into(), "!!! ,.".into(), format!("{0} {0}", WORDS[0])]);

        for scorer in [Scorer::Bm25(Bm25Params::default()), Scorer::TfIdf(TfIdfParams)] {
            let engine = SearchEngine::with_scorer(
                texts
                    .iter()
                    .enumerate()
                    .map(|(i, (t, b))| (PageId::from_usize(i), t.as_str(), b.as_str())),
                scorer,
            );
            let mut batch = Scratch::default();
            for k in [0, 1, 3, 20, texts.len() + 3] {
                let mut expected: Vec<SearchTuple> = Vec::new();
                for (qi, u) in u_set.iter().enumerate() {
                    let want = oracle(&engine, scorer, u, k);
                    prop_assert_eq!(bits(&engine.search(u, k)), bits(&want), "search {:?} k={}", u, k);
                    prop_assert_eq!(
                        bits(&engine.search_with(&mut batch, u, k)),
                        bits(&want),
                        "batch search {:?} k={}",
                        u,
                        k
                    );
                    expected.extend(want.iter().map(|h| SearchTuple {
                        query: qi as u32,
                        page: h.page,
                        rank: h.rank,
                    }));
                }
                prop_assert_eq!(&SearchData::collect(&engine, &u_set, k).tuples, &expected);
                for shards in 1..=u_set.len() + 1 {
                    let data = SearchData::collect_sharded(&engine, &u_set, k, shards);
                    prop_assert_eq!(&data.tuples, &expected, "shards={}", shards);
                    prop_assert_eq!(&data.queries, &u_set);
                }
            }
        }
    }
}
