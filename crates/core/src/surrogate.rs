//! Surrogate finding (paper Section III-A, "Finding Surrogates").
//!
//! `G_A(u, P) = {a.p | a ∈ A, a.q = u ∧ a.r ≤ k}` (Eq. 1): the top-k
//! pages retrieved for the canonical string `u` are its surrogates
//! (Definition 5). The table materializes every entity's surrogate set
//! once, sorted for O(log k) membership tests during scoring.
//!
//! The paper also notes the alternative: "It may also be possible to
//! use Click Data in place of Search Data, whereby a Web page is a
//! surrogate if it has attracted many clicks when the entity's data
//! value is used as a query. However, clicks are not always available
//! for this purpose, as the entities' data values usually come in the
//! canonical form … and therefore may not be used as queries by
//! people." [`SurrogateSource::Clicks`] implements that alternative so
//! the claim can be measured (ablation 5 in the harness).

use crate::data::MiningContext;
use websyn_common::{EntityId, PageId, TopK};

/// Where surrogate sets come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateSource {
    /// Eq. 1: top-k search results for the canonical string (the
    /// paper's choice).
    #[default]
    Search,
    /// The alternative the paper dismisses: top-k pages by click count
    /// when the canonical string itself was issued as a query. Entities
    /// whose canonical form was never queried get an empty set.
    Clicks,
}

/// Per-entity surrogate sets.
#[derive(Debug, Clone)]
pub struct SurrogateTable {
    /// Sorted page ids per entity.
    sets: Vec<Box<[PageId]>>,
    /// The `k` the table was built with.
    top_k: usize,
}

impl SurrogateTable {
    /// Builds the table from Search Data with surrogate depth `k`.
    ///
    /// `k` may be smaller than the depth the Search Data was collected
    /// with (the rank filter of Eq. 1 tightens); it cannot exceed it —
    /// ranks that were never retrieved cannot be conjured. Each
    /// entity's run of tuples is found by binary search
    /// ([`SearchData::pages_for`](websyn_engine::SearchData::pages_for)),
    /// not by a scan of the whole table.
    ///
    /// # Panics
    /// Panics if `k` exceeds the Search Data collection depth.
    pub fn build(ctx: &MiningContext, k: usize) -> Self {
        assert!(
            k <= ctx.search.top_k,
            "surrogate depth {k} exceeds Search Data depth {}",
            ctx.search.top_k
        );
        let mut sets = Vec::with_capacity(ctx.n_entities());
        for qi in 0..ctx.n_entities() {
            let mut pages: Vec<PageId> = ctx.search.pages_for(qi as u32, k).collect();
            pages.sort_unstable();
            pages.dedup();
            sets.push(pages.into_boxed_slice());
        }
        Self { sets, top_k: k }
    }

    /// Builds the table from Click Data instead of Search Data
    /// ([`SurrogateSource::Clicks`]): an entity's surrogates are the
    /// `k` most-clicked pages under its canonical string as a query.
    pub fn build_from_clicks(ctx: &MiningContext, k: usize) -> Self {
        let mut sets = Vec::with_capacity(ctx.n_entities());
        for i in 0..ctx.n_entities() {
            let e = EntityId::from_usize(i);
            let mut pages: Vec<PageId> = match ctx.canonical_query(e) {
                None => Vec::new(),
                Some(q) => {
                    let mut topk = TopK::new(k);
                    for tuple in ctx.log.clicks_of(q) {
                        topk.push(f64::from(tuple.n), tuple.page);
                    }
                    topk.into_sorted_vec().into_iter().map(|s| s.item).collect()
                }
            };
            pages.sort_unstable();
            sets.push(pages.into_boxed_slice());
        }
        Self { sets, top_k: k }
    }

    /// Dispatches on [`SurrogateSource`].
    pub fn build_from(ctx: &MiningContext, k: usize, source: SurrogateSource) -> Self {
        match source {
            SurrogateSource::Search => Self::build(ctx, k),
            SurrogateSource::Clicks => Self::build_from_clicks(ctx, k),
        }
    }

    /// The surrogate set of an entity (sorted).
    pub fn of(&self, e: EntityId) -> &[PageId] {
        &self.sets[e.as_usize()]
    }

    /// Membership test (binary search over the sorted set).
    #[inline]
    pub fn contains(&self, e: EntityId, page: PageId) -> bool {
        self.sets[e.as_usize()].binary_search(&page).is_ok()
    }

    /// The surrogate depth.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Number of entities covered.
    pub fn n_entities(&self) -> usize {
        self.sets.len()
    }

    /// Entities whose surrogate set is empty (their canonical string
    /// retrieved nothing — they can gain no synonyms).
    pub fn empty_entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.sets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_empty())
            .map(|(i, _)| EntityId::from_usize(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websyn_click::ClickLogBuilder;
    use websyn_engine::{SearchData, SearchEngine};

    fn ctx() -> MiningContext {
        let docs = vec![
            (PageId::new(0), "alpha beta", "alpha beta official"),
            (PageId::new(1), "alpha beta shop", "alpha beta buy"),
            (PageId::new(2), "gamma", "gamma page"),
            (PageId::new(3), "delta", "unrelated"),
        ];
        let engine = SearchEngine::from_docs(docs);
        let u_set = vec![
            "alpha beta".to_string(),
            "gamma".to_string(),
            "zzz nothing".to_string(),
        ];
        let search = SearchData::collect(&engine, &u_set, 10);
        MiningContext::new(u_set, search, ClickLogBuilder::new().build(), 4)
    }

    #[test]
    fn surrogates_are_topk_pages() {
        let table = SurrogateTable::build(&ctx(), 10);
        let s0 = table.of(EntityId::new(0));
        assert_eq!(s0.len(), 2);
        assert!(table.contains(EntityId::new(0), PageId::new(0)));
        assert!(table.contains(EntityId::new(0), PageId::new(1)));
        assert!(!table.contains(EntityId::new(0), PageId::new(2)));
    }

    #[test]
    fn rank_filter_tightens_at_lower_k() {
        let table = SurrogateTable::build(&ctx(), 1);
        assert_eq!(table.of(EntityId::new(0)).len(), 1);
        assert_eq!(table.top_k(), 1);
    }

    #[test]
    fn entity_with_no_results_has_empty_set() {
        let table = SurrogateTable::build(&ctx(), 10);
        assert!(table.of(EntityId::new(2)).is_empty());
        let empty: Vec<EntityId> = table.empty_entities().collect();
        assert_eq!(empty, vec![EntityId::new(2)]);
    }

    #[test]
    fn sets_are_sorted() {
        let table = SurrogateTable::build(&ctx(), 10);
        for e in 0..table.n_entities() {
            let s = table.of(EntityId::from_usize(e));
            for w in s.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds Search Data depth")]
    fn overdeep_k_panics() {
        let _ = SurrogateTable::build(&ctx(), 11);
    }

    /// A context where "alpha beta" was clicked as a query but "gamma"
    /// was not — the click-surrogate gate.
    fn clicked_ctx() -> MiningContext {
        use websyn_click::ClickLogBuilder;
        let docs = vec![
            (PageId::new(0), "alpha beta", "alpha beta official"),
            (PageId::new(1), "alpha beta shop", "alpha beta buy"),
            (PageId::new(2), "gamma", "gamma page"),
        ];
        let engine = websyn_engine::SearchEngine::from_docs(docs);
        let u_set = vec!["alpha beta".to_string(), "gamma".to_string()];
        let search = websyn_engine::SearchData::collect(&engine, &u_set, 10);
        let mut b = ClickLogBuilder::new();
        let q = b.add_impression("alpha beta");
        for _ in 0..5 {
            b.add_click(q, PageId::new(0));
        }
        b.add_click(q, PageId::new(1));
        b.add_click(q, PageId::new(2));
        MiningContext::new(u_set, search, b.build(), 3)
    }

    #[test]
    fn click_surrogates_rank_by_click_count() {
        let ctx = clicked_ctx();
        let table = SurrogateTable::build_from_clicks(&ctx, 2);
        // Pages 0 (5 clicks) and 1-or-2 (1 click each, tie broken by
        // smaller page id) — top-2 = {0, 1}.
        assert_eq!(
            table.of(EntityId::new(0)),
            &[PageId::new(0), PageId::new(1)]
        );
    }

    #[test]
    fn click_surrogates_gate_on_canonical_queries() {
        // "gamma" was never issued as a query → empty surrogate set,
        // exactly the failure mode the paper predicts for canonical
        // data values.
        let ctx = clicked_ctx();
        let table = SurrogateTable::build_from_clicks(&ctx, 5);
        assert!(table.of(EntityId::new(1)).is_empty());
        // Search surrogates have no such gate.
        let search_table = SurrogateTable::build(&ctx, 5);
        assert!(!search_table.of(EntityId::new(1)).is_empty());
    }

    #[test]
    fn build_from_dispatches() {
        let ctx = clicked_ctx();
        let a = SurrogateTable::build_from(&ctx, 2, SurrogateSource::Search);
        let b = SurrogateTable::build(&ctx, 2);
        assert_eq!(a.of(EntityId::new(0)), b.of(EntityId::new(0)));
        let c = SurrogateTable::build_from(&ctx, 2, SurrogateSource::Clicks);
        let d = SurrogateTable::build_from_clicks(&ctx, 2);
        assert_eq!(c.of(EntityId::new(0)), d.of(EntityId::new(0)));
    }
}
