//! Cross-crate property tests: invariants that must hold for *any*
//! click data, not just the synthetic worlds.

use proptest::prelude::*;
use websyn::click::{ClickGraph, ClickLogBuilder, RandomWalk};
use websyn::common::{PageId, QueryId};
use websyn::core::measures::score_candidate;
use websyn::core::{MiningContext, SurrogateTable};
use websyn::engine::{SearchData, SearchEngine};

/// A random click log: queries "q0".."q{nq}", pages 0..np, and a set of
/// (query, page, clicks) triples.
fn arb_click_data(nq: usize, np: usize) -> impl Strategy<Value = Vec<(usize, usize, u8)>> {
    proptest::collection::vec((0..nq, 0..np, 1u8..5), 1..40)
}

/// Builds a mining context whose Search Data assigns each query string
/// in `u_set` a fixed fake surrogate set (pages 0..k), using a tiny
/// real engine over synthetic one-token docs.
fn build_ctx(clicks: &[(usize, usize, u8)], nq: usize, np: usize) -> MiningContext {
    // Docs: page i contains the token "u0" so that the single entity
    // string retrieves the first few pages deterministically.
    let docs: Vec<(PageId, String, String)> = (0..np)
        .map(|i| {
            let text = if i < np.min(5) {
                "u0 entity page"
            } else {
                "filler page"
            };
            (PageId::from_usize(i), format!("title{i}"), text.to_string())
        })
        .collect();
    let engine =
        SearchEngine::from_docs(docs.iter().map(|(id, t, b)| (*id, t.as_str(), b.as_str())));
    let u_set = vec!["u0".to_string()];
    let search = SearchData::collect(&engine, &u_set, 10);

    let mut builder = ClickLogBuilder::new();
    let qids: Vec<QueryId> = (0..nq)
        .map(|i| builder.add_impression(&format!("q{i}")))
        .collect();
    for &(q, p, n) in clicks {
        for _ in 0..n {
            builder.add_click(qids[q], PageId::from_usize(p));
        }
    }
    MiningContext::new(u_set, search, builder.build(), np)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ipc_icr_invariants_hold_for_any_click_data(
        clicks in arb_click_data(6, 12),
    ) {
        let ctx = build_ctx(&clicks, 6, 12);
        let surrogates = SurrogateTable::build(&ctx, 10);
        let e = websyn::common::EntityId::new(0);
        for q in 0..ctx.log.n_queries() {
            let q = QueryId::from_usize(q);
            let s = score_candidate(&ctx, &surrogates, e, q);
            // ICR ∈ [0, 1].
            prop_assert!((0.0..=1.0).contains(&s.icr), "icr {}", s.icr);
            // IPC bounded by both set sizes (Eq. 3 is an intersection).
            prop_assert!(s.ipc as usize <= surrogates.of(e).len());
            prop_assert!(s.ipc as usize <= ctx.log.clicks_of(q).len());
            // IPC > 0 ⇔ ICR > 0.
            prop_assert_eq!(s.ipc > 0, s.icr > 0.0);
        }
    }

    #[test]
    fn graph_conserves_click_mass(clicks in arb_click_data(5, 10)) {
        let mut builder = ClickLogBuilder::new();
        let qids: Vec<QueryId> = (0..5)
            .map(|i| builder.add_impression(&format!("q{i}")))
            .collect();
        let mut total = 0u64;
        for &(q, p, n) in &clicks {
            for _ in 0..n {
                builder.add_click(qids[q], PageId::from_usize(p));
                total += 1;
            }
        }
        let log = builder.build();
        let graph = ClickGraph::build(&log, 10);
        let forward: u64 = (0..graph.n_queries())
            .map(|q| graph.query_degree(QueryId::from_usize(q)))
            .sum();
        let backward: u64 = (0..graph.n_pages())
            .map(|p| graph.page_degree(PageId::from_usize(p)))
            .sum();
        prop_assert_eq!(forward, total);
        prop_assert_eq!(backward, total);
    }

    #[test]
    fn random_walk_mass_never_exceeds_one(
        clicks in arb_click_data(5, 8),
        steps in 0usize..8,
        self_transition in 0.0f64..=1.0,
    ) {
        let mut builder = ClickLogBuilder::new();
        let qids: Vec<QueryId> = (0..5)
            .map(|i| builder.add_impression(&format!("q{i}")))
            .collect();
        for &(q, p, n) in &clicks {
            for _ in 0..n {
                builder.add_click(qids[q], PageId::from_usize(p));
            }
        }
        let log = builder.build();
        let graph = ClickGraph::build(&log, 8);
        let walk = RandomWalk { self_transition, steps, prune: 0.0 };
        let dist = walk.from_query(&graph, qids[0]);
        let total: f64 = dist.iter().map(|&(_, m)| m).sum();
        prop_assert!(total <= 1.0 + 1e-9, "total query mass {total}");
        for &(_, m) in &dist {
            prop_assert!(m >= 0.0);
        }
    }

    #[test]
    fn codec_roundtrips_any_log(clicks in arb_click_data(6, 12)) {
        let mut builder = ClickLogBuilder::new();
        let qids: Vec<QueryId> = (0..6)
            .map(|i| builder.add_impression(&format!("query number {i}")))
            .collect();
        for &(q, p, n) in &clicks {
            for _ in 0..n {
                builder.add_click(qids[q], PageId::from_usize(p));
            }
        }
        let log = builder.build();
        let decoded = websyn::click::codec::decode(websyn::click::codec::encode(&log))
            .expect("roundtrip");
        prop_assert_eq!(decoded.n_queries(), log.n_queries());
        prop_assert_eq!(decoded.tuples(), log.tuples());
        for (q, text) in log.queries() {
            let dq = decoded.query_id(text).expect("query preserved");
            prop_assert_eq!(decoded.impressions(dq), log.impressions(q));
        }
    }

    #[test]
    fn selection_is_antitone_in_both_thresholds(
        clicks in arb_click_data(6, 12),
        beta in 1u32..6,
        gamma in 0.0f64..1.0,
    ) {
        let ctx = build_ctx(&clicks, 6, 12);
        let surrogates = SurrogateTable::build(&ctx, 10);
        let e = websyn::common::EntityId::new(0);
        let scores: Vec<_> = (0..ctx.log.n_queries())
            .map(|q| score_candidate(&ctx, &surrogates, e, QueryId::from_usize(q)))
            .collect();
        let count = |b: u32, g: f64| websyn::core::select(&scores, b, g).count();
        prop_assert!(count(beta + 1, gamma) <= count(beta, gamma));
        prop_assert!(count(beta, (gamma + 0.1).min(1.0)) <= count(beta, gamma));
    }
}

/// A small universe of dictionary-ish surfaces for the fuzzy-matcher
/// properties: 1–2 tokens, long enough that some (not all) afford
/// edits under the default config.
fn arb_surfaces() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z]{3,10}( [a-z0-9]{2,6})?", 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fuzzy matcher never resolves to a surface beyond the
    /// length-scaled edit-distance budget of its config — the
    /// verification stage is authoritative, whatever candidate
    /// generation proposes.
    #[test]
    fn fuzzy_never_fires_beyond_configured_distance(
        surfaces in arb_surfaces(),
        query in "[a-z]{1,12}( [a-z0-9]{1,6})?",
    ) {
        use websyn::core::FuzzyConfig;
        use websyn::text::normalize;

        let cfg = FuzzyConfig::default();
        let m = websyn::core::EntityMatcher::from_pairs(
            surfaces
                .iter()
                .enumerate()
                .map(|(i, s)| (s.clone(), websyn::common::EntityId::from_usize(i))),
        )
        .with_fuzzy(cfg.clone());
        if let Some(hit) = m.lookup_fuzzy(&query) {
            let q = normalize(&query);
            // Reported distance is the real metric distance…
            prop_assert_eq!(hit.distance, cfg.distance(&q, hit.surface()));
            // …and within the budget of BOTH sides' lengths.
            let allowed = cfg
                .max_distance_for(q.chars().count())
                .min(cfg.max_distance_for(hit.surface().chars().count()));
            if hit.distance > 0 {
                prop_assert!(
                    hit.distance <= allowed,
                    "distance {} exceeds budget {} for {:?} -> {:?}",
                    hit.distance, allowed, q, hit.surface()
                );
            }
        }
        // Same property for every span the segmenter emits.
        for span in m.segment(&query) {
            if span.distance > 0 {
                prop_assert!(
                    span.distance <= cfg.max_distance_for(span.surface().chars().count()),
                    "span distance {} beyond budget for {:?}",
                    span.distance, span.surface()
                );
            }
        }
    }

    /// Enabling fuzzy matching changes nothing for surfaces that
    /// resolve exactly: same entity, distance 0, identical spans.
    #[test]
    fn exact_surfaces_resolve_identically_with_fuzzy_enabled(
        surfaces in arb_surfaces(),
    ) {
        use websyn::core::FuzzyConfig;

        let exact = websyn::core::EntityMatcher::from_pairs(
            surfaces
                .iter()
                .enumerate()
                .map(|(i, s)| (s.clone(), websyn::common::EntityId::from_usize(i))),
        );
        let fuzzy = exact.clone().with_fuzzy(FuzzyConfig::default());
        for s in &surfaces {
            // Only surfaces that survived dictionary compilation
            // (duplicates claimed by two entities are dropped).
            let Some(entity) = exact.lookup(s) else { continue };
            prop_assert_eq!(fuzzy.lookup(s), Some(entity));
            let hit = fuzzy.lookup_fuzzy(s).expect("exact surface must resolve");
            prop_assert_eq!(hit.entity, entity);
            prop_assert_eq!(hit.distance, 0);
            prop_assert_eq!(exact.segment(s), fuzzy.segment(s));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `from_pairs` dedupes by sorting normalized rows; it must keep
    /// exactly the surfaces the hash-map dedupe it replaced keeps (each
    /// surface whose every claim names one entity), in the same id
    /// order, and count the same ambiguous drops.
    #[test]
    fn from_pairs_dedupes_like_a_hash_map(
        pairs in proptest::collection::vec(("[aB é-]{0,4}", 0u32..3), 0..30),
    ) {
        use websyn::common::{EntityId, FxHashMap, FxHashSet};
        use websyn::text::normalize;

        let mut surfaces: FxHashMap<String, EntityId> = FxHashMap::default();
        let mut banned: FxHashSet<String> = FxHashSet::default();
        for (raw, entity) in &pairs {
            let (surface, entity) = (normalize(raw), EntityId::new(*entity));
            if surface.is_empty() || banned.contains(&surface) {
                continue;
            }
            match surfaces.get(&surface) {
                None => {
                    surfaces.insert(surface, entity);
                }
                Some(&existing) if existing == entity => {}
                Some(_) => {
                    surfaces.remove(&surface);
                    banned.insert(surface);
                }
            }
        }
        let mut want: Vec<(String, EntityId)> = surfaces.into_iter().collect();
        want.sort_unstable();

        let m = websyn::core::EntityMatcher::from_pairs(
            pairs.iter().map(|(s, e)| (s.as_str(), EntityId::new(*e))),
        );
        let got: Vec<(String, EntityId)> =
            m.dict().iter().map(|(_, s, e)| (s.to_string(), e)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(m.ambiguous_dropped(), banned.len());
    }
}

#[test]
fn matcher_segmentation_never_overlaps() {
    use websyn::core::EntityMatcher;
    let matcher = EntityMatcher::from_pairs(vec![
        ("a b", websyn::common::EntityId::new(0)),
        ("b c d", websyn::common::EntityId::new(1)),
        ("d", websyn::common::EntityId::new(2)),
    ]);
    // Brute-force probe over short token alphabets.
    let tokens = ["a", "b", "c", "d", "x"];
    let mut buf = String::new();
    for i in 0..tokens.len() {
        for j in 0..tokens.len() {
            for k in 0..tokens.len() {
                buf.clear();
                buf.push_str(tokens[i]);
                buf.push(' ');
                buf.push_str(tokens[j]);
                buf.push(' ');
                buf.push_str(tokens[k]);
                let spans = matcher.segment(&buf);
                for w in spans.windows(2) {
                    assert!(w[0].end <= w[1].start, "overlap in {buf:?}");
                }
                for s in &spans {
                    assert!(s.start < s.end);
                    assert!(s.end <= 3);
                }
            }
        }
    }
}
