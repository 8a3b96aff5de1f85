//! Serving-cache correctness: cached and uncached segmentation must be
//! byte-identical — on random dictionaries, random (typo-bearing)
//! queries, tiny caches that evict constantly, and across
//! rebuild-and-swap dictionary replacements that invalidate the cache.
//! Plus the LRU eviction-order contract on the public cache API.

use proptest::prelude::*;
use std::sync::Arc;
use websyn::common::EntityId;
use websyn::core::{EntityMatcher, FuzzyConfig, MatchSpan};
use websyn::serve::{Engine, EngineConfig, ShardedCache};

/// A span projected to plain data for cross-result comparison.
type FlatSpan = (usize, usize, String, EntityId, usize);

fn flatten(spans: &[MatchSpan]) -> Vec<FlatSpan> {
    spans
        .iter()
        .map(|s| {
            (
                s.start,
                s.end,
                s.surface().to_string(),
                s.entity,
                s.distance,
            )
        })
        .collect()
}

/// Applies one deterministic character edit to `s`, driven by `seed`.
fn mutate(s: &str, seed: u64) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return s.to_string();
    }
    let pos = (seed / 4) as usize % chars.len();
    let letter = char::from(b'a' + (seed / 64 % 26) as u8);
    let mut out = chars.clone();
    match seed % 4 {
        0 => out[pos] = letter,
        1 => {
            out.remove(pos);
        }
        2 => out.insert(pos, letter),
        _ => {
            if pos + 1 < out.len() {
                out.swap(pos, pos + 1);
            } else {
                out[pos] = letter;
            }
        }
    }
    out.into_iter().collect()
}

/// Builds a query stream from the dictionary: surfaces verbatim,
/// surfaces with one typo, and noise — with heavy repetition (the
/// selector is taken modulo a small range) so the cache actually hits.
fn compose_queries(
    surfaces: &[(String, EntityId)],
    segments: &[(usize, u64)],
    repetition: usize,
) -> Vec<String> {
    segments
        .iter()
        .map(|&(selector, seed)| {
            let surface = &surfaces[selector % repetition.max(1) % surfaces.len()].0;
            match seed % 4 {
                0 | 3 => surface.clone(),
                1 => mutate(surface, seed / 4),
                _ => format!("{surface} noise{}", seed % 13),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached results are byte-identical to uncached segmentation, on a
    /// cache small enough to evict constantly mid-run.
    #[test]
    fn cached_segmentation_is_byte_identical(
        pairs in collection::vec(("[a-z]{3,9}( [a-z0-9]{2,6}){0,2}", 0u32..6), 2..12),
        segments in collection::vec((0usize..64, 0u64..1_000_000_000), 8..40),
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        let matcher = Arc::new(
            EntityMatcher::from_pairs(pairs.clone()).with_fuzzy(FuzzyConfig::default()),
        );
        let engine = Engine::new(Arc::clone(&matcher), EngineConfig {
            cache_shards: 2,
            cache_capacity: 4, // tiny: eviction pressure throughout
        });
        let queries = compose_queries(&pairs, &segments, 6);
        for query in &queries {
            // First resolution may fill, second must hit (or have been
            // evicted and refill) — both must equal direct segmentation.
            let cold = engine.resolve(query);
            let warm = engine.resolve(query);
            prop_assert_eq!(flatten(&cold), flatten(&matcher.segment(query)), "{}", query);
            prop_assert_eq!(flatten(&warm), flatten(&cold), "{}", query);
        }
        let stats = engine.cache_stats();
        prop_assert_eq!(stats.hits + stats.misses, 2 * queries.len() as u64);
    }

    /// A base replacement (`engine.dict().replace_base(..)`, the
    /// rebuild-and-swap deployment step) invalidates the cache: every
    /// resolution after the swap reflects the new dictionary, never a
    /// stale cached span from the old one.
    #[test]
    fn swap_invalidates_cached_results(
        pairs in collection::vec(("[a-z]{3,9}( [a-z0-9]{2,6}){0,2}", 0u32..6), 2..10),
        segments in collection::vec((0usize..64, 0u64..1_000_000_000), 4..20),
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        let old = Arc::new(
            EntityMatcher::from_pairs(pairs.clone()).with_fuzzy(FuzzyConfig::default()),
        );
        // The new dictionary remaps every surface to a shifted entity
        // id, so any stale cache entry is observable.
        let shifted: Vec<(String, EntityId)> = pairs
            .iter()
            .map(|(s, e)| (s.clone(), EntityId::new(e.raw() + 100)))
            .collect();
        let new = Arc::new(
            EntityMatcher::from_pairs(shifted).with_fuzzy(FuzzyConfig::default()),
        );
        let engine = Engine::new(Arc::clone(&old), EngineConfig {
            cache_shards: 2,
            cache_capacity: 64,
        });
        let queries = compose_queries(&pairs, &segments, 4);
        // Warm the cache against the old dictionary.
        for query in &queries {
            let spans = engine.resolve(query);
            prop_assert_eq!(flatten(&spans), flatten(&old.segment(query)), "{}", query);
        }
        prop_assert!(Arc::ptr_eq(&engine.matcher().shared_dict(), &old.shared_dict()));
        engine.dict().replace_base((*new).clone());
        prop_assert!(Arc::ptr_eq(&engine.matcher().shared_dict(), &new.shared_dict()));
        // Every cached answer must now come from the new dictionary.
        for query in &queries {
            let cold = engine.resolve(query);
            let warm = engine.resolve(query);
            prop_assert_eq!(flatten(&cold), flatten(&new.segment(query)), "{}", query);
            prop_assert_eq!(flatten(&warm), flatten(&cold), "{}", query);
        }
        prop_assert_eq!(engine.swaps(), 1);
    }
}

#[test]
fn eviction_order_is_lru_with_get_refresh() {
    // Single shard so recency order is fully observable through the
    // public API.
    let cache: ShardedCache<u32> = ShardedCache::new(1, 3);
    let generation = cache.generation();
    assert!(cache.insert_at(generation, "alpha", 1));
    assert!(cache.insert_at(generation, "beta", 2));
    assert!(cache.insert_at(generation, "gamma", 3));
    // Refresh "alpha": recency is now alpha > gamma > beta.
    assert_eq!(cache.get("alpha"), Some(1));
    assert!(cache.insert_at(generation, "delta", 4));
    assert_eq!(cache.get("beta"), None, "LRU entry evicted first");
    assert_eq!(cache.get("alpha"), Some(1));
    assert_eq!(cache.get("gamma"), Some(3));
    assert_eq!(cache.get("delta"), Some(4));
    // Two more inserts walk the rest of the recency order (beta is
    // gone; the touched entries above set order delta > gamma > alpha
    // by recency of access... evictions follow least-recent first).
    assert!(cache.insert_at(generation, "epsilon", 5));
    assert_eq!(cache.get("alpha"), None, "next least-recent evicted");
    let stats = cache.stats();
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.entries, 3);
}
