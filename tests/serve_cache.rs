//! Serving-cache correctness: cached and uncached segmentation must be
//! byte-identical — on random dictionaries, random (typo-bearing)
//! queries, tiny caches that evict constantly, and across
//! rebuild-and-swap dictionary replacements that invalidate the cache.
//! Plus the LRU eviction-order contract on the public cache API.

use proptest::prelude::*;
use std::sync::Arc;
use websyn::common::EntityId;
use websyn::core::{DictDelta, DictHandle, EntityMatcher, FuzzyConfig, MatchSpan, WindowCache};
use websyn::serve::{Engine, EngineConfig, ShardedCache, Stamp};

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

    /// Cache-on ≡ cache-off through a live dictionary history: random
    /// delta chains (new surfaces, re-points, tombstones), a compaction
    /// mid-chain, a run of commits longer than the footprint log
    /// reaches, a compaction and a rollback to a clone of the original
    /// base followed by more deltas, and a base replacement. Every base
    /// shares one window cache. After every step each read through a
    /// 4-entry result cache equals direct segmentation by the served
    /// matcher, and every read counts exactly one hit or miss.
    #[test]
    fn cached_results_track_every_dictionary_change(
        pool in collection::vec("[a-z]{3,8}( [a-z0-9]{2,5}){0,2}", 4..10),
        base in collection::vec((0usize..64, 0u32..6), 2..8),
        chain in collection::vec(collection::vec((0usize..64, 0u32..9), 1..4), 2..8),
        picks in collection::vec((0usize..64, 0u64..1_000_000_000), 4..10),
    ) {
        let surface = |i: usize| pool[i % pool.len()].as_str();
        let pairs = |shift: u32| -> Vec<(String, EntityId)> {
            base.iter()
                .map(|&(i, e)| (surface(i).to_string(), EntityId::new(e + shift)))
                .collect()
        };
        // Ops 0..6 upsert (a re-point when the surface is already
        // bound), 6..9 tombstone.
        let delta = |ops: &[(usize, u32)], shift: u32| {
            let mut delta = DictDelta::new();
            for &(i, op) in ops {
                match op {
                    0..=5 => delta.upsert(surface(i), EntityId::new(op + shift)),
                    _ => delta.tombstone(surface(i)),
                }
            }
            delta
        };
        let queries: Vec<String> = picks
            .iter()
            .map(|&(i, seed)| match seed % 4 {
                0 | 3 => surface(i).to_string(),
                1 => mutate(surface(i), seed / 4),
                _ => format!("{} noise{}", surface(i), seed % 13),
            })
            .collect();
        let windows = Arc::new(WindowCache::new(64));
        let compile = |shift: u32| {
            EntityMatcher::from_pairs(pairs(shift)).with_fuzzy(FuzzyConfig::default())
        };
        let cached = |shift: u32| compile(shift).with_shared_window_cache(Arc::clone(&windows));
        let original = cached(0);
        let engine = Engine::new(
            Arc::new(original.clone()),
            EngineConfig { cache_shards: 1, cache_capacity: 4 },
        );
        // The oracle: the same history on a handle with no cache at all.
        let oracle = DictHandle::new(compile(0));
        for dict in [engine.dict(), &oracle] {
            dict.set_auto_compact(0);
        }
        let apply = |delta: DictDelta| {
            oracle.apply(delta.clone());
            engine.dict().apply(delta);
        };
        let compact = || {
            oracle.compact();
            engine.dict().compact();
        };
        let mut reads = 0u64;
        let mut check = |step: &str| {
            for query in &queries {
                let want = flatten(&oracle.matcher().segment(query));
                let served = engine.matcher().segment(query);
                prop_assert_eq!(flatten(&served), want.clone(), "{} at {}", query, step);
                let got = engine.resolve(query);
                prop_assert_eq!(flatten(&got), want, "{} at {}", query, step);
                reads += 1;
            }
            let stats = engine.cache_stats();
            prop_assert_eq!(stats.hits + stats.misses, reads, "at {}", step);
        };
        check("base");
        let (first, second) = chain.split_at(chain.len() / 2);
        for ops in first {
            apply(delta(ops, 0));
            check("first half");
        }
        compact();
        check("compaction");
        for ops in second {
            apply(delta(ops, 0));
            check("second half");
        }
        // Past the footprint log's reach: entries cached before the run
        // can no longer be proven unaffected.
        for j in 0..70u32 {
            apply(delta(&chain[j as usize % chain.len()], j % 3));
            check("long run");
        }
        // Windows the compacted base never re-resolved still hold
        // verdicts of the old chains; a restored clone of the original
        // base must not be served them at its own epochs.
        compact();
        check("second compaction");
        oracle.replace_base(compile(0));
        engine.dict().replace_base(original);
        check("rollback");
        for ops in chain.iter().rev() {
            apply(delta(ops, 300));
            check("after rollback");
        }
        oracle.replace_base(compile(100));
        engine.dict().replace_base(cached(100));
        check("replacement");
        for ops in &chain {
            apply(delta(ops, 200));
            check("new lineage");
        }
        prop_assert_eq!(engine.swaps(), 2);
    }
}

#[test]
fn eviction_order_is_lru_with_get_refresh() {
    // Single shard so recency order is fully observable through the
    // public API; every entry carries the same stamp.
    let cache: ShardedCache<u32> = ShardedCache::new(1, 3);
    let stamp = Stamp::default();
    let get = |key: &str| cache.get(key, stamp, |_, _| false);
    assert!(cache.insert("alpha", stamp, 1));
    assert!(cache.insert("beta", stamp, 2));
    assert!(cache.insert("gamma", stamp, 3));
    // Refresh "alpha": recency is now alpha > gamma > beta.
    assert_eq!(get("alpha"), Some(1));
    assert!(cache.insert("delta", stamp, 4));
    assert_eq!(get("beta"), None, "LRU entry evicted first");
    assert_eq!(get("alpha"), Some(1));
    assert_eq!(get("gamma"), Some(3));
    assert_eq!(get("delta"), Some(4));
    // Two more inserts walk the rest of the recency order (beta is
    // gone; the touched entries above set order delta > gamma > alpha
    // by recency of access... evictions follow least-recent first).
    assert!(cache.insert("epsilon", stamp, 5));
    assert_eq!(get("alpha"), None, "next least-recent evicted");
    let stats = cache.stats();
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.entries, 3);
}
