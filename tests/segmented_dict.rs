//! Segmented ≡ monolithic: a base dictionary plus any chain of
//! committed delta segments must resolve **byte-identically** to one
//! monolithic recompile of the merged surface set.
//!
//! The model under test is `DictHandle` (PR 10's dictionary-lifecycle
//! API): an immutable base, live deltas (upserts re-pointing or adding
//! surfaces, tombstones removing them), a collapsed overlay consulted
//! in lock-step with the base, footprint-gated window-cache promotion
//! across commits, and compaction folding the chain back into a base.
//! None of that machinery may be visible in a span: for every commit
//! prefix, `segment`, `match_batch` and `lookup_fuzzy` against the
//! segmented matcher must equal the same calls against
//! `EntityMatcher::from_pairs` over an independently maintained merged
//! map — with the shared window cache attached and without, warm and
//! cold, and across a final compaction.
//!
//! A separate hammer test drives commits and compactions from a writer
//! thread while reader threads resolve on epoch-pinned snapshots,
//! checking each snapshot against a monolithic recompile of its own
//! serialized artifact.

use proptest::prelude::*;
use std::sync::Arc;
use websyn::common::{EntityId, FxHashMap, FxHashSet};
use websyn::core::{DictDelta, DictHandle, EntityMatcher, FuzzyConfig, MatchSpan, WindowCache};
use websyn::text::normalize;

/// A span projected to plain data: segmented and monolithic matchers
/// intern surfaces into different id spaces, so spans compare on
/// (start, end, surface string, entity, distance).
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

/// Replicates `EntityMatcher::from_pairs` admission (normalize, ban
/// ambiguous surfaces) into a plain map — the starting point of the
/// independently maintained merged model.
fn base_model(pairs: &[(String, EntityId)]) -> FxHashMap<String, EntityId> {
    let mut surfaces: FxHashMap<String, EntityId> = FxHashMap::default();
    let mut banned: FxHashSet<String> = FxHashSet::default();
    for (raw, entity) in pairs {
        let surface = normalize(raw);
        if surface.is_empty() || banned.contains(&surface) {
            continue;
        }
        match surfaces.get(&surface) {
            None => {
                surfaces.insert(surface, *entity);
            }
            Some(&existing) if existing == *entity => {}
            Some(_) => {
                surfaces.remove(&surface);
                banned.insert(surface);
            }
        }
    }
    surfaces
}

/// One generated delta op. `sel` picks a base surface for the
/// re-point/tombstone kinds; `fresh` is a new surface for the others.
type DeltaOp = (usize, u32, String, u32);

/// Applies generated ops to both the `DictDelta` under test and the
/// independent merged model, in the same order.
fn build_delta(
    ops: &[DeltaOp],
    base_surfaces: &[String],
    model: &mut FxHashMap<String, EntityId>,
) -> DictDelta {
    let mut delta = DictDelta::new();
    for (sel, kind, fresh, entity) in ops {
        let entity = EntityId::new(*entity);
        let existing =
            (!base_surfaces.is_empty()).then(|| &base_surfaces[sel % base_surfaces.len()]);
        match (kind % 4, existing) {
            (0, Some(s)) => {
                delta.upsert(s, entity);
                model.insert(s.clone(), entity);
            }
            (1, Some(s)) => {
                delta.tombstone(s);
                model.remove(s);
            }
            (2, _) | (0, None) => {
                let s = normalize(fresh);
                if !s.is_empty() {
                    delta.upsert(&s, entity);
                    model.insert(s, entity);
                }
            }
            _ => {
                let s = normalize(fresh);
                if !s.is_empty() {
                    delta.tombstone(&s);
                    model.remove(&s);
                }
            }
        }
    }
    delta
}

/// One deterministic character edit (substitution, deletion,
/// insertion, transposition) driven by `seed`.
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

/// Builds a query over the full surface universe (base and delta):
/// verbatim surfaces, typo'd surfaces, and noise words.
fn compose_query(surfaces: &[String], segments: &[(usize, u64)]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for &(selector, seed) in segments {
        if surfaces.is_empty() {
            parts.push(format!("noise{}", seed % 97));
            continue;
        }
        let surface = &surfaces[selector % surfaces.len()];
        match seed % 3 {
            0 => parts.push(surface.clone()),
            1 => parts.push(mutate(surface, seed / 3)),
            _ => parts.push(format!("noise{}", seed % 97)),
        }
    }
    parts.join(" ")
}

/// The monolithic oracle for the current merged model.
fn oracle(model: &FxHashMap<String, EntityId>, config: &FuzzyConfig) -> EntityMatcher {
    EntityMatcher::from_pairs(model.iter().map(|(s, &e)| (s.clone(), e))).with_fuzzy(config.clone())
}

/// Drives a full commit-by-commit equivalence run for one config:
/// after every commit, segmented (cached and uncached) must equal the
/// monolithic oracle on every query; then compaction must change
/// nothing.
#[allow(clippy::too_many_arguments)]
fn check_equivalence(
    pairs: Vec<(String, EntityId)>,
    deltas: Vec<Vec<DeltaOp>>,
    segments: Vec<(usize, u64)>,
    config: FuzzyConfig,
) {
    let mut model = base_model(&pairs);
    let base_surfaces: Vec<String> = {
        let mut v: Vec<String> = model.keys().cloned().collect();
        v.sort_unstable();
        v
    };
    let base = EntityMatcher::from_pairs(pairs).with_fuzzy(config.clone());
    // Two handles over the same lifecycle: one with the shared
    // cross-batch window cache (exercising its (lineage, revision)
    // stamps: another lineage's entries are invisible, older-revision
    // entries are promoted by footprint across commits and survive
    // compaction), one without.
    let cache = Arc::new(WindowCache::new(256));
    let cached_handle = DictHandle::new(base.clone().with_shared_window_cache(Arc::clone(&cache)));
    let plain_handle = DictHandle::new(base);
    cached_handle.set_auto_compact(0);
    plain_handle.set_auto_compact(0);

    let mut universe = base_surfaces.clone();
    for ops in &deltas {
        for (_, kind, fresh, _) in ops {
            if kind % 4 >= 2 {
                let s = normalize(fresh);
                if !s.is_empty() {
                    universe.push(s);
                }
            }
        }
    }
    let queries: Vec<String> = (0..4)
        .map(|i| {
            let shifted: Vec<(usize, u64)> = segments
                .iter()
                .map(|&(sel, seed)| (sel + i, seed + i as u64))
                .collect();
            compose_query(&universe, &shifted)
        })
        .collect();

    let check = |label: &str, model: &FxHashMap<String, EntityId>| {
        let want_matcher = oracle(model, &config);
        let cached = cached_handle.matcher();
        let plain = plain_handle.matcher();
        assert_eq!(cached.len(), want_matcher.len(), "len {}", label);
        for q in &queries {
            let want = flatten(&want_matcher.segment(q));
            assert_eq!(
                &flatten(&plain.segment(q)),
                &want,
                "plain {} {:?}",
                label,
                q
            );
            // Two passes on the cached matcher: cold (footprint
            // promotion / re-resolution) then warm (own-stamp hits).
            assert_eq!(
                &flatten(&cached.segment(q)),
                &want,
                "cached {} {:?}",
                label,
                q
            );
            assert_eq!(
                &flatten(&cached.segment(q)),
                &want,
                "warm {} {:?}",
                label,
                q
            );
            // Whole-query fuzzy lookup agrees (surface/entity/distance).
            let got = cached
                .lookup_fuzzy(q)
                .map(|h| (h.surface().to_string(), h.entity, h.distance));
            let wanted = want_matcher
                .lookup_fuzzy(q)
                .map(|h| (h.surface().to_string(), h.entity, h.distance));
            assert_eq!(got, wanted, "lookup_fuzzy {} {:?}", label, q);
        }
        // The sharded batch path agrees too.
        let want_batch: Vec<Vec<FlatSpan>> = want_matcher
            .match_batch(&queries, 3)
            .iter()
            .map(|s| flatten(s))
            .collect();
        let got_batch: Vec<Vec<FlatSpan>> = cached
            .match_batch(&queries, 3)
            .iter()
            .map(|s| flatten(s))
            .collect();
        assert_eq!(got_batch, want_batch, "match_batch {}", label);
    };

    check("epoch 0", &model);
    for (k, ops) in deltas.iter().enumerate() {
        let delta = build_delta(ops, &base_surfaces, &mut model);
        cached_handle.apply(delta.clone());
        plain_handle.apply(delta);
        check(&format!("commit {}", k + 1), &model);
    }
    // Compaction folds the chain into a fresh base without changing a
    // single span.
    cached_handle.compact();
    plain_handle.compact();
    check("compacted", &model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Base + delta chain ≡ monolithic recompile of the merged TSV,
    /// on the default (token-signature) chain: per commit, per query,
    /// segment + match_batch + lookup_fuzzy, window cache on and off,
    /// and across compaction.
    #[test]
    fn segmented_matches_monolithic_recompile(
        pairs in collection::vec(("[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6), 1..12),
        deltas in collection::vec(
            collection::vec(
                (0usize..64, 0u32..4, "[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6),
                1..5,
            ),
            1..4,
        ),
        segments in collection::vec((0usize..64, 0u64..1_000_000_000), 1..5),
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        check_equivalence(pairs, deltas, segments, FuzzyConfig::default());
    }

    /// Same equivalence with the transform source (abbreviation keys)
    /// enabled: it proposes across token-count gaps, the hard case for
    /// the merged chain and for footprint gating.
    #[test]
    fn segmented_matches_monolithic_with_transform_sources(
        pairs in collection::vec(("[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6), 1..10),
        deltas in collection::vec(
            collection::vec(
                (0usize..64, 0u32..4, "[a-z]{3,10}( [a-z0-9]{2,6}){0,2}", 0u32..6),
                1..4,
            ),
            1..3,
        ),
        segments in collection::vec((0usize..64, 0u64..1_000_000_000), 1..4),
    ) {
        let pairs: Vec<(String, EntityId)> = pairs
            .into_iter()
            .map(|(s, e)| (s, EntityId::new(e)))
            .collect();
        let config = FuzzyConfig {
            abbrev: true,
            ..FuzzyConfig::default()
        };
        check_equivalence(pairs, deltas, segments, config);
    }
}

/// One `(lineage, revision)` window-cache stamp names one dictionary,
/// whichever handles share the cache: a base restored from a clone
/// after a compaction, and two handles built from clones of one
/// matcher, stamp their revisions under lineages of their own. Each
/// case first caches a window verdict on a chain that tombstones
/// "canon eos 350d", then resolves the typo on a chain that only adds
/// an unrelated surface, at the same revision.
#[test]
fn window_stamps_never_cross_delta_chains() {
    let config = FuzzyConfig::default();
    let pairs = [
        ("canon eos", 1),
        ("canon eos 350d", 2),
        ("sony alpha a100", 3),
    ];
    let mut model: FxHashMap<String, EntityId> = pairs
        .iter()
        .map(|&(s, e)| (s.to_string(), EntityId::new(e)))
        .collect();
    let base = EntityMatcher::from_pairs(model.clone())
        .with_fuzzy(config.clone())
        .with_window_cache(256);
    let mut tombstone = DictDelta::new();
    tombstone.tombstone("canon eos 350d");
    let mut unrelated = DictDelta::new();
    unrelated.upsert("pentax k10d", EntityId::new(4));
    model.insert("pentax k10d".to_string(), EntityId::new(4));
    let want = flatten(&oracle(&model, &config).segment("cannon eos 350d"));
    assert_eq!(want[0].2, "canon eos 350d", "the typo resolves whole");

    // Rollback: tombstone, compact, restore a clone of the base, then
    // commit an unrelated delta.
    let handle = DictHandle::new(base.clone());
    handle.set_auto_compact(0);
    handle.apply(tombstone.clone());
    assert_ne!(flatten(&handle.matcher().segment("cannon eos 350d")), want);
    handle.compact();
    handle.replace_base(base.clone());
    handle.apply(unrelated.clone());
    assert_eq!(flatten(&handle.matcher().segment("cannon eos 350d")), want);

    // Two live handles over clones of one matcher.
    let a = DictHandle::new(base.clone());
    let b = DictHandle::new(base);
    a.apply(tombstone);
    b.apply(unrelated);
    assert_ne!(flatten(&a.matcher().segment("cannon eos 350d")), want);
    assert_eq!(flatten(&b.matcher().segment("cannon eos 350d")), want);
}

/// Compaction keeps the lineage and revision, and a window verdict
/// names its surface by string, not by an id the recompile renumbers:
/// every window warmed on the base + overlay is served from the cache
/// by the compacted base, with not one new miss.
#[test]
fn compaction_keeps_every_warm_window() {
    let config = FuzzyConfig::default();
    let mut model: FxHashMap<String, EntityId> = [
        ("canon eos 350d", 1),
        ("sony alpha a100", 2),
        ("nikon d80", 3),
    ]
    .iter()
    .map(|&(s, e)| (s.to_string(), EntityId::new(e)))
    .collect();
    let base = EntityMatcher::from_pairs(model.clone())
        .with_fuzzy(config.clone())
        .with_window_cache(256);
    let cache = Arc::clone(base.window_cache().expect("cache attached"));
    let handle = DictHandle::new(base);
    handle.set_auto_compact(0);
    let mut delta = DictDelta::new();
    delta.upsert("pentax k10d", EntityId::new(4));
    delta.tombstone("nikon d80");
    handle.apply(delta);
    model.insert("pentax k10d".to_string(), EntityId::new(4));
    model.remove("nikon d80");
    let queries = [
        "cannon eos 350d price",
        "pentx k10d review",
        "sony alpah a100 vs pentax k10d",
        "nikon d80 lens",
        "weather in paris tonight",
    ];
    let oracle = oracle(&model, &config);
    let read = |label: &str| {
        let matcher = handle.matcher();
        for q in queries {
            assert_eq!(
                flatten(&matcher.segment(q)),
                flatten(&oracle.segment(q)),
                "{label} {q:?}"
            );
        }
    };
    read("overlay");
    let warm = cache.stats();
    assert!(warm.misses > 0, "{warm:?}");
    handle.compact();
    assert_eq!(
        (handle.stats().compactions, handle.stats().segments),
        (1, 0)
    );
    read("compacted");
    let after = cache.stats();
    assert_eq!(after.misses, warm.misses, "a window missed: {after:?}");
    assert!(after.hits > warm.hits, "{after:?}");
}

/// A window first won by an overlay upsert is cached like any other:
/// promoted across a commit that cannot touch it, and re-resolved
/// after one that re-points or tombstones its surface.
#[test]
fn overlay_won_windows_are_cached_until_their_surface_changes() {
    let config = FuzzyConfig::default();
    let mut model: FxHashMap<String, EntityId> = [("canon eos 350d", 1), ("sony alpha a100", 2)]
        .iter()
        .map(|&(s, e)| (s.to_string(), EntityId::new(e)))
        .collect();
    let base = EntityMatcher::from_pairs(model.clone())
        .with_fuzzy(config.clone())
        .with_window_cache(256);
    let cache = Arc::clone(base.window_cache().expect("cache attached"));
    let handle = DictHandle::new(base);
    handle.set_auto_compact(0);
    let query = "pentx k10d";
    let commit = |model: &mut FxHashMap<String, EntityId>, surface: &str, entity: Option<u32>| {
        let mut delta = DictDelta::new();
        match entity {
            Some(e) => {
                delta.upsert(surface, EntityId::new(e));
                model.insert(surface.to_string(), EntityId::new(e));
            }
            None => {
                delta.tombstone(surface);
                model.remove(surface);
            }
        }
        handle.apply(delta);
        let got = flatten(&handle.matcher().segment(query));
        assert_eq!(
            got,
            flatten(&oracle(model, &config).segment(query)),
            "{surface}"
        );
        (got, cache.stats())
    };

    let (spans, first) = commit(&mut model, "pentax k10d", Some(4));
    assert_eq!(
        (spans[0].2.as_str(), spans[0].3),
        ("pentax k10d", EntityId::new(4))
    );
    assert!(first.misses > 0, "{first:?}");

    let (_, unrelated) = commit(&mut model, "olympus e510", Some(5));
    assert_eq!(unrelated.misses, first.misses, "{unrelated:?}");
    assert!(unrelated.promotions > first.promotions, "{unrelated:?}");

    let (spans, repointed) = commit(&mut model, "pentax k10d", Some(6));
    assert_eq!(spans[0].3, EntityId::new(6));
    assert!(repointed.misses > unrelated.misses, "{repointed:?}");

    let (spans, tombstoned) = commit(&mut model, "pentax k10d", None);
    assert!(spans.is_empty(), "{spans:?}");
    assert!(tombstoned.misses > repointed.misses, "{tombstoned:?}");
}

/// Readers resolve on epoch-pinned snapshots while a writer commits
/// deltas and compactions underneath them. Every snapshot must be
/// internally consistent: segmenting through it equals a monolithic
/// recompile of its own serialized artifact, no matter how many
/// commits have landed since it was pinned.
#[test]
fn concurrent_apply_while_resolving() {
    let base: Vec<(String, EntityId)> = (0..24)
        .map(|i| (format!("entity number {i}"), EntityId::new(i)))
        .collect();
    let handle = DictHandle::new(
        EntityMatcher::from_pairs(base)
            .with_fuzzy(FuzzyConfig::default())
            .with_window_cache(512),
    );
    handle.set_auto_compact(4);
    let queries: Vec<String> = (0..8)
        .map(|i| format!("find entity numbr {i} and entity number {} now", i + 8))
        .collect();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..4 {
            let handle = handle.clone();
            let queries = &queries;
            let done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let mut iters = 0u32;
                while !done.load(std::sync::atomic::Ordering::Relaxed) || iters < 32 {
                    let snapshot = handle.matcher();
                    let spans: Vec<_> = queries.iter().map(|q| snapshot.segment(q)).collect();
                    if iters % 16 == r {
                        // Pin the snapshot against a monolithic
                        // recompile of its own artifact.
                        let recompiled = EntityMatcher::from_tsv(&snapshot.to_tsv()).unwrap();
                        for (q, got) in queries.iter().zip(&spans) {
                            assert_eq!(
                                flatten(got),
                                flatten(&recompiled.segment(q)),
                                "snapshot diverged from its own recompile on {q:?}"
                            );
                        }
                    }
                    iters += 1;
                }
            }));
        }
        // Writer: a burst of commits (upserts, re-points, tombstones)
        // with auto-compaction firing mid-stream.
        for k in 0..24u32 {
            let mut delta = DictDelta::new();
            match k % 3 {
                0 => delta.upsert(&format!("fresh surface {k}"), EntityId::new(100 + k)),
                1 => delta.upsert(&format!("entity number {}", k % 24), EntityId::new(200 + k)),
                _ => delta.tombstone(&format!("entity number {}", k % 24)),
            }
            handle.apply(delta);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        handle.compact();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
    });
    // The final state is consistent and fully merged.
    let stats = handle.stats();
    assert_eq!(stats.pending, 0);
    let m = handle.matcher();
    let recompiled = EntityMatcher::from_tsv(&m.to_tsv()).unwrap();
    for q in &queries {
        assert_eq!(flatten(&m.segment(q)), flatten(&recompiled.segment(q)));
    }
}
