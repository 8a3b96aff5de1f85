//! Bound-on ≡ bound-off: the character-count bound only skips work.
//!
//! Every resolution path runs twice over one compiled dictionary, once
//! with the bound screening candidates and once with it turned off on
//! the test thread ([`super::without_bound`]), and must produce the
//! same output: segmentation with per-position prefix generation,
//! whole-query and per-window resolution without it, and the merged
//! base + delta chain of a [`DictHandle`].

use super::without_bound;
use crate::{DictDelta, DictHandle, EntityMatcher, FuzzyConfig, FuzzyDictionary};
use websyn_common::rng::splitmix64;
use websyn_common::EntityId;

/// A deterministic case generator (splitmix64 stream).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn word(&mut self, alphabet: &[u8], lo: usize, hi: usize) -> String {
        let len = lo + self.below(hi - lo + 1);
        (0..len)
            .map(|_| char::from(alphabet[self.below(alphabet.len())]))
            .collect()
    }

    /// A surface of one to three tokens.
    fn surface(&mut self, alphabet: &[u8]) -> String {
        let tokens = 1 + self.below(3);
        (0..tokens)
            .map(|_| self.word(alphabet, 2, 7))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// `s` with one or two char edits, spaces included: substitution,
    /// deletion, insertion or adjacent transposition.
    fn damage(&mut self, s: &str) -> String {
        let mut chars: Vec<char> = s.chars().collect();
        for _ in 0..1 + self.below(2) {
            if chars.is_empty() {
                break;
            }
            let at = self.below(chars.len());
            let c = char::from(b"abcdez9 "[self.below(8)]);
            match self.below(4) {
                0 => chars[at] = c,
                1 => {
                    chars.remove(at);
                }
                2 => chars.insert(at, c),
                _ if at + 1 < chars.len() => chars.swap(at, at + 1),
                _ => chars[at] = c,
            }
        }
        chars.into_iter().collect()
    }
}

/// Every resolution entry point of `matcher` on `query`, in a form
/// that compares across the two runs.
fn outputs(matcher: &EntityMatcher, query: &str) -> String {
    let mut out = format!("{:?}\n", matcher.segment(query));
    let hit = matcher
        .lookup_fuzzy(query)
        .map(|h| (h.surface().to_string(), h.entity, h.distance));
    out.push_str(&format!("{hit:?}\n"));
    out
}

/// Resolutions of every token-aligned window of `query` through
/// [`FuzzyDictionary::resolve`], which generates per window (no
/// per-position prefix pass).
fn window_outputs(fuzzy: &FuzzyDictionary, query: &str) -> String {
    let tokens: Vec<&str> = query.split(' ').filter(|t| !t.is_empty()).collect();
    let mut out = String::new();
    for i in 0..tokens.len() {
        for j in i + 1..=tokens.len() {
            let hit = fuzzy
                .resolve(&tokens[i..j].join(" "))
                .map(|h| (h.surface_id, h.entity, h.distance));
            out.push_str(&format!("{hit:?} "));
        }
    }
    out
}

fn assert_same(what: &str, case: u64, on: String, off: String) {
    assert_eq!(on, off, "{what} differs with the bound on, case {case}");
}

/// One random case: a small dictionary, a few damaged queries, one or
/// two delta commits.
fn check_case(case: u64, config: &FuzzyConfig) {
    let mut g = Gen(case.wrapping_mul(0x2545_f491_4f6c_dd1d));
    // Small alphabets make surfaces share tokens and chars, so the
    // generators propose many candidates the bound can reject.
    let alphabet: &[u8] = match case % 3 {
        0 => b"abcde",
        1 => b"abcdefgh12",
        _ => b"abcdefghijklmnopqrstuvwxyz0123456789",
    };
    let n = 2 + g.below(14);
    let pairs: Vec<(String, EntityId)> = (0..n)
        .map(|_| (g.surface(alphabet), EntityId::new(g.below(5) as u32)))
        .collect();
    let surfaces: Vec<String> = pairs.iter().map(|(s, _)| s.clone()).collect();
    let matcher = EntityMatcher::from_pairs(pairs).with_fuzzy(config.clone());
    let queries: Vec<String> = (0..6)
        .map(|_| {
            (0..1 + g.below(3))
                .map(|_| {
                    let s = &surfaces[g.below(surfaces.len())];
                    match g.below(4) {
                        0 => s.clone(),
                        3 => g.word(alphabet, 2, 6),
                        _ => g.damage(s),
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .map(|q| websyn_text::normalize(&q))
        .collect();

    let fuzzy = matcher.fuzzy_dict().expect("fuzzy enabled");
    for q in &queries {
        assert_same(
            "segment",
            case,
            outputs(&matcher, q),
            without_bound(|| outputs(&matcher, q)),
        );
        assert_same(
            "window resolve",
            case,
            window_outputs(fuzzy, q),
            without_bound(|| window_outputs(fuzzy, q)),
        );
    }

    // The merged path: base + delta overlay, no window cache.
    let handle = DictHandle::new(matcher);
    handle.set_auto_compact(0);
    for _ in 0..1 + g.below(2) {
        let mut delta = DictDelta::new();
        for _ in 0..1 + g.below(4) {
            if g.below(3) == 0 {
                delta.tombstone(&surfaces[g.below(surfaces.len())]);
            } else {
                let pick = g.below(surfaces.len());
                let s = match g.below(2) {
                    0 => g.damage(&surfaces[pick]),
                    _ => g.surface(alphabet),
                };
                delta.upsert(
                    &websyn_text::normalize(&s),
                    EntityId::new(g.below(5) as u32),
                );
            }
        }
        handle.apply(delta);
        let merged = handle.matcher();
        for q in &queries {
            assert_same(
                "merged segment",
                case,
                outputs(&merged, q),
                without_bound(|| outputs(&merged, q)),
            );
        }
    }
}

#[test]
fn bound_on_matches_bound_off_on_random_dictionaries() {
    let before = crate::telemetry::CANDIDATES_BOUNDED.get();
    let configs = [
        FuzzyConfig::default(),
        FuzzyConfig {
            transpositions: false,
            ..FuzzyConfig::default()
        },
        FuzzyConfig {
            token_signature: false,
            ..FuzzyConfig::default()
        },
        FuzzyConfig {
            abbrev: true,
            ..FuzzyConfig::default()
        },
    ];
    for case in 0..160u64 {
        check_case(case, &configs[case as usize % configs.len()]);
    }
    // The cases must exercise the bound, not only pass around it.
    assert!(crate::telemetry::CANDIDATES_BOUNDED.get() > before);
}

/// A two-token window whose tokens are both out of vocabulary: the
/// token-signature index proposes one surface (the query token
/// "abcdefgh" is that surface's de-spaced pair key), and the bound
/// rejects it. The n-gram fallback must still read that the index
/// proposed something, and stay off: if it fired, it would resolve
/// the window to "abcdefgx zq", two substitutions away.
#[test]
fn bounded_proposals_still_gate_the_ngram_fallback() {
    let query = "abcdefgh zw";
    // Distance 3 (one inserted space, two substitutions); char-count
    // bound 3, over the window budget of 2.
    let proposed = ("abcd efgh xy".to_string(), EntityId::new(1));
    let behind_fallback = ("abcdefgx zq".to_string(), EntityId::new(2));

    // Alone, the second surface is what the fallback finds.
    let alone = FuzzyDictionary::build(vec![behind_fallback.clone()], FuzzyConfig::default());
    let hit = alone.resolve(query).expect("fallback hit");
    assert_eq!((hit.surface(), hit.distance), ("abcdefgx zq", 2));

    let pairs = vec![proposed.clone(), behind_fallback.clone()];
    let fuzzy = FuzzyDictionary::build(pairs.clone(), FuzzyConfig::default());
    let matcher = EntityMatcher::from_pairs(pairs).with_fuzzy(FuzzyConfig::default());
    for bound_off in [false, true] {
        let run = || {
            (
                fuzzy.resolve(query).map(|h| h.surface_id),
                matcher.segment(query),
            )
        };
        let (resolved, spans) = if bound_off { without_bound(run) } else { run() };
        assert_eq!(resolved, None, "per-window path, bound off: {bound_off}");
        assert!(
            spans.is_empty(),
            "prefix path, bound off: {bound_off}: {spans:?}"
        );
    }

    // The merged path: the proposed surface in the base, the other in
    // a delta.
    let handle = DictHandle::new(
        EntityMatcher::from_pairs(vec![proposed]).with_fuzzy(FuzzyConfig::default()),
    );
    handle.set_auto_compact(0);
    let mut delta = DictDelta::new();
    delta.upsert(&behind_fallback.0, behind_fallback.1);
    handle.apply(delta);
    let merged = handle.matcher();
    assert!(merged.segment(query).is_empty());
    assert!(merged.lookup_fuzzy(query).is_none());
}
