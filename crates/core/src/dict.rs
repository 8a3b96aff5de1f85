//! The compiled token-ID dictionary behind [`crate::matcher`].
//!
//! The PR-2 matcher kept its dictionary as a `String → EntityId` hash
//! map, so every segmenter window paid for a `join(" ")` allocation and
//! a string hash before it could even miss. At web-serving rates the
//! segmenter *is* the front end (cf. Gollapudi et al., "Efficient Query
//! Rewrite for Structured Web Queries", which compiles rewrites into a
//! lookup structure for exactly this reason), so the dictionary is now
//! *compiled*:
//!
//! - every distinct dictionary token is interned to a dense
//!   [`TokenId`] through [`websyn_common::StringInterner`];
//! - every surface becomes a token-id slice in one flat arena
//!   (`offsets` delimit surface `i` — no per-surface `Vec`);
//! - surfaces are ordered by token sequence in a probe table that is
//!   bucketed by first token and binary-searched within the bucket.
//!
//! Every per-surface and per-token table is a flat array: the surface
//! strings share one `String` arena delimited by `u32` offsets, and the
//! token vocabulary is one arena behind a `u32` hash table. A compiled
//! dictionary is a fixed set of heap blocks whatever its size, and a
//! match's `Arc<str>` surface ([`CompiledDict::surface_arc`]) is copied
//! out of the arena only when a span or window verdict is emitted.
//!
//! Query side, the normalized query is tokenized **once** into byte
//! ranges ([`websyn_text::token_bounds`]) and mapped to token ids; a
//! segmenter window is then a `&[u32]` slice probe — integer compares,
//! no allocation, no string hashing. A token the dictionary has never
//! seen maps to [`UNKNOWN_TOKEN`], which can never equal an arena
//! entry, so unknown-token windows miss for free.
//!
//! Surface ids ([`SurfaceId`]) are assigned in lexicographic surface
//! order. That makes id order meaningful (comparing ids compares
//! surfaces), keeps candidate-generation output deterministic, and lets
//! the fuzzy resolver's "lexicographically smallest surface wins ties"
//! rule fall out of plain id ascension.

use std::sync::Arc;
use websyn_common::{EntityId, StringInterner, SurfaceId, TokenId};
use websyn_text::{token_bounds, CharBag};

/// Sentinel for a query token absent from the dictionary vocabulary.
/// Dictionary token ids are dense from 0, so `u32::MAX` is never a real
/// id and a window containing it can never equal an arena slice.
pub const UNKNOWN_TOKEN: u32 = u32::MAX;

/// Per-query scratch shared by the query-side entry points: token byte
/// ranges and token ids, reused across calls on the same thread.
pub(crate) type QueryScratch = std::cell::RefCell<(Vec<(u32, u32)>, Vec<u32>)>;

/// Verdict of [`CompiledDict::can_reach`] for one query window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowReach {
    /// Whether some surface *may* lie within the edit budget of the
    /// window. `false` is a proof of unreachability; `true` promises
    /// nothing.
    pub edit_reachable: bool,
    /// Whether any window token is in the dictionary vocabulary.
    pub has_vocab_token: bool,
}

/// Reachability envelope of one vocabulary token: the range of surface
/// char lengths and token counts over every surface *containing* the
/// token. A query window within edit budget `k` of some surface that
/// keeps one of its tokens intact must satisfy both ranges widened by
/// `k` — the window-pruning tables of [`CompiledDict::can_reach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TokenReach {
    min_len: u32,
    max_len: u32,
    min_tokens: u32,
    max_tokens: u32,
}

/// A surface → entity dictionary compiled to token ids.
///
/// Construction sorts surfaces lexicographically and assigns
/// [`SurfaceId`]s in that order; all per-surface parallel arrays
/// (entity, string, char length) are indexed by surface id.
///
/// # Examples
///
/// ```
/// use websyn_common::EntityId;
/// use websyn_core::dict::CompiledDict;
///
/// let d = CompiledDict::build(vec![
///     ("indy 4".to_string(), EntityId::new(7)),
///     ("madagascar 2".to_string(), EntityId::new(1)),
/// ]);
/// let sid = d.get_str("indy 4").unwrap();
/// assert_eq!(d.entity(sid), EntityId::new(7));
/// assert_eq!(d.surface(sid), "indy 4");
/// assert_eq!(d.get_str("indy 5"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompiledDict {
    /// Dictionary token vocabulary.
    tokens: StringInterner<TokenId>,
    /// Token ids of every surface, concatenated in surface-id order.
    arena: Vec<u32>,
    /// `arena[offsets[i] .. offsets[i+1]]` is surface `i`; `len + 1`
    /// entries.
    offsets: Vec<u32>,
    /// Entity of each surface, by surface id.
    entities: Vec<EntityId>,
    /// The normalized surface strings, concatenated in surface-id
    /// (lexicographic) order: one arena, no per-surface allocation.
    text: String,
    /// `text[text_offsets[i] .. text_offsets[i+1]]` is surface `i`;
    /// `len + 1` entries.
    text_offsets: Vec<u32>,
    /// Char length of each surface, by surface id.
    char_lens: Vec<u32>,
    /// Character counts of each surface, by surface id: the one copy
    /// the fuzzy generator and verifier share for their
    /// character-count bound ([`CharBag`]).
    char_bags: Vec<CharBag>,
    /// Surface ids ordered by token sequence — the probe table.
    order: Vec<u32>,
    /// `order[first_starts[t] .. first_starts[t+1]]` are the surfaces
    /// whose first token is `t` (the order sorts by first token, so
    /// each bucket is one run); `n_tokens + 1` entries, indexed directly
    /// by token id — a window probe costs two array reads, no hashing
    /// at all.
    first_starts: Vec<u32>,
    /// Longest surface in tokens (bounds the segmenter window).
    max_tokens: usize,
    /// Per-token reachability envelope, indexed by token id (the
    /// window-pruning tables behind [`CompiledDict::can_reach`]).
    token_reach: Vec<TokenReach>,
    /// Token-count bitmask per surface char length:
    /// `counts_by_len[len] & (1 << tc)` — the token-count × length-band
    /// half of the reachability check, one array read per candidate
    /// length. Token counts above 31 saturate into bit 31 (a window
    /// that long is reachable by construction anyway).
    counts_by_len: Vec<u32>,
}

impl CompiledDict {
    /// Compiles `(normalized surface, entity)` pairs. Pairs may arrive
    /// in any order; duplicates are kept verbatim (callers that need
    /// ambiguity semantics dedupe first, as [`crate::EntityMatcher`]
    /// does). Empty surfaces are skipped.
    pub fn build(mut pairs: Vec<(String, EntityId)>) -> Self {
        pairs.retain(|(s, _)| !s.is_empty());
        pairs.sort_unstable();
        Self::from_sorted(pairs.iter().map(|(s, e)| (s.as_str(), *e)))
    }

    /// Compiles rows that are already in `(surface, entity)` order and
    /// non-empty; surface ids follow the row order. Every array is
    /// filled by one pass over the rows plus a sort of the probe table
    /// — no per-surface allocation.
    pub(crate) fn from_sorted<'a>(
        rows: impl ExactSizeIterator<Item = (&'a str, EntityId)>,
    ) -> Self {
        let n = rows.len();
        let mut tokens = StringInterner::new();
        let mut arena = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entities = Vec::with_capacity(n);
        let mut text = String::new();
        let mut text_offsets = Vec::with_capacity(n + 1);
        let mut char_lens = Vec::with_capacity(n);
        let mut char_bags = Vec::with_capacity(n);
        let mut max_tokens = 0;
        let mut ids: Vec<TokenId> = Vec::new();
        offsets.push(0);
        text_offsets.push(0);
        for (surface, entity) in rows {
            debug_assert!(!surface.is_empty(), "empty surfaces are skipped");
            tokens.intern_tokens(surface, &mut ids);
            max_tokens = max_tokens.max(ids.len());
            arena.extend(ids.iter().map(|id| id.raw()));
            offsets.push(u32::try_from(arena.len()).expect("dictionary arena overflow"));
            entities.push(entity);
            text.push_str(surface);
            text_offsets.push(u32::try_from(text.len()).expect("dictionary text overflow"));
            char_lens.push(surface.chars().count() as u32);
            char_bags.push(CharBag::of(surface));
        }
        tokens.shrink_to_fit();
        arena.shrink_to_fit();
        text.shrink_to_fit();

        let mut order: Vec<u32> = (0..n as u32).collect();
        let slice = |id: u32| {
            let (a, b) = (offsets[id as usize], offsets[id as usize + 1]);
            &arena[a as usize..b as usize]
        };
        order.sort_unstable_by(|&a, &b| slice(a).cmp(slice(b)));
        let mut first_starts = vec![0u32; tokens.len() + 1];
        for sid in 0..n as u32 {
            // A surface with no token (only spaces) sorts before every
            // bucket.
            let after = slice(sid).first().map_or(0, |&t| t as usize + 1);
            first_starts[after] += 1;
        }
        for t in 1..first_starts.len() {
            first_starts[t] += first_starts[t - 1];
        }

        // Reachability tables for window pruning: the per-token
        // length/count envelopes and the per-token-count length bitsets
        // consumed by `can_reach`.
        let mut token_reach = vec![
            TokenReach {
                min_len: u32::MAX,
                max_len: 0,
                min_tokens: u32::MAX,
                max_tokens: 0,
            };
            tokens.len()
        ];
        let mut counts_by_len: Vec<u32> = Vec::new();
        for (sid, &len) in char_lens.iter().enumerate() {
            let ids = slice(sid as u32);
            let tc = ids.len();
            for &tid in ids {
                let r = &mut token_reach[tid as usize];
                r.min_len = r.min_len.min(len);
                r.max_len = r.max_len.max(len);
                r.min_tokens = r.min_tokens.min(tc as u32);
                r.max_tokens = r.max_tokens.max(tc as u32);
            }
            if counts_by_len.len() <= len as usize {
                counts_by_len.resize(len as usize + 1, 0);
            }
            counts_by_len[len as usize] |= 1u32 << tc.min(31);
        }
        counts_by_len.shrink_to_fit();
        Self {
            tokens,
            arena,
            offsets,
            entities,
            text,
            text_offsets,
            char_lens,
            char_bags,
            order,
            first_starts,
            max_tokens,
            token_reach,
            counts_by_len,
        }
    }

    /// Heap bytes held by the compiled dictionary, summed from its
    /// buffers' capacities.
    pub fn heap_bytes(&self) -> usize {
        self.tokens.heap_bytes()
            + self.text.capacity()
            + 4 * (self.arena.capacity()
                + self.offsets.capacity()
                + self.text_offsets.capacity()
                + self.char_lens.capacity()
                + self.order.capacity()
                + self.first_starts.capacity()
                + self.counts_by_len.capacity())
            + self.entities.capacity() * std::mem::size_of::<EntityId>()
            + self.char_bags.capacity() * std::mem::size_of::<CharBag>()
            + self.token_reach.capacity() * std::mem::size_of::<TokenReach>()
    }

    /// The `[start, end)` run of `order` holding the surfaces that
    /// begin with token `first`, or `None` for a token outside the
    /// vocabulary.
    #[inline]
    fn bucket(&self, first: u32) -> Option<(usize, usize)> {
        let t = first as usize;
        match self.first_starts.get(t..t + 2)? {
            &[lo, hi] => Some((lo as usize, hi as usize)),
            _ => None,
        }
    }

    /// Conservative reachability of a query window for fuzzy lookup:
    /// [`WindowReach::edit_reachable`] `false` proves that **no**
    /// dictionary surface lies within edit distance `budget` of the
    /// window, so fuzzy resolution (candidate generation *and*
    /// verification) can be skipped without changing any result.
    /// `true` promises nothing — the window may still resolve to
    /// nothing. [`WindowReach::has_vocab_token`] reports, from the
    /// same walk, whether any window token is in the dictionary
    /// vocabulary (the segmenter's anchor-only skip); band-screen
    /// early exits skip that walk and report `false`, so read it only
    /// behind a positive `edit_reachable`.
    ///
    /// `window` holds the window's dictionary token ids
    /// ([`UNKNOWN_TOKEN`] for out-of-vocabulary tokens) and `chars` its
    /// char length. Three sound checks, all integer reads against
    /// tables compiled with the dictionary:
    ///
    /// 1. **budget** — at budget 0 only an exact surface matches, and
    ///    the caller has already probed the exact dictionary;
    /// 2. **token-count × length band** — a char edit changes the
    ///    window's token count by at most one (a space inserted or
    ///    deleted) and its char length by at most one, so a surface
    ///    within `budget` must have a token count in `m ± budget` and,
    ///    for some such count, a char length in `chars ± budget`;
    /// 3. **anchorless-run bound** — a window token untouched by every
    ///    edit survives verbatim as a token of the matched surface, so
    ///    it must be a vocabulary token whose reach envelope
    ///    (first-token-bucket generalization: the lengths and counts of
    ///    the surfaces containing it) overlaps the window's `± budget`
    ///    bands. A token failing that — out of vocabulary, or only in
    ///    far-away surfaces — must be touched by an edit; one edit
    ///    touches at most two *adjacent* tokens (a space edit), so each
    ///    maximal run of `r` such tokens costs at least `⌈r/2⌉` edits.
    ///    If the runs together exceed the budget, no surface is
    ///    reachable.
    pub fn can_reach(&self, window: &[u32], chars: usize, budget: usize) -> WindowReach {
        let unreachable = WindowReach {
            edit_reachable: false,
            has_vocab_token: false,
        };
        if budget == 0 || window.is_empty() {
            return unreachable;
        }
        let m = window.len();
        let (len_lo, len_hi) = (chars.saturating_sub(budget), chars + budget);
        let (tc_lo, tc_hi) = (m.saturating_sub(budget).max(1), m + budget);
        // Token-count × length band: one table read per candidate
        // length (the band is `2 · budget + 1` wide), one mask test.
        let tc_mask = if tc_hi >= 31 {
            u32::MAX << tc_lo.min(31)
        } else {
            (u32::MAX << tc_lo) & !(u32::MAX << (tc_hi + 1))
        };
        let reachable_band = (len_lo..=len_hi).any(|len| {
            self.counts_by_len
                .get(len)
                .is_some_and(|&m| m & tc_mask != 0)
        });
        if !reachable_band {
            return unreachable;
        }
        let mut has_vocab_token = false;
        let mut cost = 0usize;
        let mut run = 0usize;
        for &tid in window {
            let vocab = (tid as usize) < self.token_reach.len();
            has_vocab_token |= vocab;
            let anchored = vocab && {
                let r = &self.token_reach[tid as usize];
                r.min_len as usize <= len_hi
                    && r.max_len as usize >= len_lo
                    && r.min_tokens as usize <= tc_hi
                    && r.max_tokens as usize >= tc_lo
            };
            if anchored {
                cost += run.div_ceil(2);
                run = 0;
            } else {
                run += 1;
                if (cost + run.div_ceil(2)) > budget {
                    // The bound can only grow from here unless... it
                    // cannot: later anchors commit the pending run's
                    // cost, so once committed-plus-pending exceeds the
                    // budget the window is done. Still scan for a
                    // vocabulary token if none was seen.
                    if !has_vocab_token {
                        has_vocab_token = window
                            .iter()
                            .any(|&t| (t as usize) < self.token_reach.len());
                    }
                    return WindowReach {
                        edit_reachable: false,
                        has_vocab_token,
                    };
                }
            }
        }
        cost += run.div_ceil(2);
        WindowReach {
            edit_reachable: cost <= budget,
            has_vocab_token,
        }
    }

    /// Number of surfaces.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the dictionary holds no surfaces.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Number of distinct dictionary tokens.
    pub fn n_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Longest surface in tokens.
    pub fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// Entity of surface `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn entity(&self, id: SurfaceId) -> EntityId {
        self.entities[id.as_usize()]
    }

    /// The normalized surface string of `id`.
    pub fn surface(&self, id: SurfaceId) -> &str {
        let i = id.as_usize();
        &self.text[self.text_offsets[i] as usize..self.text_offsets[i + 1] as usize]
    }

    /// The surface string of `id` as an `Arc` — what match spans and
    /// window verdicts carry. It is copied out of the arena here, so
    /// only an emitted match pays for it.
    pub fn surface_arc(&self, id: SurfaceId) -> Arc<str> {
        Arc::from(self.surface(id))
    }

    /// Char length of surface `id` as recorded at build time.
    pub fn char_len(&self, id: SurfaceId) -> usize {
        self.char_lens[id.as_usize()] as usize
    }

    /// Character counts of surface `id`, for the character-count
    /// bound on its edit distance to a query ([`CharBag::bound`]).
    pub(crate) fn char_bag(&self, id: SurfaceId) -> &CharBag {
        &self.char_bags[id.as_usize()]
    }

    /// The token-id slice of surface `id`.
    pub fn token_ids(&self, id: SurfaceId) -> &[u32] {
        let (a, b) = (self.offsets[id.as_usize()], self.offsets[id.as_usize() + 1]);
        &self.arena[a as usize..b as usize]
    }

    /// Iterates `(id, surface, entity)` in surface-id (lexicographic)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (SurfaceId, &str, EntityId)> + '_ {
        self.entities.iter().enumerate().map(|(i, &e)| {
            let sid = SurfaceId::from_usize(i);
            (sid, self.surface(sid), e)
        })
    }

    /// Iterates the surface strings in surface-id order — the build
    /// input for candidate sources, whose proposal ids then coincide
    /// with surface ids.
    pub fn surface_strs(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.surface(SurfaceId::from_usize(i)))
    }

    /// Exact lookup of a token-id window. This is the segmenter's
    /// per-window probe: one array read for the first-token bucket,
    /// then a binary search of integer-slice compares. No allocation,
    /// no string hashing.
    pub fn get(&self, window: &[u32]) -> Option<SurfaceId> {
        let (lo, hi) = self.bucket(*window.first()?)?;
        let bucket = &self.order[lo..hi];
        bucket
            .binary_search_by(|&sid| {
                let (a, b) = (self.offsets[sid as usize], self.offsets[sid as usize + 1]);
                self.arena[a as usize..b as usize].cmp(window)
            })
            .ok()
            .map(|pos| SurfaceId::new(bucket[pos]))
    }

    /// The token id at position `depth` of surface `sid`, or `None`
    /// past its end — `None` sorts before every `Some`, matching how a
    /// shorter sequence sorts before its extensions.
    #[inline]
    fn token_at(&self, sid: u32, depth: usize) -> Option<u32> {
        let (a, b) = (self.offsets[sid as usize], self.offsets[sid as usize + 1]);
        self.arena[a as usize..b as usize].get(depth).copied()
    }

    /// Longest surface matching a prefix of `ids` (up to `max_len`
    /// tokens), in one descent of the probe table. The order is sorted
    /// by token sequence, so the surfaces extending any fixed prefix
    /// form one contiguous run whose *first* element is the surface
    /// equal to the prefix, if it exists; the descent narrows the run
    /// one token at a time and remembers the deepest exact hit. This is
    /// the exact-only segmenter's per-position probe — strictly less
    /// work than one binary search per window length.
    pub fn longest_match(&self, ids: &[u32], max_len: usize) -> Option<(usize, SurfaceId)> {
        let (mut lo, mut hi) = self.bucket(*ids.first()?)?;
        let mut best = None;
        let max_len = max_len.min(ids.len());
        let mut depth = 1;
        while lo != hi {
            // All of order[lo..hi] share the prefix ids[..depth]; the
            // run head is the prefix itself when its length matches.
            let head = self.order[lo];
            if (self.offsets[head as usize + 1] - self.offsets[head as usize]) as usize == depth {
                best = Some((depth, SurfaceId::new(head)));
            }
            if depth == max_len {
                break;
            }
            // Narrow to surfaces whose next token equals ids[depth].
            let next = ids[depth];
            let run = &self.order[lo..hi];
            let start = run.partition_point(|&sid| self.token_at(sid, depth) < Some(next));
            let end = run.partition_point(|&sid| self.token_at(sid, depth) <= Some(next));
            (lo, hi) = (lo + start, lo + end);
            depth += 1;
        }
        best
    }

    /// [`CompiledDict::longest_match`] restricted to surfaces `keep`
    /// accepts — the segmented-dictionary exact probe, where base
    /// surfaces shadowed by a delta segment (overridden or tombstoned)
    /// must lose to shorter live prefixes. Same single descent; the
    /// deepest *kept* exact hit wins. Requires a deduplicated
    /// dictionary (one surface per token sequence), which
    /// [`crate::EntityMatcher`] guarantees.
    pub(crate) fn longest_match_where(
        &self,
        ids: &[u32],
        max_len: usize,
        keep: impl Fn(u32) -> bool,
    ) -> Option<(usize, SurfaceId)> {
        let (mut lo, mut hi) = self.bucket(*ids.first()?)?;
        let mut best = None;
        let max_len = max_len.min(ids.len());
        let mut depth = 1;
        while lo != hi {
            let head = self.order[lo];
            if (self.offsets[head as usize + 1] - self.offsets[head as usize]) as usize == depth
                && keep(head)
            {
                best = Some((depth, SurfaceId::new(head)));
            }
            if depth == max_len {
                break;
            }
            let next = ids[depth];
            let run = &self.order[lo..hi];
            let start = run.partition_point(|&sid| self.token_at(sid, depth) < Some(next));
            let end = run.partition_point(|&sid| self.token_at(sid, depth) <= Some(next));
            (lo, hi) = (lo + start, lo + end);
            depth += 1;
        }
        best
    }

    /// Maps every token of the normalized query to its byte range and
    /// dictionary token id ([`UNKNOWN_TOKEN`] when out of vocabulary),
    /// clearing and filling the caller's scratch buffers. One call per
    /// query; every window probe afterwards is allocation-free.
    pub fn map_query(&self, normalized: &str, bounds: &mut Vec<(u32, u32)>, ids: &mut Vec<u32>) {
        token_bounds(normalized, bounds);
        ids.clear();
        ids.extend(bounds.iter().map(|&(a, b)| {
            self.tokens
                .get(&normalized[a as usize..b as usize])
                .map_or(UNKNOWN_TOKEN, TokenId::raw)
        }));
    }

    /// Exact whole-string lookup of an already-normalized surface.
    pub fn get_str(&self, normalized: &str) -> Option<SurfaceId> {
        thread_local! {
            static SCRATCH: QueryScratch =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        SCRATCH.with_borrow_mut(|(bounds, ids)| {
            self.map_query(normalized, bounds, ids);
            if ids.is_empty() {
                return None;
            }
            self.get(ids)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> CompiledDict {
        CompiledDict::build(vec![
            ("indiana jones 4".into(), EntityId::new(0)),
            ("indy 4".into(), EntityId::new(0)),
            ("madagascar 2".into(), EntityId::new(1)),
            ("canon eos 350d".into(), EntityId::new(2)),
            ("350d".into(), EntityId::new(2)),
        ])
    }

    #[test]
    fn surface_ids_are_lexicographic() {
        let d = dict();
        let surfaces: Vec<&str> = d.surface_strs().collect();
        let mut sorted = surfaces.clone();
        sorted.sort_unstable();
        assert_eq!(surfaces, sorted);
        assert_eq!(d.len(), 5);
        assert_eq!(d.max_tokens(), 3);
    }

    #[test]
    fn get_str_resolves_and_misses() {
        let d = dict();
        let sid = d.get_str("canon eos 350d").unwrap();
        assert_eq!(d.entity(sid), EntityId::new(2));
        assert_eq!(d.surface(sid), "canon eos 350d");
        assert_eq!(d.char_len(sid), 14);
        assert_eq!(d.token_ids(sid).len(), 3);
        // Prefixes, extensions and unknown tokens all miss.
        assert_eq!(d.get_str("canon eos"), None);
        assert_eq!(d.get_str("canon eos 350d x"), None);
        assert_eq!(d.get_str("zzz"), None);
        assert_eq!(d.get_str(""), None);
    }

    #[test]
    fn window_probe_with_sentinel_misses() {
        let d = dict();
        let mut bounds = Vec::new();
        let mut ids = Vec::new();
        d.map_query("indy 4 zzz", &mut bounds, &mut ids);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[2], UNKNOWN_TOKEN);
        assert!(d.get(&ids[..2]).is_some());
        assert!(d.get(&ids).is_none());
        assert!(d.get(&ids[2..]).is_none());
        assert!(d.get(&[]).is_none());
    }

    #[test]
    fn longest_match_agrees_with_per_window_probes() {
        let d = CompiledDict::build(vec![
            ("a".into(), EntityId::new(0)),
            ("a b".into(), EntityId::new(1)),
            ("a b c".into(), EntityId::new(2)),
            ("b c".into(), EntityId::new(3)),
            ("c".into(), EntityId::new(4)),
        ]);
        let mut bounds = Vec::new();
        let mut ids = Vec::new();
        for query in ["a b c", "a b x", "a x c", "b c a", "x a b", "c", "x y z"] {
            d.map_query(query, &mut bounds, &mut ids);
            for i in 0..ids.len() {
                // Reference: probe every window length, longest first.
                let expected = (1..=d.max_tokens().min(ids.len() - i))
                    .rev()
                    .find_map(|w| d.get(&ids[i..i + w]).map(|sid| (w, sid)));
                assert_eq!(
                    d.longest_match(&ids[i..], d.max_tokens()),
                    expected,
                    "query {query:?} position {i}"
                );
            }
        }
        // max_len caps the descent.
        d.map_query("a b c", &mut bounds, &mut ids);
        assert_eq!(
            d.longest_match(&ids, 2),
            Some((2, d.get_str("a b").unwrap()))
        );
    }

    #[test]
    fn duplicate_surfaces_are_kept_verbatim() {
        let d = CompiledDict::build(vec![
            ("same".into(), EntityId::new(0)),
            ("same".into(), EntityId::new(1)),
        ]);
        assert_eq!(d.len(), 2);
        // Both ids carry the duplicate; lookup returns one of them.
        assert!(d.get_str("same").is_some());
    }

    #[test]
    fn tokenless_surfaces_sort_before_every_bucket() {
        let d = CompiledDict::build(vec![
            ("  ".into(), EntityId::new(9)),
            ("a b".into(), EntityId::new(0)),
            ("b".into(), EntityId::new(1)),
        ]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.entity(d.get_str("a b").unwrap()), EntityId::new(0));
        assert_eq!(d.entity(d.get_str("b").unwrap()), EntityId::new(1));
        assert_eq!(d.get_str("a"), None);
    }

    #[test]
    fn empty_and_default() {
        let d = CompiledDict::default();
        assert!(d.is_empty());
        assert_eq!(d.get_str("anything"), None);
        let d2 = CompiledDict::build(vec![("".into(), EntityId::new(0))]);
        assert!(d2.is_empty(), "empty surfaces are skipped");
    }

    #[test]
    fn can_reach_is_conservative_and_prunes_hopeless_windows() {
        let d = dict();
        let probe = |q: &str, budget: usize| {
            let mut bounds = Vec::new();
            let mut ids = Vec::new();
            d.map_query(q, &mut bounds, &mut ids);
            d.can_reach(&ids, q.chars().count(), budget)
        };
        // Surfaces themselves are reachable at any positive budget.
        for (_, s, _) in d.iter() {
            assert!(probe(s, 1).edit_reachable, "{s:?}");
            assert!(probe(s, 1).has_vocab_token, "{s:?}");
        }
        // One-typo neighbours stay reachable (conservativeness: a
        // reachable window must never be pruned).
        assert!(probe("cannon eos 350d", 2).edit_reachable);
        assert!(probe("indy 44", 1).edit_reachable);
        // Budget 0 is always a prune (exact path already probed).
        assert!(!probe("canon eos 350d", 0).edit_reachable);
        // A window of only out-of-vocabulary tokens: every token needs
        // an edit, two adjacent share one — three unknowns exceed a
        // budget of 1.
        let r = probe("best price here", 1);
        assert!(!r.edit_reachable);
        assert!(!r.has_vocab_token);
        // Length band: nothing in the dictionary is within 2 edits of
        // a 30-char window.
        assert!(!probe("canon eos 350d canon eos 350dd", 2).edit_reachable);
        // Vocabulary flag reports from the same walk (for windows that
        // pass the band screen — early band exits skip the token walk
        // and report `false`, which callers only read after checking
        // `edit_reachable`).
        let r = probe("canon pricey zzz", 2);
        assert!(r.has_vocab_token);
    }

    #[test]
    fn can_reach_never_prunes_true_neighbours() {
        // Brute force: for every surface and every single-char
        // mutation of it, the mutated window must stay reachable
        // within budget 1 — the pruning tables may only ever
        // over-approximate.
        let d = dict();
        let mut bounds = Vec::new();
        let mut ids = Vec::new();
        for (_, s, _) in d.iter() {
            let chars: Vec<char> = s.chars().collect();
            for pos in 0..chars.len() {
                for sub in ['q', 'z', '7'] {
                    let mut q: Vec<char> = chars.clone();
                    q[pos] = sub;
                    let q: String = q.into_iter().collect();
                    let q = websyn_text::normalize(&q);
                    if q.is_empty() {
                        continue;
                    }
                    d.map_query(&q, &mut bounds, &mut ids);
                    assert!(
                        d.can_reach(&ids, q.chars().count(), 1).edit_reachable,
                        "mutation {q:?} of {s:?} wrongly pruned"
                    );
                }
            }
        }
    }

    #[test]
    fn iter_aligns_ids_surfaces_entities() {
        let d = dict();
        for (sid, surface, entity) in d.iter() {
            assert_eq!(d.surface(sid), surface);
            assert_eq!(d.entity(sid), entity);
            assert_eq!(d.get_str(surface), Some(sid));
            assert_eq!(&*d.surface_arc(sid), surface);
        }
    }
}
