//! A shared-nothing sharded LRU result cache.
//!
//! Query logs are Zipfian: a small head of distinct queries carries
//! most of the traffic, so even a modest cache in front of the fuzzy
//! segmenter absorbs the expensive path almost entirely. The cache is
//! split into independently locked shards — a hit takes exactly one
//! shard mutex, so concurrent workers on different keys never
//! serialize — and each shard runs classic LRU over an intrusive
//! doubly-linked list on slot indices (no per-entry allocation beyond
//! the key).
//!
//! **Every entry carries the [`Stamp`] of the dictionary that computed
//! it**, and the cache keeps no counter of its own. A lookup names the
//! stamp it reads at, and [`Stamp::serves`] — the rule the matcher's
//! window cache applies too — decides:
//!
//! - an entry with exactly that stamp is a hit;
//! - an entry from an older revision of the same lineage is
//!   *promoted* — re-stamped and served — when the caller's check
//!   proves that every dictionary change since cannot have altered
//!   its value (the `Engine` proves this with the dictionary's
//!   [`websyn_core::FootprintLog`]). A small delta thus invalidates only
//!   the keys it touches; everything else is promoted on its next
//!   lookup instead of recomputed;
//! - anything else — another lineage, a newer revision, a failed
//!   check — is a miss.
//!
//! An insert never replaces a newer stamp with an older one
//! ([`Stamp::may_replace`]), so a
//! worker that resolved against a dictionary a delta has since retired
//! leaves at most an older entry, which is served again only after the
//! check clears it. [`ShardedCache::invalidate`] drops every entry; it
//! frees memory after a base replacement but is never needed for
//! soundness.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use websyn_core::Stamp;

/// Sentinel slot index for "no entry" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Aggregated cache counters, summed over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed (including lookups after an invalidation).
    pub misses: u64,
    /// Entries dropped to make room (not counting invalidations).
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Total capacity across shards.
    pub capacity: usize,
    /// Completed [`ShardedCache::invalidate`] calls.
    pub invalidations: u64,
    /// Older entries re-stamped by [`ShardedCache::get`] instead of
    /// recomputed.
    pub promotions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One LRU entry: the key (shared with the map), the cached value and
/// the intrusive recency links.
#[derive(Debug)]
struct Entry<V> {
    key: Arc<str>,
    value: V,
    /// Dictionary position the value was computed at (or promoted
    /// to).
    stamp: Stamp,
    /// Towards more-recently-used.
    prev: u32,
    /// Towards less-recently-used.
    next: u32,
}

/// A single-lock LRU shard.
///
/// Keys here are raw (normalized) client queries — untrusted input —
/// so the map uses std's randomly seeded SipHash, not the workspace's
/// `FxHashMap` (which `websyn_common::hash` explicitly forbids for
/// untrusted input in a networked service: an attacker could mine
/// Fx collisions and degrade a shard to linear scans under its lock).
#[derive(Debug)]
struct LruShard<V> {
    /// key → slot index in `slots`.
    map: HashMap<Arc<str>, u32, RandomState>,
    /// Entry slots; freed slots are recycled through `free`.
    slots: Vec<Option<Entry<V>>>,
    free: Vec<u32>,
    /// Most-recently-used slot (NIL when empty).
    head: u32,
    /// Least-recently-used slot (NIL when empty).
    tail: u32,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    promotions: u64,
}

impl<V: Clone> LruShard<V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
            promotions: 0,
        }
    }

    fn entry(&self, i: u32) -> &Entry<V> {
        self.slots[i as usize].as_ref().expect("live slot")
    }

    fn entry_mut(&mut self, i: u32) -> &mut Entry<V> {
        self.slots[i as usize].as_mut().expect("live slot")
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let e = self.entry(i);
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    /// Attaches slot `i` as the most-recently-used entry.
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let e = self.entry_mut(i);
            e.prev = NIL;
            e.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.entry_mut(h).prev = i,
        }
        self.head = i;
    }

    /// The stamp rule (see the module docs): `promote(key, revision)`
    /// runs only for an entry from an older revision of `stamp`'s
    /// lineage. Entries that are not served stay in place (untouched
    /// recency) until overwritten or evicted.
    fn get(
        &mut self,
        key: &str,
        stamp: Stamp,
        promote: impl FnOnce(&str, u64) -> bool,
    ) -> Option<V> {
        let Some(&i) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        let entry = self.entry(i);
        if !entry.stamp.serves(stamp, |revision| promote(key, revision)) {
            self.misses += 1;
            return None;
        }
        if entry.stamp != stamp {
            self.entry_mut(i).stamp = stamp;
            self.promotions += 1;
        }
        self.hits += 1;
        self.unlink(i);
        self.push_front(i);
        Some(self.entry(i).value.clone())
    }

    // Capacity is always >= 1 (ShardedCache::new clamps), so eviction
    // below can assume a live tail once the shard is full.
    fn insert(&mut self, key: &str, stamp: Stamp, value: V) -> bool {
        if let Some(&i) = self.map.get(key) {
            let e = self.entry_mut(i);
            if !stamp.may_replace(e.stamp) {
                return false;
            }
            e.value = value;
            e.stamp = stamp;
            self.unlink(i);
            self.push_front(i);
            return true;
        }
        if self.map.len() >= self.capacity {
            // Evict the least-recently-used entry.
            let victim = self.tail;
            self.unlink(victim);
            let entry = self.slots[victim as usize].take().expect("live tail");
            self.map.remove(&entry.key);
            self.free.push(victim);
            self.evictions += 1;
        }
        let key: Arc<str> = Arc::from(key);
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(Entry {
                    key: Arc::clone(&key),
                    value,
                    stamp,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("cache shard overflow");
                self.slots.push(Some(Entry {
                    key: Arc::clone(&key),
                    value,
                    stamp,
                    prev: NIL,
                    next: NIL,
                }));
                i
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        true
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A sharded LRU cache from normalized query strings to values.
///
/// `V` is cloned out on hits, so callers store cheap handles
/// (`Arc<Vec<MatchSpan>>` in the serving engine).
///
/// # Examples
///
/// ```
/// use websyn_serve::{ShardedCache, Stamp};
///
/// let cache: ShardedCache<u32> = ShardedCache::new(4, 1024);
/// let r0 = Stamp { lineage: 1, revision: 0 };
/// let r1 = Stamp { lineage: 1, revision: 1 };
/// let no_promotion = |_: &str, _: u64| false;
/// assert_eq!(cache.get("indy 4", r0, no_promotion), None);
/// assert!(cache.insert("indy 4", r0, 7));
/// assert_eq!(cache.get("indy 4", r0, no_promotion), Some(7));
///
/// // A newer revision serves the entry only once the check clears it.
/// assert_eq!(cache.get("indy 4", r1, no_promotion), None);
/// assert_eq!(cache.get("indy 4", r1, |_key, _revision| true), Some(7));
/// assert_eq!(cache.get("indy 4", r1, no_promotion), Some(7), "re-stamped");
///
/// // An older writer never overwrites a newer entry.
/// assert!(!cache.insert("indy 4", r0, 8));
/// assert_eq!(cache.stats().promotions, 1);
/// ```
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Box<[Mutex<LruShard<V>>]>,
    /// Per-process random SipHash seed for shard selection (see
    /// [`LruShard`] on why keys are never Fx-hashed here).
    shard_seed: RandomState,
    invalidations: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// Creates a cache of `total_capacity` entries spread over
    /// `shards` independently locked shards (both clamped to ≥ 1;
    /// per-shard capacity is the ceiling split, so the usable total is
    /// at least `total_capacity`).
    pub fn new(shards: usize, total_capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = total_capacity.max(1).div_ceil(shards);
        let shards: Vec<Mutex<LruShard<V>>> = (0..shards)
            .map(|_| Mutex::new(LruShard::new(per_shard)))
            .collect();
        Self {
            shards: shards.into_boxed_slice(),
            shard_seed: RandomState::new(),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.len()
            * self.shards[0]
                .lock()
                .expect("cache shard poisoned")
                .capacity
    }

    fn shard_of(&self, key: &str) -> &Mutex<LruShard<V>> {
        // Seeded SipHash for the same reason as the shard maps: shard
        // choice must not be predictable from the key alone, or an
        // attacker could funnel all traffic onto one shard lock.
        let i = (self.shard_seed.hash_one(key) >> 32) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Looks `key` up at `stamp`, refreshing its recency on a hit, and
    /// counts exactly one hit or one miss. An entry stamped `stamp` is
    /// served; an entry from an older revision of the same lineage is
    /// served — re-stamped to `stamp` and counted in
    /// [`CacheStats::promotions`] — only when `promote(key, revision)`
    /// returns `true`; anything else is a miss. `promote` runs under
    /// the shard lock and must only approve when every dictionary
    /// change after `revision` provably leaves this key's value
    /// unchanged.
    pub fn get(
        &self,
        key: &str,
        stamp: Stamp,
        promote: impl FnOnce(&str, u64) -> bool,
    ) -> Option<V> {
        self.shard_of(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key, stamp, promote)
    }

    /// Stores `key → value` computed at `stamp`, unless the cache
    /// already holds `key` at a newer stamp (then the value is
    /// discarded and `false` returned).
    pub fn insert(&self, key: &str, stamp: Stamp, value: V) -> bool {
        self.shard_of(key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, stamp, value)
    }

    /// Drops every entry. Stamps already keep entries of a replaced
    /// dictionary from being served; this frees their memory.
    pub fn invalidate(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
        self.invalidations.fetch_add(1, Ordering::AcqRel);
    }

    /// Number of live entries (sums shard sizes; O(shards)).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats {
            invalidations: self.invalidations.load(Ordering::Acquire),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let s = shard.lock().expect("cache shard poisoned");
            out.hits += s.hits;
            out.misses += s.misses;
            out.evictions += s.evictions;
            out.promotions += s.promotions;
            out.entries += s.map.len();
            out.capacity += s.capacity;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Stamp = Stamp {
        lineage: 1,
        revision: 0,
    };

    /// A single-shard cache, so recency order is fully observable.
    fn one_shard(capacity: usize) -> ShardedCache<u32> {
        ShardedCache::new(1, capacity)
    }

    /// A plain lookup at `S`.
    fn get(c: &ShardedCache<u32>, key: &str) -> Option<u32> {
        c.get(key, S, |_, _| {
            panic!("promotion checked at the entry's own stamp")
        })
    }

    #[test]
    fn eviction_is_lru_and_get_refreshes_recency() {
        let c = one_shard(3);
        c.insert("a", S, 1);
        c.insert("b", S, 2);
        c.insert("c", S, 3);
        // Touch "a": recency becomes a > c > b.
        assert_eq!(get(&c, "a"), Some(1));
        c.insert("d", S, 4);
        assert_eq!(get(&c, "b"), None, "least-recently-used entry evicted");
        assert_eq!(get(&c, "a"), Some(1));
        assert_eq!(get(&c, "c"), Some(3));
        assert_eq!(get(&c, "d"), Some(4));
        let stats = c.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn eviction_chain_walks_recency_order() {
        let c = one_shard(2);
        c.insert("a", S, 1);
        c.insert("b", S, 2);
        c.insert("c", S, 3); // evicts a
        c.insert("d", S, 4); // evicts b
        assert_eq!(get(&c, "a"), None);
        assert_eq!(get(&c, "b"), None);
        assert_eq!(get(&c, "c"), Some(3));
        assert_eq!(get(&c, "d"), Some(4));
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let c = one_shard(2);
        c.insert("a", S, 1);
        c.insert("b", S, 2);
        c.insert("a", S, 10); // refresh, not a new entry
        c.insert("c", S, 3); // evicts b (a was refreshed)
        assert_eq!(get(&c, "a"), Some(10));
        assert_eq!(get(&c, "b"), None);
        assert_eq!(get(&c, "c"), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_clears_everything() {
        let c = ShardedCache::new(4, 64);
        assert!(c.insert("x", S, 1));
        assert_eq!(get(&c, "x"), Some(1));
        c.invalidate();
        assert_eq!(get(&c, "x"), None);
        assert!(c.is_empty());
        assert!(c.insert("x", S, 2));
        assert_eq!(get(&c, "x"), Some(2));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let c = ShardedCache::new(8, 8 * 64);
        for i in 0..256 {
            assert!(c.insert(&format!("query number {i}"), S, i));
        }
        assert_eq!(c.len(), 256);
        // Every key still resolves through its shard.
        for i in 0..256 {
            assert_eq!(get(&c, &format!("query number {i}")), Some(i));
        }
        let stats = c.stats();
        assert_eq!(stats.hits, 256);
        assert_eq!(stats.capacity, 8 * 64);
        assert!((stats.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_clamps_to_one_entry() {
        // There is no "cache off" mode: capacity clamps to >= 1 per
        // shard, so a requested capacity of 0 degrades to a one-entry
        // cache that keeps only the most recent insert.
        let c: ShardedCache<u32> = ShardedCache::new(1, 0);
        assert_eq!(c.capacity(), 1);
        assert!(c.insert("a", S, 1));
        assert!(c.insert("b", S, 2));
        assert_eq!(c.len(), 1, "capacity 1 holds exactly one entry");
        assert_eq!(get(&c, "a"), None);
        assert_eq!(get(&c, "b"), Some(2));
    }

    #[test]
    fn older_stamp_promotes_only_when_the_check_passes() {
        let c = one_shard(8);
        c.insert("touched", S, 1);
        c.insert("untouched", S, 2);
        let next = Stamp { revision: 2, ..S };
        // The check sees the key and the entry's revision.
        let hit = c.get("untouched", next, |key, revision| {
            assert_eq!((key, revision), ("untouched", 0));
            true
        });
        assert_eq!(hit, Some(2));
        // Promotion is sticky: the entry now carries the new stamp.
        assert_eq!(c.get("untouched", next, |_, _| false), Some(2));
        // A failed check is a miss, and the entry stays in place.
        assert_eq!(c.get("touched", next, |_, _| false), None);
        assert_eq!(c.len(), 2);
        // A newer entry is a miss for an older reader, unchecked.
        assert_eq!(c.get("untouched", S, |_, _| panic!("newer checked")), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.promotions), (2, 2, 1));
    }

    #[test]
    fn another_lineage_misses_whatever_the_check_says() {
        let c = one_shard(8);
        c.insert("a", S, 1);
        for lineage in [0, 2] {
            for revision in [0, 5] {
                let other = Stamp { lineage, revision };
                assert_eq!(c.get("a", other, |_, _| true), None, "{other:?}");
            }
        }
        assert_eq!(c.stats().promotions, 0);
        assert_eq!(get(&c, "a"), Some(1), "still served at its own stamp");
    }

    #[test]
    fn older_writer_never_overwrites_a_newer_stamp() {
        let c = one_shard(8);
        let newer = Stamp { revision: 3, ..S };
        assert!(c.insert("a", newer, 30));
        assert!(!c.insert("a", S, 10), "older revision");
        let older_lineage = Stamp {
            lineage: 0,
            revision: 9,
        };
        assert!(!c.insert("a", older_lineage, 90), "older lineage");
        assert_eq!(c.get("a", newer, |_, _| false), Some(30));
        // The same or a newer stamp replaces it.
        assert!(c.insert("a", newer, 31));
        let next_lineage = Stamp {
            lineage: 2,
            revision: 0,
        };
        assert!(c.insert("a", next_lineage, 40));
        assert_eq!(c.get("a", next_lineage, |_, _| false), Some(40));
    }

    #[test]
    fn promote_never_runs_for_missing_or_current_entries() {
        let c = one_shard(8);
        c.insert("a", S, 1);
        // Current-stamp hit and absent key: the check is not consulted.
        assert_eq!(get(&c, "a"), Some(1));
        assert_eq!(get(&c, "zzz"), None);
        assert_eq!(c.stats().promotions, 0);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let c = one_shard(8);
        assert_eq!(get(&c, "a"), None);
        c.insert("a", S, 1);
        assert_eq!(get(&c, "a"), Some(1));
        assert_eq!(get(&c, "a"), Some(1));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
