//! String interning.
//!
//! The mining pipeline handles millions of query strings, but the set of
//! *distinct* strings is far smaller. Interning maps each distinct
//! string to a dense `u32`, after which every downstream structure
//! (click tuples, graph edges, postings) operates on 4-byte ids instead
//! of heap strings.
//!
//! The interner is generic over the id newtype so the same machinery
//! backs the query universe (`QueryId`), page universe (`PageId`) and
//! index vocabulary (`TermId`) without allowing the id spaces to mix.
//!
//! # Layout
//!
//! Every interned string lives in one byte arena; a `u32` end offset
//! per id delimits it, and an open-addressing table of `u32` ids maps a
//! string back to its id. A vocabulary of any size is three heap
//! blocks, at about the string's own bytes plus 4 bytes of offset and
//! 5–11 bytes of table per entry, where a map of owned keys would
//! spend two allocations and a map slot per string.

use crate::hash::FxHasher;
use std::hash::Hasher;
use std::marker::PhantomData;

/// Table slot marking "no id here".
const EMPTY: u32 = u32::MAX;

/// A bidirectional `string -> dense u32 id` map.
///
/// Ids are handed out in insertion order starting at 0, so they can be
/// used to index `Vec`s that are grown in lockstep with the interner.
///
/// # Examples
///
/// ```
/// use websyn_common::{StringInterner, QueryId};
///
/// let mut interner: StringInterner<QueryId> = StringInterner::new();
/// let a = interner.intern("indy 4");
/// let b = interner.intern("indiana jones 4");
/// assert_ne!(a, b);
/// assert_eq!(interner.intern("indy 4"), a); // stable
/// assert_eq!(interner.resolve(a), "indy 4");
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct StringInterner<Id> {
    /// Every string, concatenated in id order.
    arena: String,
    /// `ends[i]` is the arena offset one past string `i`; string `i`
    /// starts at `ends[i - 1]` (0 for the first).
    ends: Vec<u32>,
    /// Open-addressing table (linear probing) of ids, [`EMPTY`] where
    /// free. Its length is 0 or a power of two, kept at most 3/4 full;
    /// a string's home slot is the top bits of its hash.
    table: Vec<u32>,
    _marker: PhantomData<Id>,
}

impl<Id> Default for StringInterner<Id> {
    fn default() -> Self {
        Self::new()
    }
}

/// The hash that places `s` in the table.
#[inline]
fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// Table length that holds `n` ids at most 3/4 full.
fn table_len_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n * 4 / 3 + 1).next_power_of_two().max(8)
    }
}

impl<Id> StringInterner<Id> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            arena: String::new(),
            ends: Vec::new(),
            table: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates an empty interner with room for `capacity` strings.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            arena: String::new(),
            ends: Vec::with_capacity(capacity),
            table: vec![EMPTY; table_len_for(capacity)],
            _marker: PhantomData,
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over the interned strings in id order.
    pub fn strings(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.ends.len()).map(|i| self.str_at(i))
    }

    /// Heap bytes held: the arena, the offsets and the table, by
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity() + (self.ends.capacity() + self.table.capacity()) * 4
    }

    /// String `i` (a valid id).
    #[inline]
    fn str_at(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start as usize..self.ends[i] as usize]
    }

    /// The slot holding `s`, or the empty slot where it would go.
    /// Requires a non-empty table with a free slot.
    #[inline]
    fn slot_of(&self, s: &str, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = (hash >> (64 - self.table.len().trailing_zeros())) as usize;
        loop {
            let id = self.table[slot];
            if id == EMPTY || self.str_at(id as usize) == s {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Rebuilds the table at `len` slots.
    fn rehash(&mut self, len: usize) {
        self.table = vec![EMPTY; len];
        for id in 0..self.ends.len() {
            let slot = self.slot_of(self.str_at(id), hash_str(self.str_at(id)));
            self.table[slot] = id as u32;
        }
    }
}

impl<Id> StringInterner<Id>
where
    Id: Copy + From<u32> + Into<u32>,
{
    /// Interns `s`, returning its id. Repeated calls with the same
    /// string return the same id.
    pub fn intern(&mut self, s: &str) -> Id {
        if (self.ends.len() + 1) * 4 > self.table.len() * 3 {
            self.rehash(table_len_for(self.ends.len() + 1).max(self.table.len() * 2));
        }
        let slot = self.slot_of(s, hash_str(s));
        if self.table[slot] != EMPTY {
            return Id::from(self.table[slot]);
        }
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("interner id overflow");
        self.arena.push_str(s);
        self.ends
            .push(u32::try_from(self.arena.len()).expect("interner arena overflow"));
        self.table[slot] = id;
        Id::from(id)
    }

    /// Returns the id for `s` if it has been interned.
    pub fn get(&self, s: &str) -> Option<Id> {
        if self.table.is_empty() {
            return None;
        }
        match self.table[self.slot_of(s, hash_str(s))] {
            EMPTY => None,
            id => Some(Id::from(id)),
        }
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: Id) -> &str {
        self.str_at(id.into() as usize)
    }

    /// Resolves an id back to its string, or `None` if out of range.
    pub fn try_resolve(&self, id: Id) -> Option<&str> {
        let i = id.into() as usize;
        (i < self.ends.len()).then(|| self.str_at(i))
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &str)> + '_ {
        self.strings()
            .enumerate()
            .map(|(i, s)| (Id::from(i as u32), s))
    }

    /// Interns every whitespace-separated token of `s`, returning the
    /// ids in token order. The workhorse of compiled-dictionary builds,
    /// where surfaces arrive as normalized single-spaced strings.
    pub fn intern_tokens(&mut self, s: &str, out: &mut Vec<Id>) {
        out.clear();
        for tok in s.split(' ').filter(|t| !t.is_empty()) {
            out.push(self.intern(tok));
        }
    }

    /// Drops the slack capacity of the arena and the offsets. Builders
    /// call this once the vocabulary is final, so long-lived compiled
    /// dictionaries don't carry growth headroom around. The table keeps
    /// its size.
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

impl<'a, Id> Extend<&'a str> for StringInterner<Id>
where
    Id: Copy + From<u32> + Into<u32>,
{
    fn extend<T: IntoIterator<Item = &'a str>>(&mut self, iter: T) {
        for s in iter {
            self.intern(s);
        }
    }
}

/// The hash-map interner the flat one replaced, kept as the oracle the
/// flat layout must agree with.
#[cfg(test)]
mod reference {
    use crate::hash::FxHashMap;
    use std::marker::PhantomData;

    /// A bidirectional `string -> dense u32 id` map over owned keys.
    #[derive(Debug, Clone)]
    pub struct HashInterner<Id> {
        /// id -> string, dense.
        strings: Vec<Box<str>>,
        /// string -> id.
        lookup: FxHashMap<Box<str>, u32>,
        _marker: PhantomData<Id>,
    }

    impl<Id> HashInterner<Id> {
        /// Creates an empty interner.
        pub fn new() -> Self {
            Self {
                strings: Vec::new(),
                lookup: FxHashMap::default(),
                _marker: PhantomData,
            }
        }

        /// Number of distinct interned strings.
        pub fn len(&self) -> usize {
            self.strings.len()
        }
    }

    impl<Id> HashInterner<Id>
    where
        Id: Copy + From<u32> + Into<u32>,
    {
        /// Interns `s`, returning its id. Repeated calls with the same
        /// string return the same id.
        pub fn intern(&mut self, s: &str) -> Id {
            if let Some(&id) = self.lookup.get(s) {
                return Id::from(id);
            }
            let id = u32::try_from(self.strings.len()).expect("interner id overflow");
            let boxed: Box<str> = s.into();
            self.strings.push(boxed.clone());
            self.lookup.insert(boxed, id);
            Id::from(id)
        }

        /// Returns the id for `s` if it has been interned.
        pub fn get(&self, s: &str) -> Option<Id> {
            self.lookup.get(s).map(|&id| Id::from(id))
        }

        /// Resolves an id back to its string, or `None` if out of range.
        pub fn try_resolve(&self, id: Id) -> Option<&str> {
            self.strings.get(id.into() as usize).map(AsRef::as_ref)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PageId, QueryId};
    use proptest::prelude::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut i: StringInterner<QueryId> = StringInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(c.raw(), 2);
        assert_eq!(i.intern("b"), b);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i: StringInterner<PageId> = StringInterner::new();
        let id = i.intern("http://example.com/page");
        assert_eq!(i.resolve(id), "http://example.com/page");
        assert_eq!(i.try_resolve(id), Some("http://example.com/page"));
        assert_eq!(i.try_resolve(PageId::new(999)), None);
    }

    #[test]
    fn get_without_interning() {
        let mut i: StringInterner<QueryId> = StringInterner::new();
        assert_eq!(i.get("missing"), None);
        let id = i.intern("present");
        assert_eq!(i.get("present"), Some(id));
        assert_eq!(i.len(), 1, "get must not intern");
        i.get("missing2");
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_in_id_order() {
        let mut i: StringInterner<QueryId> = StringInterner::new();
        i.intern("x");
        i.intern("y");
        let items: Vec<_> = i.iter().map(|(id, s)| (id.raw(), s.to_string())).collect();
        assert_eq!(items, vec![(0, "x".to_string()), (1, "y".to_string())]);
        let strings: Vec<_> = i.strings().collect();
        assert_eq!(strings, vec!["x", "y"]);
    }

    #[test]
    fn empty_and_capacity() {
        let i: StringInterner<QueryId> = StringInterner::with_capacity(10);
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn intern_tokens_and_extend() {
        let mut i: StringInterner<QueryId> = StringInterner::new();
        let mut ids = Vec::new();
        i.intern_tokens("indiana jones 4", &mut ids);
        assert_eq!(ids.len(), 3);
        assert_eq!(i.resolve(ids[0]), "indiana");
        assert_eq!(i.resolve(ids[2]), "4");
        // Repeated tokens reuse ids; `out` is cleared each call.
        i.intern_tokens("jones jones", &mut ids);
        assert_eq!(ids, vec![i.get("jones").unwrap(); 2]);
        i.extend(["x", "jones", "y"]);
        assert_eq!(i.len(), 5);
        i.shrink_to_fit();
        assert_eq!(i.resolve(i.get("x").unwrap()), "x");
    }

    #[test]
    fn unicode_strings() {
        let mut i: StringInterner<QueryId> = StringInterner::new();
        let id = i.intern("pokémon");
        assert_eq!(i.resolve(id), "pokémon");
        assert_eq!(i.intern("pokémon"), id);
    }

    #[test]
    fn table_grows_and_keeps_every_id() {
        // Enough strings to rehash several times; every id survives.
        let mut i: StringInterner<QueryId> = StringInterner::new();
        let ids: Vec<QueryId> = (0..5_000).map(|n| i.intern(&format!("{n}d"))).collect();
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(i.get(&format!("{n}d")), Some(*id));
            assert_eq!(i.resolve(*id), format!("{n}d"));
        }
        assert_eq!(i.get("5000d"), None);
        assert!(i.heap_bytes() >= i.len() * 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Flat ≡ hash map: the same stream of strings (empty ones,
        /// repeats, é, ß, CJK and emoji) gets the same ids, and every
        /// id resolves and every probe looks up the same on both.
        #[test]
        fn flat_interner_matches_hash_map_oracle(
            stream in collection::vec("[abé ß東京😀]{0,4}", 0..60),
            probes in collection::vec("[abé ß東京😀]{0,4}", 0..20),
        ) {
            let mut flat: StringInterner<QueryId> = StringInterner::new();
            let mut oracle: reference::HashInterner<QueryId> = reference::HashInterner::new();
            for s in &stream {
                prop_assert_eq!(flat.intern(s), oracle.intern(s));
            }
            prop_assert_eq!(flat.len(), oracle.len());
            for id in 0..flat.len() as u32 + 2 {
                let id = QueryId::new(id);
                prop_assert_eq!(flat.try_resolve(id), oracle.try_resolve(id));
            }
            for s in stream.iter().chain(&probes) {
                prop_assert_eq!(flat.get(s), oracle.get(s));
            }
        }
    }
}
