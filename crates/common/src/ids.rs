//! Compact typed identifiers.
//!
//! All corpora in the workspace (queries, pages, entities, index terms)
//! are interned into dense `u32` id spaces. Newtypes keep the id spaces
//! from being mixed up at compile time while staying 4 bytes each —
//! small enough that postings lists, click tuples and graph edges stay
//! cache-friendly (see the type-size guidance in the workspace coding
//! guides).

use std::fmt;

/// Defines a `u32`-backed identifier newtype with the standard
/// conversions and a dense-index contract (`as_usize` for direct
/// indexing into `Vec`s laid out by the owning collection).
macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Construct from a `usize` index.
            ///
            /// # Panics
            /// Panics if `raw` does not fit in `u32`; id spaces in this
            /// workspace are bounded far below `u32::MAX`.
            #[inline]
            pub fn from_usize(raw: usize) -> Self {
                Self(u32::try_from(raw).expect(concat!($tag, " id overflow")))
            }

            /// The raw `u32` value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// The id as a dense `Vec` index.
            #[inline]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

define_id!(
    /// Identifier of a distinct query string in the query-log universe.
    QueryId,
    "q"
);
define_id!(
    /// Identifier of a Web page (document) in the page universe.
    PageId,
    "p"
);
define_id!(
    /// Identifier of a structured-data entity (movie, camera, ...).
    EntityId,
    "e"
);
define_id!(
    /// Identifier of an analyzer term in the inverted index vocabulary.
    TermId,
    "t"
);
define_id!(
    /// Identifier of a dictionary token in a compiled matcher
    /// dictionary's token vocabulary (see `websyn-core`'s `dict`
    /// module). Distinct from [`TermId`]: the matcher's token space is
    /// compiled per dictionary, not per inverted index.
    TokenId,
    "tok"
);
define_id!(
    /// Identifier of a dictionary surface (a normalized synonym or
    /// canonical string) in a compiled matcher dictionary. Surface ids
    /// are assigned in lexicographic surface order, so comparing ids
    /// compares surfaces.
    SurfaceId,
    "s"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let q = QueryId::new(7);
        assert_eq!(q.raw(), 7);
        assert_eq!(q.as_usize(), 7);
        assert_eq!(QueryId::from_usize(7), q);
        assert_eq!(u32::from(q), 7);
        assert_eq!(QueryId::from(7u32), q);
    }

    #[test]
    fn display_is_tagged() {
        assert_eq!(QueryId::new(3).to_string(), "q3");
        assert_eq!(PageId::new(4).to_string(), "p4");
        assert_eq!(EntityId::new(5).to_string(), "e5");
        assert_eq!(TermId::new(6).to_string(), "t6");
        assert_eq!(TokenId::new(7).to_string(), "tok7");
        assert_eq!(SurfaceId::new(8).to_string(), "s8");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(PageId::new(1) < PageId::new(2));
        let mut v = vec![EntityId::new(3), EntityId::new(1), EntityId::new(2)];
        v.sort();
        assert_eq!(
            v,
            vec![EntityId::new(1), EntityId::new(2), EntityId::new(3)]
        );
    }

    #[test]
    fn ids_are_4_bytes() {
        assert_eq!(std::mem::size_of::<QueryId>(), 4);
        assert_eq!(std::mem::size_of::<PageId>(), 4);
        assert_eq!(std::mem::size_of::<EntityId>(), 4);
        assert_eq!(std::mem::size_of::<TermId>(), 4);
        assert_eq!(std::mem::size_of::<TokenId>(), 4);
        assert_eq!(std::mem::size_of::<SurfaceId>(), 4);
        // Option<id> should also stay small enough to embed in tuples.
        assert!(std::mem::size_of::<Option<PageId>>() <= 8);
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn from_usize_overflow_panics() {
        let _ = QueryId::from_usize(u32::MAX as usize + 1);
    }
}
