//! Entities, franchises and concepts.
//!
//! An [`Entity`] is a row of structured data (one movie, one camera).
//! A [`Franchise`] is a broader grouping whose name acts as a *hypernym*
//! string ("indiana jones" covers several movies; "canon eos" covers
//! several cameras). A [`Concept`] is an associated-but-different thing
//! (an actor, a brand) whose name is *related* to its member entities
//! without referring to them — the paper's Figure 1(d) case.

use std::fmt;
use websyn_common::EntityId;

/// The structured-data domain an entity lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Movie titles (the paper's D1: top-100 2008 box office).
    Movies,
    /// Digital camera names (the paper's D2: 882 MSN Shopping cameras).
    Cameras,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Movies => f.write_str("movies"),
            Domain::Cameras => f.write_str("cameras"),
        }
    }
}

/// Identifier of a franchise (movie series / camera product line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FranchiseId(pub u32);

impl FranchiseId {
    /// The id as a dense index.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FranchiseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifier of a concept (actor, brand, genre).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConceptId(pub u32);

impl ConceptId {
    /// The id as a dense index.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConceptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What kind of associated concept this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConceptKind {
    /// A person appearing in member movies ("harrison ford").
    Actor,
    /// A manufacturer of member cameras ("canon").
    Brand,
}

/// One structured-data entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// Dense id; also the index into `World::entities`.
    pub id: EntityId,
    /// The canonical (content-creator) name, in raw display form,
    /// e.g. `"Madagascar: Escape 2 Africa"`.
    pub canonical: String,
    /// The canonical name normalized (the matching surface).
    pub canonical_norm: String,
    /// Domain of the entity.
    pub domain: Domain,
    /// Popularity rank, 0 = most popular. Drives the Zipf intent
    /// sampler and the popularity gating of the Wikipedia baseline.
    pub rank: usize,
    /// Franchise membership, if any.
    pub franchise: Option<FranchiseId>,
    /// Associated concepts (actors / brand).
    pub concepts: Vec<ConceptId>,
}

/// A franchise: a set of entities sharing a series/line name.
#[derive(Debug, Clone, PartialEq)]
pub struct Franchise {
    /// Dense id; index into `World::franchises`.
    pub id: FranchiseId,
    /// Normalized franchise name, e.g. `"indiana jones"`.
    pub name: String,
    /// Popular short nickname, if one exists, e.g. `"indy"`.
    pub nickname: Option<String>,
    /// Member entities, in episode order.
    pub members: Vec<EntityId>,
}

/// A related concept: actor or brand.
#[derive(Debug, Clone, PartialEq)]
pub struct Concept {
    /// Dense id; index into `World::concepts`.
    pub id: ConceptId,
    /// Normalized concept name, e.g. `"harrison ford"`.
    pub name: String,
    /// Concept kind.
    pub kind: ConceptKind,
    /// Entities this concept is associated with.
    pub members: Vec<EntityId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Domain::Movies.to_string(), "movies");
        assert_eq!(Domain::Cameras.to_string(), "cameras");
        assert_eq!(FranchiseId(3).to_string(), "f3");
        assert_eq!(ConceptId(9).to_string(), "c9");
    }

    #[test]
    fn ids_index_densely() {
        assert_eq!(FranchiseId(4).as_usize(), 4);
        assert_eq!(ConceptId(7).as_usize(), 7);
    }

    #[test]
    fn entity_construction() {
        let e = Entity {
            id: EntityId::new(0),
            canonical: "Madagascar: Escape 2 Africa".into(),
            canonical_norm: "madagascar escape 2 africa".into(),
            domain: Domain::Movies,
            rank: 3,
            franchise: Some(FranchiseId(1)),
            concepts: vec![ConceptId(0)],
        };
        assert_eq!(e.id.raw(), 0);
        assert_eq!(e.franchise, Some(FranchiseId(1)));
    }
}
