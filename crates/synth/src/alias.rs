//! The alias universe: every string surface users apply to entities,
//! franchises and concepts, each labeled with its ground-truth relation.
//!
//! This is the synthetic equivalent of the oracle `F` from the paper's
//! Section II: because *we* generate the surfaces, we know exactly which
//! entity subset each string refers to, so [`Relation`] labels are exact
//! rather than human-judged.

use crate::entity::{ConceptId, FranchiseId};
use std::fmt;
use websyn_common::{EntityId, FxHashMap};
use websyn_text::AbbrevKind;

/// The ground-truth relation of a string surface to an entity, per the
/// paper's Definitions 1–3 (plus Related, Figure 1d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Refers to exactly the same entity set (Definition 1).
    Synonym,
    /// Refers to a strict superset: franchise/line names (Definition 2).
    Hypernym,
    /// Refers to a strict subset / narrower concept: aspect strings
    /// like "… trailer" (Definition 3).
    Hyponym,
    /// Associated but referring to different things: actors, brands
    /// (Figure 1d).
    Related,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Relation::Synonym => "synonym",
            Relation::Hypernym => "hypernym",
            Relation::Hyponym => "hyponym",
            Relation::Related => "related",
        };
        f.write_str(s)
    }
}

/// The aspect of an entity a hyponym string targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AspectKind {
    /// Movie trailer ("indy 4 trailer").
    Trailer,
    /// Reviews ("eos 350d review").
    Review,
    /// Movie cast listing.
    Cast,
    /// Price/shopping queries (cameras).
    Price,
    /// Manual/support queries (cameras).
    Manual,
}

impl AspectKind {
    /// The query suffix users append for this aspect.
    pub fn suffix(self) -> &'static str {
        match self {
            AspectKind::Trailer => "trailer",
            AspectKind::Review => "review",
            AspectKind::Cast => "cast",
            AspectKind::Price => "price",
            AspectKind::Manual => "manual",
        }
    }

    /// Aspects that occur in the movie domain.
    pub const MOVIE_ASPECTS: [AspectKind; 3] =
        [AspectKind::Trailer, AspectKind::Review, AspectKind::Cast];

    /// Aspects that occur in the camera domain.
    pub const CAMERA_ASPECTS: [AspectKind; 3] =
        [AspectKind::Review, AspectKind::Price, AspectKind::Manual];
}

/// What a string surface refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AliasTarget {
    /// A single entity (synonyms and hyponym/aspect strings).
    Entity(EntityId),
    /// A franchise (hypernym strings).
    Franchise(FranchiseId),
    /// A concept (related strings).
    Concept(ConceptId),
}

/// How a surface came to exist — carried through experiments so recall
/// can be reported per transform family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AliasSource {
    /// The canonical name itself.
    Canonical,
    /// A mechanical abbreviation ([`AbbrevKind`]).
    Mechanical(AbbrevKind),
    /// A franchise-nickname-based surface ("indy 4"). No string overlap
    /// with the canonical title is guaranteed.
    Nickname,
    /// A marketing/alternative product name ("digital rebel xt").
    Marketing,
    /// A franchise or product-line name (hypernym).
    FranchiseName,
    /// An entity surface plus an aspect suffix (hyponym).
    Aspect(AspectKind),
    /// A concept name: actor/brand (related).
    ConceptName,
    /// A typo-channel corruption of another surface; planted lazily by
    /// the query generator.
    Misspelling,
}

/// One alias record: a surface, its target, relation, provenance and
/// the probability weight with which users choose it.
#[derive(Debug, Clone, PartialEq)]
pub struct Alias {
    /// Normalized surface text.
    pub text: String,
    /// What the surface refers to.
    pub target: AliasTarget,
    /// Ground-truth relation of this surface to its target's entities.
    /// For `AliasTarget::Entity` targets this is `Synonym` (true
    /// synonyms) or `Hyponym` (aspect strings); franchise targets are
    /// `Hypernym`; concept targets are `Related`.
    pub relation: Relation,
    /// Provenance.
    pub source: AliasSource,
    /// Relative popularity weight among surfaces of the same target
    /// (need not be normalized).
    pub weight: f64,
}

/// The complete alias universe with its inverted text index.
///
/// Surfaces are unique per text: a mechanically generated variant that
/// collides with a surface of a *different* target (e.g. two movies
/// both truncating to "the chronicles") is ambiguous in the oracle
/// sense — it no longer refers to a single entity set — so both records
/// are dropped and counted in [`AliasUniverse::ambiguous_dropped`].
#[derive(Debug, Clone, Default)]
pub struct AliasUniverse {
    aliases: Vec<Alias>,
    /// text -> index into `aliases`.
    by_text: FxHashMap<String, usize>,
    /// Texts proven ambiguous (seen with two different targets). Once
    /// banned, a text can never re-enter the universe.
    banned: websyn_common::FxHashSet<String>,
    /// Number of insert attempts rejected due to cross-target
    /// collisions (both the incumbent and the newcomer count).
    ambiguous_dropped: usize,
    /// Number of entity surfaces shadowed by a broader
    /// franchise/concept reading of the same text.
    shadowed: usize,
}

impl AliasUniverse {
    /// Creates an empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an alias. Collision policy:
    /// - same text, same target: keep the existing record (first
    ///   producer wins; weights are not merged);
    /// - same text, an *entity* incumbent vs a different *entity*
    ///   newcomer: the surface is ambiguous — it refers to more than
    ///   one entity set, so by Definition 1 it is a synonym of neither.
    ///   Drop the incumbent, reject the newcomer, ban the text;
    /// - same text, one side a franchise/concept: the broader reading
    ///   wins (a string that names a whole franchise *is* a hypernym,
    ///   even if one movie's truncation also produces it). The
    ///   franchise/concept record is kept or installed; the entity
    ///   record is counted in [`AliasUniverse::shadowed`].
    pub fn insert(&mut self, alias: Alias) {
        debug_assert!(!alias.text.is_empty(), "empty alias surface");
        if self.banned.contains(&alias.text) {
            self.ambiguous_dropped += 1;
            return;
        }
        match self.by_text.get(&alias.text) {
            None => {
                self.by_text.insert(alias.text.clone(), self.aliases.len());
                self.aliases.push(alias);
            }
            Some(&idx) => {
                let incumbent_entity = matches!(self.aliases[idx].target, AliasTarget::Entity(_));
                let newcomer_entity = matches!(alias.target, AliasTarget::Entity(_));
                if self.aliases[idx].target == alias.target {
                    // Same target duplicate: ignore.
                } else if incumbent_entity && newcomer_entity {
                    // Ambiguous between two entities: drop both, ban.
                    let text = alias.text.clone();
                    self.remove_text(&text);
                    self.banned.insert(text);
                    self.ambiguous_dropped += 2;
                } else if incumbent_entity {
                    // Broader newcomer evicts the entity reading.
                    let text = alias.text.clone();
                    self.remove_text(&text);
                    self.by_text.insert(text, self.aliases.len());
                    self.aliases.push(alias);
                    self.shadowed += 1;
                } else {
                    // Incumbent is broader (franchise/concept): keep it.
                    self.shadowed += 1;
                }
            }
        }
    }

    /// Removes a surface entirely (swap-remove, index map repaired).
    fn remove_text(&mut self, text: &str) {
        if let Some(idx) = self.by_text.remove(text) {
            self.aliases.swap_remove(idx);
            if idx < self.aliases.len() {
                let moved_text = self.aliases[idx].text.clone();
                self.by_text.insert(moved_text, idx);
            }
        }
    }

    /// Looks up the alias record for a surface.
    pub fn get(&self, text: &str) -> Option<&Alias> {
        self.by_text.get(text).map(|&i| &self.aliases[i])
    }

    /// All alias records.
    pub fn iter(&self) -> impl Iterator<Item = &Alias> + '_ {
        self.aliases.iter()
    }

    /// Alias records whose target is the given entity.
    pub fn of_entity(&self, e: EntityId) -> impl Iterator<Item = &Alias> + '_ {
        self.aliases
            .iter()
            .filter(move |a| a.target == AliasTarget::Entity(e))
    }

    /// True-synonym surfaces of an entity (relation == Synonym),
    /// *excluding* the canonical surface itself.
    pub fn synonyms_of(&self, e: EntityId) -> impl Iterator<Item = &Alias> + '_ {
        self.of_entity(e)
            .filter(|a| a.relation == Relation::Synonym && a.source != AliasSource::Canonical)
    }

    /// Number of alias records.
    pub fn len(&self) -> usize {
        self.aliases.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.aliases.is_empty()
    }

    /// Number of surfaces dropped as cross-target collisions.
    pub fn ambiguous_dropped(&self) -> usize {
        self.ambiguous_dropped
    }

    /// Number of entity surfaces shadowed by broader readings.
    pub fn shadowed(&self) -> usize {
        self.shadowed
    }

    /// Rebuilds the text index (needed after deserialization, since the
    /// index is not serialized).
    pub fn rebuild_index(&mut self) {
        self.by_text = self
            .aliases
            .iter()
            .enumerate()
            .map(|(i, a)| (a.text.clone(), i))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alias(text: &str, target: AliasTarget) -> Alias {
        Alias {
            text: text.to_string(),
            target,
            relation: Relation::Synonym,
            source: AliasSource::Canonical,
            weight: 1.0,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut u = AliasUniverse::new();
        u.insert(alias("indy 4", AliasTarget::Entity(EntityId::new(0))));
        assert_eq!(u.len(), 1);
        assert!(u.get("indy 4").is_some());
        assert!(u.get("indy 5").is_none());
    }

    #[test]
    fn duplicate_same_target_ignored() {
        let mut u = AliasUniverse::new();
        let e = AliasTarget::Entity(EntityId::new(0));
        u.insert(alias("indy 4", e));
        u.insert(alias("indy 4", e));
        assert_eq!(u.len(), 1);
        assert_eq!(u.ambiguous_dropped(), 0);
    }

    #[test]
    fn cross_target_collision_drops_both() {
        let mut u = AliasUniverse::new();
        u.insert(alias(
            "the chronicles",
            AliasTarget::Entity(EntityId::new(0)),
        ));
        u.insert(alias("other", AliasTarget::Entity(EntityId::new(0))));
        u.insert(alias(
            "the chronicles",
            AliasTarget::Entity(EntityId::new(1)),
        ));
        assert!(u.get("the chronicles").is_none(), "ambiguous surface kept");
        assert!(u.get("other").is_some(), "unrelated surface lost");
        assert_eq!(u.ambiguous_dropped(), 2);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn of_entity_and_synonyms_filter() {
        let mut u = AliasUniverse::new();
        let e0 = EntityId::new(0);
        u.insert(Alias {
            text: "canonical name".into(),
            target: AliasTarget::Entity(e0),
            relation: Relation::Synonym,
            source: AliasSource::Canonical,
            weight: 1.0,
        });
        u.insert(Alias {
            text: "nick".into(),
            target: AliasTarget::Entity(e0),
            relation: Relation::Synonym,
            source: AliasSource::Nickname,
            weight: 2.0,
        });
        u.insert(Alias {
            text: "nick trailer".into(),
            target: AliasTarget::Entity(e0),
            relation: Relation::Hyponym,
            source: AliasSource::Aspect(AspectKind::Trailer),
            weight: 0.5,
        });
        u.insert(alias("elsewhere", AliasTarget::Entity(EntityId::new(1))));
        assert_eq!(u.of_entity(e0).count(), 3);
        let syns: Vec<&str> = u.synonyms_of(e0).map(|a| a.text.as_str()).collect();
        assert_eq!(syns, vec!["nick"]);
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut u = AliasUniverse::new();
        u.insert(alias("a", AliasTarget::Entity(EntityId::new(0))));
        u.insert(alias("b", AliasTarget::Entity(EntityId::new(1))));
        let mut copy = AliasUniverse {
            aliases: u.aliases.clone(),
            by_text: Default::default(),
            banned: Default::default(),
            ambiguous_dropped: 0,
            shadowed: 0,
        };
        assert!(copy.get("a").is_none());
        copy.rebuild_index();
        assert!(copy.get("a").is_some());
        assert!(copy.get("b").is_some());
    }

    #[test]
    fn aspect_suffixes() {
        assert_eq!(AspectKind::Trailer.suffix(), "trailer");
        assert_eq!(AspectKind::Price.suffix(), "price");
        let movie: std::collections::HashSet<_> = AspectKind::MOVIE_ASPECTS
            .iter()
            .map(|a| a.suffix())
            .collect();
        assert_eq!(movie.len(), 3);
    }

    #[test]
    fn relation_display() {
        assert_eq!(Relation::Synonym.to_string(), "synonym");
        assert_eq!(Relation::Hypernym.to_string(), "hypernym");
        assert_eq!(Relation::Hyponym.to_string(), "hyponym");
        assert_eq!(Relation::Related.to_string(), "related");
    }
}
