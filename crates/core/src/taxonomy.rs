//! Oracle-based classification of mined strings.
//!
//! The paper's Figure 1 taxonomy made measurable: every mined synonym
//! is classified against the synthetic world's ground truth as a true
//! synonym, a hypernym leak, a hyponym leak, a related-string leak, or
//! a wrong/unknown string. The ablation harness uses the breakdown to
//! show *what kind* of errors each threshold removes.

use std::fmt;
use websyn_common::EntityId;
use websyn_synth::{Relation, World};

/// The ground-truth class of one mined (entity, string) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruthClass {
    /// A true synonym (includes registered misspellings).
    Synonym,
    /// A franchise/line name covering the entity (Fig. 1b).
    Hypernym,
    /// An aspect string of the entity (Fig. 1c).
    Hyponym,
    /// A related concept string (Fig. 1d).
    Related,
    /// A string that means some *other* entity or nothing at all.
    Unrelated,
}

impl fmt::Display for TruthClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TruthClass::Synonym => "synonym",
            TruthClass::Hypernym => "hypernym",
            TruthClass::Hyponym => "hyponym",
            TruthClass::Related => "related",
            TruthClass::Unrelated => "unrelated",
        };
        f.write_str(s)
    }
}

/// Classifies a mined string against an entity.
pub fn classify(world: &World, text: &str, entity: EntityId) -> TruthClass {
    match world.relation_of(text, entity) {
        Some(Relation::Synonym) => TruthClass::Synonym,
        Some(Relation::Hypernym) => TruthClass::Hypernym,
        Some(Relation::Hyponym) => TruthClass::Hyponym,
        Some(Relation::Related) => TruthClass::Related,
        None => TruthClass::Unrelated,
    }
}

/// Counts per truth class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelationCounts {
    /// True synonyms.
    pub synonym: usize,
    /// Hypernym leaks.
    pub hypernym: usize,
    /// Hyponym leaks.
    pub hyponym: usize,
    /// Related-string leaks.
    pub related: usize,
    /// Wrong-entity / unknown strings.
    pub unrelated: usize,
}

impl RelationCounts {
    /// Adds one observation.
    pub fn add(&mut self, class: TruthClass) {
        match class {
            TruthClass::Synonym => self.synonym += 1,
            TruthClass::Hypernym => self.hypernym += 1,
            TruthClass::Hyponym => self.hyponym += 1,
            TruthClass::Related => self.related += 1,
            TruthClass::Unrelated => self.unrelated += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.synonym + self.hypernym + self.hyponym + self.related + self.unrelated
    }

    /// Fraction of a class (0 when empty).
    pub fn fraction(&self, class: TruthClass) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let count = match class {
            TruthClass::Synonym => self.synonym,
            TruthClass::Hypernym => self.hypernym,
            TruthClass::Hyponym => self.hyponym,
            TruthClass::Related => self.related,
            TruthClass::Unrelated => self.unrelated,
        };
        count as f64 / total as f64
    }
}

impl fmt::Display for RelationCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "syn={} hyper={} hypo={} related={} unrelated={}",
            self.synonym, self.hypernym, self.hyponym, self.related, self.unrelated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websyn_synth::WorldConfig;

    #[test]
    fn classify_against_world() {
        let world = World::build(&WorldConfig::small_movies(30, 17));
        let e0 = &world.entities[0];
        assert_eq!(
            classify(&world, &e0.canonical_norm, e0.id),
            TruthClass::Synonym
        );
        assert_eq!(
            classify(&world, "total nonsense query", e0.id),
            TruthClass::Unrelated
        );
        if let Some(f) = world.franchises.first() {
            let member = f.members[0];
            assert_eq!(classify(&world, &f.name, member), TruthClass::Hypernym);
            // A franchise name against a non-member is unrelated.
            let outsider = world
                .entities
                .iter()
                .find(|e| e.franchise != Some(f.id))
                .unwrap();
            assert_eq!(
                classify(&world, &f.name, outsider.id),
                TruthClass::Unrelated
            );
        }
    }

    #[test]
    fn counts_accumulate() {
        let mut c = RelationCounts::default();
        c.add(TruthClass::Synonym);
        c.add(TruthClass::Synonym);
        c.add(TruthClass::Hypernym);
        c.add(TruthClass::Unrelated);
        assert_eq!(c.total(), 4);
        assert_eq!(c.synonym, 2);
        assert!((c.fraction(TruthClass::Synonym) - 0.5).abs() < 1e-12);
        assert!((c.fraction(TruthClass::Hypernym) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_counts() {
        let c = RelationCounts::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.fraction(TruthClass::Synonym), 0.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TruthClass::Synonym.to_string(), "synonym");
        let mut c = RelationCounts::default();
        c.add(TruthClass::Related);
        assert!(c.to_string().contains("related=1"));
    }
}
