//! The ground-truth oracle.
//!
//! The paper assumes an abstract oracle `F(s, E)` that lives "only in
//! the collective minds of all users" and therefore has to be
//! approximated with Web data. In the synthetic world we *are* the
//! collective mind: every surface was generated with a known target, so
//! the oracle is a lookup table. The mining algorithm never touches
//! this — it is used exclusively for evaluation (precision is exact
//! instead of human-judged).

use crate::alias::{AliasSource, AliasTarget, AliasUniverse, Relation};
use websyn_common::{EntityId, FxHashMap};

/// What a query string truly refers to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthEntry {
    /// The true referent.
    pub target: AliasTarget,
    /// The relation of the surface to its target's entity set.
    pub relation: Relation,
    /// Provenance of the surface.
    pub source: AliasSource,
}

/// The oracle: normalized surface text → truth.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    map: FxHashMap<String, TruthEntry>,
}

impl GroundTruth {
    /// Builds the oracle from a finished alias universe.
    pub fn from_universe(universe: &AliasUniverse) -> Self {
        let mut map = FxHashMap::default();
        for alias in universe.iter() {
            map.insert(
                alias.text.clone(),
                TruthEntry {
                    target: alias.target,
                    relation: alias.relation,
                    source: alias.source,
                },
            );
        }
        Self { map }
    }

    /// Registers a derived surface (the typo channel calls this when it
    /// mints a misspelling). Returns `false` — and registers nothing —
    /// if the text already means something else.
    pub fn register(&mut self, text: &str, entry: TruthEntry) -> bool {
        match self.map.get(text) {
            Some(existing) => existing.target == entry.target,
            None => {
                self.map.insert(text.to_string(), entry);
                true
            }
        }
    }

    /// Looks up a surface.
    pub fn lookup(&self, text: &str) -> Option<&TruthEntry> {
        self.map.get(text)
    }

    /// True iff `text` is a true synonym of entity `e` (refers to
    /// exactly that entity, with Synonym relation — misspellings of
    /// synonyms count, aspect strings do not).
    pub fn is_true_synonym(&self, text: &str, e: EntityId) -> bool {
        matches!(
            self.map.get(text),
            Some(TruthEntry {
                target: AliasTarget::Entity(te),
                relation: Relation::Synonym,
                ..
            }) if *te == e
        )
    }

    /// Number of known surfaces.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the oracle is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(text, entry)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TruthEntry)> + '_ {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::Alias;

    fn universe() -> AliasUniverse {
        let mut u = AliasUniverse::new();
        u.insert(Alias {
            text: "indy 4".into(),
            target: AliasTarget::Entity(EntityId::new(0)),
            relation: Relation::Synonym,
            source: AliasSource::Nickname,
            weight: 2.0,
        });
        u.insert(Alias {
            text: "indy 4 trailer".into(),
            target: AliasTarget::Entity(EntityId::new(0)),
            relation: Relation::Hyponym,
            source: AliasSource::Aspect(crate::alias::AspectKind::Trailer),
            weight: 0.4,
        });
        u
    }

    #[test]
    fn from_universe_copies_entries() {
        let t = GroundTruth::from_universe(&universe());
        assert_eq!(t.len(), 2);
        let e = t.lookup("indy 4").unwrap();
        assert_eq!(e.relation, Relation::Synonym);
    }

    #[test]
    fn synonym_judgement() {
        let t = GroundTruth::from_universe(&universe());
        assert!(t.is_true_synonym("indy 4", EntityId::new(0)));
        assert!(!t.is_true_synonym("indy 4", EntityId::new(1)));
        // Aspect strings are never synonyms.
        assert!(!t.is_true_synonym("indy 4 trailer", EntityId::new(0)));
        assert!(!t.is_true_synonym("unknown", EntityId::new(0)));
    }

    #[test]
    fn register_misspelling() {
        let mut t = GroundTruth::from_universe(&universe());
        let entry = TruthEntry {
            target: AliasTarget::Entity(EntityId::new(0)),
            relation: Relation::Synonym,
            source: AliasSource::Misspelling,
        };
        assert!(t.register("indy 4 misspelt", entry));
        assert!(t.is_true_synonym("indy 4 misspelt", EntityId::new(0)));
        // Re-registering the same text for the same target is fine...
        assert!(t.register("indy 4 misspelt", entry));
        // ...but a conflicting target is refused and not overwritten.
        let conflicting = TruthEntry {
            target: AliasTarget::Entity(EntityId::new(9)),
            relation: Relation::Synonym,
            source: AliasSource::Misspelling,
        };
        assert!(!t.register("indy 4 misspelt", conflicting));
        assert!(t.is_true_synonym("indy 4 misspelt", EntityId::new(0)));
    }

    #[test]
    fn iteration_and_len() {
        let t = GroundTruth::from_universe(&universe());
        assert_eq!(t.iter().count(), t.len());
        assert!(!t.is_empty());
        assert!(GroundTruth::default().is_empty());
    }
}
