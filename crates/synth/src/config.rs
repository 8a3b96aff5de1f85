//! World configuration and the dataset presets used by the paper's
//! experiments.

use crate::entity::Domain;
use websyn_common::{Error, Result};

/// Configuration for building a [`crate::World`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Master seed; every stream in the world derives from it.
    pub seed: u64,
    /// Entity domain.
    pub domain: Domain,
    /// Number of entities in the catalog.
    pub n_entities: usize,
    /// Zipf exponent of entity popularity for intent sampling. Higher
    /// → more head-heavy traffic.
    pub entity_zipf: f64,
    /// Range of weights assigned to mechanical alias variants
    /// (planted nicknames/marketing carry their own weights).
    pub mechanical_weight_range: (f64, f64),
    /// Weight of the canonical surface among an entity's synonym
    /// surfaces. The paper's premise is that users rarely type the
    /// full canonical form — especially for cameras, whose data values
    /// "usually come in the canonical form … and therefore may not be
    /// used as queries by people".
    pub canonical_weight: f64,
    /// Maximum distinct misspellings the typo channel mints per
    /// surface. Real misspelling distributions are heavy-tailed: the
    /// same few typos recur, rather than every user inventing a new
    /// one.
    pub misspelling_pool: usize,
}

impl WorldConfig {
    /// The paper's D1: top-100 movies.
    pub fn movies_2008() -> Self {
        Self {
            seed: 2008,
            domain: Domain::Movies,
            n_entities: 100,
            entity_zipf: 0.9,
            mechanical_weight_range: (0.2, 1.2),
            canonical_weight: 0.6,
            misspelling_pool: 2,
        }
    }

    /// The paper's D2: 882 cameras. Heavier tail than movies: camera
    /// query traffic concentrates on a few hot models.
    pub fn cameras_msn() -> Self {
        Self {
            seed: 882,
            domain: Domain::Cameras,
            n_entities: 882,
            entity_zipf: 1.05,
            mechanical_weight_range: (0.2, 1.2),
            canonical_weight: 0.03,
            misspelling_pool: 3,
        }
    }

    /// A small movie world for tests.
    pub fn small_movies(n_entities: usize, seed: u64) -> Self {
        Self {
            seed,
            domain: Domain::Movies,
            n_entities,
            entity_zipf: 0.9,
            mechanical_weight_range: (0.2, 1.2),
            canonical_weight: 0.6,
            misspelling_pool: 3,
        }
    }

    /// A small camera world for tests.
    pub fn small_cameras(n_entities: usize, seed: u64) -> Self {
        Self {
            seed,
            domain: Domain::Cameras,
            n_entities,
            entity_zipf: 1.05,
            mechanical_weight_range: (0.2, 1.2),
            canonical_weight: 0.03,
            misspelling_pool: 3,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n_entities == 0 {
            return Err(Error::invalid_config("n_entities", "must be >= 1"));
        }
        if !self.entity_zipf.is_finite() || self.entity_zipf < 0.0 {
            return Err(Error::invalid_config(
                "entity_zipf",
                format!("must be finite and >= 0, got {}", self.entity_zipf),
            ));
        }
        let (lo, hi) = self.mechanical_weight_range;
        if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || hi < lo {
            return Err(Error::invalid_config(
                "mechanical_weight_range",
                format!("must satisfy 0 < lo <= hi, got ({lo}, {hi})"),
            ));
        }
        if !self.canonical_weight.is_finite() || self.canonical_weight <= 0.0 {
            return Err(Error::invalid_config(
                "canonical_weight",
                format!("must be finite and > 0, got {}", self.canonical_weight),
            ));
        }
        if self.misspelling_pool == 0 {
            return Err(Error::invalid_config(
                "misspelling_pool",
                "must be >= 1 (use typo rate 0 to disable misspellings)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        WorldConfig::movies_2008().validate().unwrap();
        WorldConfig::cameras_msn().validate().unwrap();
        WorldConfig::small_movies(5, 1).validate().unwrap();
        WorldConfig::small_cameras(5, 1).validate().unwrap();
    }

    #[test]
    fn preset_shapes_match_paper() {
        assert_eq!(WorldConfig::movies_2008().n_entities, 100);
        assert_eq!(WorldConfig::movies_2008().domain, Domain::Movies);
        assert_eq!(WorldConfig::cameras_msn().n_entities, 882);
        assert_eq!(WorldConfig::cameras_msn().domain, Domain::Cameras);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = WorldConfig::movies_2008();
        c.n_entities = 0;
        assert!(c.validate().is_err());

        let mut c = WorldConfig::movies_2008();
        c.entity_zipf = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = WorldConfig::movies_2008();
        c.mechanical_weight_range = (0.0, 1.0);
        assert!(c.validate().is_err());

        let mut c = WorldConfig::movies_2008();
        c.mechanical_weight_range = (1.0, 0.5);
        assert!(c.validate().is_err());

        let mut c = WorldConfig::movies_2008();
        c.canonical_weight = 0.0;
        assert!(c.validate().is_err());

        let mut c = WorldConfig::movies_2008();
        c.misspelling_pool = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn cameras_canonical_rarely_queried() {
        // The structural premise behind Table I's Walk row: camera data
        // values are rarely used as queries.
        assert!(
            WorldConfig::cameras_msn().canonical_weight
                < WorldConfig::movies_2008().canonical_weight
        );
    }
}
