//! Miner configuration.

use crate::surrogate::SurrogateSource;
use websyn_common::{Error, Result};

/// Parameters of the synonym miner.
///
/// Defaults are the paper's final operating point: "our solution Us
/// (thresholds IPC 4, ICR 0.1)" with top-10 search surrogates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinerConfig {
    /// Surrogate depth `k`: how many top search results of `u` count as
    /// surrogates (Eq. 1).
    pub top_k: usize,
    /// `β`: minimum Intersecting Page Count (Eq. 3).
    pub ipc_threshold: u32,
    /// `γ`: minimum Intersecting Click Ratio (Eq. 4).
    pub icr_threshold: f64,
    /// Where surrogate sets come from (the paper uses Search Data;
    /// Clicks implements the alternative its Section III-A dismisses).
    pub surrogate_source: SurrogateSource,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            top_k: 10,
            ipc_threshold: 4,
            icr_threshold: 0.1,
            surrogate_source: SurrogateSource::Search,
        }
    }
}

impl MinerConfig {
    /// A config with explicit thresholds and default surrogate depth.
    pub fn with_thresholds(ipc_threshold: u32, icr_threshold: f64) -> Self {
        Self {
            ipc_threshold,
            icr_threshold,
            ..Default::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.top_k == 0 {
            return Err(Error::invalid_config("top_k", "must be >= 1"));
        }
        if self.ipc_threshold == 0 {
            return Err(Error::invalid_config(
                "ipc_threshold",
                "must be >= 1 (IPC 0 would admit non-candidates)",
            ));
        }
        if !self.icr_threshold.is_finite() || !(0.0..=1.0).contains(&self.icr_threshold) {
            return Err(Error::invalid_config(
                "icr_threshold",
                format!("must be in [0, 1], got {}", self.icr_threshold),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_operating_point() {
        let c = MinerConfig::default();
        assert_eq!(c.top_k, 10);
        assert_eq!(c.ipc_threshold, 4);
        assert_eq!(c.icr_threshold, 0.1);
        c.validate().unwrap();
    }

    #[test]
    fn with_thresholds() {
        let c = MinerConfig::with_thresholds(6, 0.4);
        assert_eq!(c.ipc_threshold, 6);
        assert_eq!(c.icr_threshold, 0.4);
        assert_eq!(c.top_k, 10);
        c.validate().unwrap();
    }

    #[test]
    fn rejects_invalid() {
        assert!(MinerConfig {
            top_k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MinerConfig {
            ipc_threshold: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MinerConfig {
            icr_threshold: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(MinerConfig {
            icr_threshold: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
