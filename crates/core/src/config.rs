//! Run configuration for the counting algorithms.

/// Which algorithm solves the cycle blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The baseline Path Splitting algorithm (Figure 4): equivalent to the
    /// dynamic program of Alon et al.; cycles are split at their boundary
    /// nodes and paths are extended without any pruning.
    PathSplitting,
    /// The paper's Degree Based algorithm (Figures 5–7): cycles are split at
    /// every possible highest node under the degree ordering, and only
    /// high-starting paths are extended.
    DegreeBased,
}

impl Algorithm {
    /// Short name used in experiment output ("PS" / "DB").
    pub fn short_name(&self) -> &'static str {
        match self {
            Algorithm::PathSplitting => "PS",
            Algorithm::DegreeBased => "DB",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Configuration of a single colorful-counting run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountConfig {
    /// Cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// Number of simulated ranks used for load attribution (the paper uses
    /// 32–512 MPI ranks; this only affects the reported load vectors, not the
    /// result or the actual parallelism).
    pub num_ranks: usize,
    /// Whether runs record observability spans and publish run counters
    /// into the `sgc-obs` registry (default: on). Observability reads,
    /// never branches, the DP: counts are bit-identical either way, which
    /// `tests/obs.rs` pins differentially.
    pub obs: bool,
}

impl CountConfig {
    /// Configuration for the given algorithm with the default rank count.
    pub fn new(algorithm: Algorithm) -> Self {
        CountConfig {
            algorithm,
            num_ranks: 64,
            obs: true,
        }
    }

    /// Sets the number of simulated ranks. A zero rank count is rejected at
    /// run time with [`SgcError::ZeroRanks`](crate::SgcError::ZeroRanks)
    /// rather than panicking here.
    pub fn with_ranks(mut self, num_ranks: usize) -> Self {
        self.num_ranks = num_ranks;
        self
    }

    /// Enables or disables per-run observability (spans + registry
    /// publication). Counts are unaffected.
    pub fn with_obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }
}

impl Default for CountConfig {
    fn default() -> Self {
        CountConfig::new(Algorithm::DegreeBased)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_degree_based() {
        let c = CountConfig::default();
        assert_eq!(c.algorithm, Algorithm::DegreeBased);
        assert_eq!(c.num_ranks, 64);
        assert!(c.obs, "observability defaults to on");
    }

    #[test]
    fn builder_methods() {
        let c = CountConfig::new(Algorithm::PathSplitting)
            .with_ranks(512)
            .with_obs(false);
        assert_eq!(c.algorithm, Algorithm::PathSplitting);
        assert_eq!(c.num_ranks, 512);
        assert!(!c.obs);
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::PathSplitting.to_string(), "PS");
        assert_eq!(Algorithm::DegreeBased.to_string(), "DB");
    }

    #[test]
    fn zero_ranks_is_deferred_to_run_time_validation() {
        // Constructing the config is allowed; the engine rejects it with
        // SgcError::ZeroRanks when a request runs (see engine::tests).
        let c = CountConfig::default().with_ranks(0);
        assert_eq!(c.num_ranks, 0);
    }
}
