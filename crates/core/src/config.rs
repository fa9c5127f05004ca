//! The cycle-solving algorithm a run uses.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::PathSplitting.to_string(), "PS");
        assert_eq!(Algorithm::DegreeBased.to_string(), "DB");
    }
}
