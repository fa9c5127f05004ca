//! The cycle-solving algorithm a run uses.

/// Which algorithm solves the cycle blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The baseline Path Splitting (PS) algorithm: the paper's rephrasing of
    /// the original Alon et al. color-coding dynamic program over the
    /// decomposition tree (Section 5.1, Figure 4). Each cycle is split at its
    /// boundary nodes into the two paths `P+` and `P-`, each path's
    /// projection table is built by extending one edge at a time, and the
    /// two are joined. No degree information is used, which on skewed graphs
    /// leads to large intermediate tables around high-degree vertices and to
    /// load imbalance — exactly the behaviour the DB algorithm addresses.
    PathSplitting,
    /// The Degree Based (DB) algorithm, the paper's main contribution. It
    /// partitions the colorful matches of every cycle block by the *highest*
    /// data vertex (in the increasing degree-then-id order) among the images
    /// of the cycle's nodes, and computes each group separately by building
    /// only *high-starting* paths from that vertex (Section 5.1, Figures
    /// 5–6; generalised to annotated cycles in Section 5.2, Figure 7). The
    /// `u ≻ w` pruning keeps high-degree vertices from blowing up the
    /// intermediate tables, which both reduces total work and balances the
    /// per-rank load — the MINBUCKET idea lifted from triangles to arbitrary
    /// treewidth-2 queries. PS and DB compute the same count.
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
