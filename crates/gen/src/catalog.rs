//! Synthetic analogs of the paper's Table 1 benchmark graphs.
//!
//! Each entry matches one row of Table 1 by name, domain, vertex count, edge
//! count and degree skew. Because the real SNAP / Open Connectome datasets
//! are not bundled, each analog is generated from the model that best matches
//! the row's characteristics:
//!
//! * skewed social / communication / citation graphs → Chung-Lu with a
//!   truncated power-law degree sequence tuned so that the average degree and
//!   the rough maximum degree match the row,
//! * `roadNetCA` → the low-skew [`crate::road::road_like`] generator.
//!
//! Every spec carries a `scale` so the full-size graphs can be shrunk to
//! laptop-friendly sizes while preserving the degree-distribution shape
//! (`tests/repro.rs` runs them at 0.002–0.02 of the paper sizes).

use crate::chung_lu::chung_lu;
use crate::power_law::power_law_degrees;
use crate::road::road_like;
use sgc_graph::CsrGraph;

/// Which generative model backs a catalog entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphModel {
    /// Chung-Lu with a truncated power-law degree sequence of the given
    /// exponent, scaled so the average degree matches the Table 1 row.
    PowerLawChungLu {
        /// Power-law exponent α ∈ (1, 2); smaller = heavier tail.
        alpha: f64,
    },
    /// Low-skew road-like grid.
    RoadLike,
}

/// A named synthetic analog of a Table 1 graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphSpec {
    /// Graph name as it appears in Table 1.
    pub name: &'static str,
    /// Domain column of Table 1.
    pub domain: &'static str,
    /// Number of vertices in the paper's dataset.
    pub paper_vertices: usize,
    /// Number of edges in the paper's dataset.
    pub paper_edges: usize,
    /// Average degree reported in Table 1.
    pub paper_avg_degree: f64,
    /// Maximum degree reported in Table 1.
    pub paper_max_degree: usize,
    /// Generative model used for the analog.
    pub model: GraphModel,
}

impl GraphSpec {
    /// Generates the analog at `scale` (1.0 = paper size, 1/16 = default
    /// laptop size). The degree *distribution shape* is preserved; only the
    /// vertex count shrinks.
    pub fn generate(&self, scale: f64, seed: u64) -> CsrGraph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.paper_vertices as f64 * scale).round() as usize).max(64);
        match self.model {
            GraphModel::PowerLawChungLu { alpha } => {
                let mut degrees = power_law_degrees(n, alpha);
                // Rescale the sequence so its mean matches the paper's
                // average degree (keeping every entry ≥ 1).
                let mean: f64 = degrees.iter().sum::<f64>() / n as f64;
                let factor = (self.paper_avg_degree / mean).max(f64::MIN_POSITIVE);
                for d in &mut degrees {
                    *d = (*d * factor).max(1.0);
                }
                chung_lu(&degrees, seed)
            }
            GraphModel::RoadLike => {
                let side = (n as f64).sqrt().round() as usize;
                road_like(side.max(2), 0.65, 0.02, seed)
            }
        }
    }
}

/// The ten rows of Table 1 as synthetic analogs.
///
/// Exponents were chosen so that higher-skew rows (enron, slashdot, epinions)
/// get heavier tails than collaboration networks; `roadNetCA` uses the
/// road-like generator.
pub const TABLE1_ANALOGS: &[GraphSpec] = &[
    GraphSpec {
        name: "brightkite",
        domain: "Geo loc.",
        paper_vertices: 58_000,
        paper_edges: 214_000,
        paper_avg_degree: 4.0,
        paper_max_degree: 1135,
        model: GraphModel::PowerLawChungLu { alpha: 1.45 },
    },
    GraphSpec {
        name: "condMat",
        domain: "Collab.",
        paper_vertices: 23_000,
        paper_edges: 93_000,
        paper_avg_degree: 4.0,
        paper_max_degree: 281,
        model: GraphModel::PowerLawChungLu { alpha: 1.7 },
    },
    GraphSpec {
        name: "astroph",
        domain: "Collab.",
        paper_vertices: 18_000,
        paper_edges: 198_000,
        paper_avg_degree: 11.0,
        paper_max_degree: 504,
        model: GraphModel::PowerLawChungLu { alpha: 1.7 },
    },
    GraphSpec {
        name: "enron",
        domain: "Commn.",
        paper_vertices: 36_000,
        paper_edges: 180_000,
        paper_avg_degree: 5.0,
        paper_max_degree: 1385,
        model: GraphModel::PowerLawChungLu { alpha: 1.4 },
    },
    GraphSpec {
        name: "hepph",
        domain: "Citation",
        paper_vertices: 34_000,
        paper_edges: 421_000,
        paper_avg_degree: 12.0,
        paper_max_degree: 848,
        model: GraphModel::PowerLawChungLu { alpha: 1.6 },
    },
    GraphSpec {
        name: "slashdot",
        domain: "Soc. net.",
        paper_vertices: 82_000,
        paper_edges: 900_000,
        paper_avg_degree: 11.0,
        paper_max_degree: 2554,
        model: GraphModel::PowerLawChungLu { alpha: 1.45 },
    },
    GraphSpec {
        name: "epinions",
        domain: "Soc. net.",
        paper_vertices: 131_000,
        paper_edges: 841_000,
        paper_avg_degree: 6.0,
        paper_max_degree: 3558,
        model: GraphModel::PowerLawChungLu { alpha: 1.35 },
    },
    GraphSpec {
        name: "orkut",
        domain: "Soc. net.",
        paper_vertices: 524_000,
        paper_edges: 1_300_000,
        paper_avg_degree: 3.0,
        paper_max_degree: 1634,
        model: GraphModel::PowerLawChungLu { alpha: 1.5 },
    },
    GraphSpec {
        name: "roadNetCA",
        domain: "Road net.",
        paper_vertices: 2_000_000,
        paper_edges: 2_700_000,
        paper_avg_degree: 1.3,
        paper_max_degree: 14,
        model: GraphModel::RoadLike,
    },
    GraphSpec {
        name: "brain",
        domain: "Biology",
        paper_vertices: 400_000,
        paper_edges: 1_100_000,
        paper_avg_degree: 3.0,
        paper_max_degree: 286,
        model: GraphModel::PowerLawChungLu { alpha: 1.65 },
    },
];

/// Looks up a catalog entry by its Table 1 name (case-insensitive).
pub fn spec_by_name(name: &str) -> Option<&'static GraphSpec> {
    TABLE1_ANALOGS
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_graph::DegreeStats;

    #[test]
    fn catalog_has_all_ten_rows() {
        assert_eq!(TABLE1_ANALOGS.len(), 10);
        assert!(spec_by_name("enron").is_some());
        assert!(spec_by_name("ENRON").is_some());
        assert!(spec_by_name("facebook").is_none());
    }

    #[test]
    fn generated_analog_matches_avg_degree_roughly() {
        let spec = spec_by_name("condMat").unwrap();
        let g = spec.generate(0.05, 1);
        let stats = DegreeStats::compute(&g);
        assert!(
            (stats.avg_degree - spec.paper_avg_degree).abs() < spec.paper_avg_degree,
            "avg degree {} too far from paper value {}",
            stats.avg_degree,
            spec.paper_avg_degree
        );
    }

    #[test]
    fn skewed_rows_are_more_skewed_than_road() {
        let enron = spec_by_name("enron").unwrap().generate(0.05, 2);
        let road = spec_by_name("roadNetCA").unwrap().generate(0.002, 2);
        let skew_enron = DegreeStats::compute(&enron).skew();
        let skew_road = DegreeStats::compute(&road).skew();
        assert!(
            skew_enron > 3.0 * skew_road,
            "enron analog skew {skew_enron} should dominate road skew {skew_road}"
        );
    }

    #[test]
    fn scale_changes_size_not_shape() {
        let spec = spec_by_name("astroph").unwrap();
        let small = spec.generate(0.02, 3);
        let big = spec.generate(0.08, 3);
        assert!(big.num_vertices() > 2 * small.num_vertices());
        let s_small = DegreeStats::compute(&small);
        let s_big = DegreeStats::compute(&big);
        assert!((s_small.avg_degree - s_big.avg_degree).abs() < 0.5 * s_big.avg_degree + 2.0);
    }

    #[test]
    #[should_panic]
    fn zero_scale_panics() {
        let _ = TABLE1_ANALOGS[0].generate(0.0, 0);
    }
}
