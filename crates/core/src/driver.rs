//! The outcome of one colorful count.
//!
//! The overall algorithm of Figure 3 — traverse the decomposition tree
//! bottom-up, compute each block's projection table from its children's
//! tables, and report the root's aggregate as the number of colorful matches
//! of the whole query under the given coloring — is the block-step executor
//! in [`crate::runtime`]; the [`Engine`](crate::Engine) is its public entry
//! point. This module holds the result type, and the end-to-end smoke tests
//! of the walk.

use crate::metrics::RunMetrics;
use sgc_engine::Count;

/// The outcome of one colorful-counting run.
#[derive(Clone, Debug)]
pub struct CountResult {
    /// Number of colorful matches of the query under the given coloring.
    pub colorful_matches: Count,
    /// Run metrics (loads, operation counts, table sizes, elapsed time).
    pub metrics: RunMetrics,
}

#[cfg(test)]
mod tests {
    use crate::config::Algorithm;
    use crate::engine::Engine;
    use crate::error::SgcError;
    use sgc_graph::{Coloring, CsrGraph, GraphBuilder};
    use sgc_query::QueryGraph;

    fn cycle_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as u32, ((i + 1) % n) as u32);
        }
        b.build()
    }

    #[test]
    fn rainbow_square_counts_eight_matches() {
        // C4 data graph with 4 distinct colors; the C4 query has 8
        // automorphism-distinct colorful matches (aut(C4) = 8, one subgraph).
        let g = cycle_graph(4);
        let engine = Engine::new(&g);
        let coloring = Coloring::from_colors(vec![0, 1, 2, 3], 4);
        let query = sgc_query::catalog::cycle(4);
        for alg in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let res = engine
                .count(&query)
                .algorithm(alg)
                .coloring(&coloring)
                .run()
                .unwrap();
            assert_eq!(res.colorful_matches, 8, "{alg}");
        }
    }

    #[test]
    fn path_query_on_path_graph() {
        // Data path 0-1-2 with rainbow colors; query P3 has 2 colorful
        // matches (the two directions).
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2)]);
        let g = b.build();
        let engine = Engine::new(&g);
        let coloring = Coloring::from_colors(vec![0, 1, 2], 3);
        let query = sgc_query::catalog::path(3);
        for alg in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let res = engine
                .count(&query)
                .algorithm(alg)
                .coloring(&coloring)
                .run()
                .unwrap();
            assert_eq!(res.colorful_matches, 2, "{alg}");
        }
    }

    #[test]
    fn single_node_query_counts_vertices() {
        let g = cycle_graph(5);
        let coloring = Coloring::from_colors(vec![0; 5], 1);
        let query = QueryGraph::new(1);
        let res = Engine::new(&g)
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap();
        assert_eq!(res.colorful_matches, 5);
    }

    #[test]
    fn single_edge_query_counts_bichromatic_edges() {
        // Path 0-1-2 colored 0,1,0: edges (0,1) and (1,2) are both
        // bichromatic; each contributes 2 matches (both orientations).
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2)]);
        let g = b.build();
        let coloring = Coloring::from_colors(vec![0, 1, 0], 2);
        let query = QueryGraph::from_edges(2, &[(0, 1)]).unwrap();
        let res = Engine::new(&g)
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap();
        assert_eq!(res.colorful_matches, 4);
    }

    /// PS and DB must agree on every query/coloring — this is the core
    /// equivalence the paper relies on (they compute the same quantity).
    #[test]
    fn db_equals_ps_on_a_small_skewed_graph() {
        // A star plus a few cycle edges, so degrees differ substantially.
        let mut b = GraphBuilder::new(8);
        for v in 1..8 {
            b.add_edge(0, v);
        }
        b.extend_edges([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1)]);
        let g = b.build();
        let engine = Engine::new(&g);
        for (qname, query) in [
            ("triangle", sgc_query::catalog::triangle()),
            ("c4", sgc_query::catalog::cycle(4)),
            ("glet1", sgc_query::catalog::glet1()),
            ("youtube", sgc_query::catalog::youtube()),
        ] {
            for seed in 0..3 {
                let coloring = Coloring::random(8, query.num_nodes(), seed);
                let count = |alg| {
                    let res = engine.count(&query).algorithm(alg).coloring(&coloring);
                    res.run().unwrap().colorful_matches
                };
                assert_eq!(
                    count(Algorithm::DegreeBased),
                    count(Algorithm::PathSplitting),
                    "PS/DB disagree on {qname} with seed {seed}"
                );
            }
        }
    }

    #[test]
    fn wrong_color_count_is_an_error_not_a_panic() {
        let g = cycle_graph(4);
        let coloring = Coloring::from_colors(vec![0; 4], 2);
        let query = sgc_query::catalog::cycle(4);
        let tree = sgc_query::decompose(&query).unwrap();
        let err = Engine::new(&g)
            .count(&query)
            .plan(&tree)
            .coloring(&coloring)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SgcError::WrongColorCount {
                expected: 4,
                actual: 2
            }
        );
    }
}
