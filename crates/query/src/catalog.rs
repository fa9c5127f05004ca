//! The query catalog: analogs of the paper's Figure 8 query suite.
//!
//! The paper evaluates ten real-world queries of 5–10 nodes drawn from
//! biology (dros, ecoli1/2, brain1/2/3), graphlet studies (glet1/2),
//! Wikipedia article classification (wiki) and YouTube spam detection
//! (youtube). Figure 8 only shows them pictorially, so this catalog defines
//! structurally matching treewidth-2 analogs: the node counts, longest cycle
//! lengths and the mix of fused cycles / pendant decorations follow the
//! paper's textual descriptions (e.g. brain1 is a 4-cycle fused with a
//! 6-cycle, Section 6; brain2/brain3 are the largest and slowest queries,
//! Section 8.2). The paper's `Satellite` worked example (Figure 2) is
//! reproduced exactly from the text.

use crate::graph::{QueryGraph, QueryNode};
use crate::registry::Registry;

/// Builds a catalog query from a static edge list. The lists below are
/// simple, in range and duplicate-free by construction, so the typed
/// [`from_edges`](QueryGraph::from_edges) errors are unreachable.
fn build(num_nodes: usize, edges: &[(QueryNode, QueryNode)]) -> QueryGraph {
    QueryGraph::from_edges(num_nodes, edges).expect("catalog edge lists are valid")
}

/// A named query in the catalog.
#[derive(Clone, Copy, Debug)]
pub struct QuerySpec {
    /// Name as used in the paper's figures.
    pub name: &'static str,
    /// Short structural description of the analog.
    pub description: &'static str,
    /// Builder for the query graph.
    pub build: fn() -> QueryGraph,
}

/// Path query `P_n` (a tree; treewidth 1).
pub fn path(n: usize) -> QueryGraph {
    let mut q = QueryGraph::new(n);
    for i in 1..n {
        q.add_edge((i - 1) as QueryNode, i as QueryNode)
            .expect("path edges are simple");
    }
    q
}

/// Cycle query `C_n`.
pub fn cycle(n: usize) -> QueryGraph {
    assert!(n >= 3);
    let mut q = QueryGraph::new(n);
    for i in 0..n {
        q.add_edge(i as QueryNode, ((i + 1) % n) as QueryNode)
            .expect("cycle edges of length >= 3 are simple");
    }
    q
}

/// Triangle query `C_3`.
pub fn triangle() -> QueryGraph {
    cycle(3)
}

/// Star query with `leaves` leaves (a tree).
pub fn star(leaves: usize) -> QueryGraph {
    let mut q = QueryGraph::new(leaves + 1);
    for leaf in 1..=leaves {
        q.add_edge(0, leaf as QueryNode)
            .expect("star edges are simple");
    }
    q
}

/// Complete binary tree with `levels` levels (the 12-vertex complete binary
/// tree mentioned in Section 8.2 is `binary_tree(3)` plus a root-level node;
/// here `levels = 3` gives 7 nodes, `levels = 4` gives 15).
pub fn binary_tree(levels: usize) -> QueryGraph {
    let n = (1usize << levels) - 1;
    let mut q = QueryGraph::new(n);
    for i in 1..n {
        q.add_edge(i as QueryNode, ((i - 1) / 2) as QueryNode)
            .expect("binary tree edges are simple");
    }
    q
}

/// Complete graph `K_n`. Cliques beyond `K_3` have treewidth `n - 1 > 2`
/// and are rejected by the planner; the constructor exists so the pattern
/// language can express them (and report the treewidth error downstream
/// instead of failing to parse).
pub fn clique(n: usize) -> QueryGraph {
    let mut q = QueryGraph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            q.add_edge(a as QueryNode, b as QueryNode)
                .expect("clique edges are simple");
        }
    }
    q
}

/// glet1 — the "house" graphlet: a 4-cycle fused with a triangle along an edge
/// (5 nodes, longest cycle 4).
pub fn glet1() -> QueryGraph {
    build(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 3)])
}

/// glet2 — the 5-cycle graphlet.
pub fn glet2() -> QueryGraph {
    cycle(5)
}

/// youtube — spam-campaign motif: a triangle with two pendant accounts on the
/// same hub (5 nodes, longest cycle 3). The cheapest query in the suite.
pub fn youtube() -> QueryGraph {
    build(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)])
}

/// dros — Drosophila protein-interaction motif: a 4-cycle with two pendant
/// proteins on opposite sides (6 nodes, longest cycle 4).
pub fn dros() -> QueryGraph {
    build(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5)])
}

/// wiki — article-classification motif: a triangle with one pendant per
/// corner (6 nodes, longest cycle 3).
pub fn wiki() -> QueryGraph {
    build(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
}

/// ecoli1 — E. coli regulatory motif: two triangles sharing a hub plus a
/// pendant on the hub (6 nodes, longest cycle 3).
pub fn ecoli1() -> QueryGraph {
    build(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5)])
}

/// ecoli2 — E. coli motif: a 5-cycle with two pendant genes on adjacent
/// cycle nodes (7 nodes, longest cycle 5).
pub fn ecoli2() -> QueryGraph {
    build(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6)])
}

/// brain1 — connectome motif: a 6-cycle and a 4-cycle fused along one edge
/// (8 nodes, longest cycle 6). This is the query whose two decomposition
/// trees are discussed in Section 6.
pub fn brain1() -> QueryGraph {
    build(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (1, 6),
            (6, 7),
            (7, 0),
        ],
    )
}

/// brain2 — connectome motif: a 6-cycle with a triangle fused at a node and a
/// pendant region (9 nodes, longest cycle 6).
pub fn brain2() -> QueryGraph {
    build(
        9,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 6),
            (6, 7),
            (7, 0),
            (3, 8),
        ],
    )
}

/// brain3 — the hardest query of the suite: three internally disjoint paths
/// between two hub regions (10 nodes, longest cycle 8). Section 8.2 reports
/// it as the slowest query by a wide margin.
pub fn brain3() -> QueryGraph {
    build(
        10,
        &[
            (0, 2),
            (2, 3),
            (3, 4),
            (4, 1), // path A (length 4)
            (0, 5),
            (5, 6),
            (6, 7),
            (7, 1), // path B (length 4)
            (0, 8),
            (8, 9),
            (9, 1), // path C (length 3)
        ],
    )
}

/// The paper's `Satellite` worked example (Figure 2): an 11-node query with a
/// 5-cycle, two triangles and a pendant edge.
pub fn satellite() -> QueryGraph {
    // a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10
    build(
        11,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0), // 5-cycle a-b-c-d-e
            (0, 5),
            (2, 6), // a-f, c-g
            (8, 5),
            (5, 6),
            (6, 8), // triangle i-f-g
            (8, 9),
            (9, 10),
            (10, 8), // triangle i-j-k
            (5, 7),  // leaf edge f-h
        ],
    )
}

/// The ten Figure 8 queries, ordered as in the paper's figures.
pub const FIGURE8_QUERIES: &[QuerySpec] = &[
    QuerySpec {
        name: "dros",
        description: "4-cycle with two pendants (6 nodes)",
        build: dros,
    },
    QuerySpec {
        name: "ecoli1",
        description: "two fused triangles plus pendant (6 nodes)",
        build: ecoli1,
    },
    QuerySpec {
        name: "ecoli2",
        description: "5-cycle with two pendants (7 nodes)",
        build: ecoli2,
    },
    QuerySpec {
        name: "brain1",
        description: "6-cycle fused with 4-cycle (8 nodes)",
        build: brain1,
    },
    QuerySpec {
        name: "brain2",
        description: "6-cycle, fused triangle, pendant (9 nodes)",
        build: brain2,
    },
    QuerySpec {
        name: "brain3",
        description: "three parallel paths between hubs (10 nodes)",
        build: brain3,
    },
    QuerySpec {
        name: "glet1",
        description: "house graphlet (5 nodes)",
        build: glet1,
    },
    QuerySpec {
        name: "glet2",
        description: "5-cycle graphlet (5 nodes)",
        build: glet2,
    },
    QuerySpec {
        name: "wiki",
        description: "triangle with three pendants (6 nodes)",
        build: wiki,
    },
    QuerySpec {
        name: "youtube",
        description: "triangle with two pendants on a hub (5 nodes)",
        build: youtube,
    },
];

/// Looks up a registered query by name (case-insensitive), resolving
/// through the built-in [`Registry`] — the same path the pattern parser and
/// the service take, so "what does this name mean" can never diverge
/// between layers.
pub fn query_by_name(name: &str) -> Option<QueryGraph> {
    Registry::builtin().build(name)
}

/// Every name [`query_by_name`] resolves, in registration order (the ten
/// Figure 8 queries followed by `satellite`). This is the single source of
/// truth callers iterate instead of repeating name lists.
pub fn names() -> Vec<&'static str> {
    Registry::builtin().names()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::decompose;
    use crate::treewidth::treewidth_at_most_two;

    #[test]
    fn all_catalog_queries_are_valid_treewidth_two_and_decomposable() {
        for spec in FIGURE8_QUERIES {
            let q = (spec.build)();
            q.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                treewidth_at_most_two(&q),
                "{} must be treewidth ≤ 2",
                spec.name
            );
            let tree = decompose(&q).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            tree.verify()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
        let sat = satellite();
        assert!(treewidth_at_most_two(&sat));
        decompose(&sat).unwrap().verify().unwrap();
    }

    #[test]
    fn node_counts_match_paper_sizes() {
        assert_eq!(glet1().num_nodes(), 5);
        assert_eq!(glet2().num_nodes(), 5);
        assert_eq!(youtube().num_nodes(), 5);
        assert_eq!(dros().num_nodes(), 6);
        assert_eq!(wiki().num_nodes(), 6);
        assert_eq!(ecoli1().num_nodes(), 6);
        assert_eq!(ecoli2().num_nodes(), 7);
        assert_eq!(brain1().num_nodes(), 8);
        assert_eq!(brain2().num_nodes(), 9);
        assert_eq!(brain3().num_nodes(), 10);
        assert_eq!(satellite().num_nodes(), 11);
    }

    #[test]
    fn harder_queries_have_longer_cycles() {
        let easy = decompose(&youtube()).unwrap().longest_cycle();
        let hard = decompose(&brain3()).unwrap().longest_cycle();
        assert!(
            hard > easy,
            "brain3 ({hard}) should have longer cycles than youtube ({easy})"
        );
        assert!(hard >= 7, "brain3 contains a long cycle, got {hard}");
    }

    #[test]
    fn lookup_by_name_works() {
        assert!(query_by_name("brain1").is_some());
        assert!(query_by_name("BRAIN1").is_some());
        assert!(query_by_name("satellite").is_some());
        assert!(query_by_name("nonexistent").is_none());
    }

    #[test]
    fn tree_helpers_are_trees() {
        assert!(crate::treewidth::is_tree(&path(6)));
        assert!(crate::treewidth::is_tree(&star(5)));
        assert!(crate::treewidth::is_tree(&binary_tree(3)));
        assert_eq!(binary_tree(3).num_nodes(), 7);
        assert!(!crate::treewidth::is_tree(&cycle(4)));
    }
}
