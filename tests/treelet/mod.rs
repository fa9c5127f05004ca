//! The tree-query (treelet) dynamic program.
//!
//! Trees have treewidth one, and the paper's predecessors (Alon et al.'s
//! biological-network study and Slota & Madduri's FASCIA) implement color
//! coding for tree queries with a linear-time bottom-up dynamic program: for
//! every query node `q` (processed leaves-first) and every data vertex `v`,
//! store the number of colorful matches of the subtree rooted at `q` that map
//! `q` to `v`, keyed by the set of colors used.
//!
//! The general treewidth-2 machinery also handles trees (the decomposition
//! consists solely of leaf-edge blocks), so this module is an *independent*
//! implementation — sharing only `Signature` with the kernel — used by
//! `tests/correctness.rs` to cross-validate the general path on tree queries.

use std::collections::HashMap;
use subgraph_counting::engine::{Count, Signature};
use subgraph_counting::graph::{Coloring, CsrGraph, VertexId};
use subgraph_counting::query::treewidth::is_tree;
use subgraph_counting::query::{QueryGraph, QueryNode};

/// Counts the colorful matches of a tree query with the classic color-coding
/// dynamic program.
///
/// # Panics
/// Panics if the query is not a tree or the coloring does not use exactly
/// `k = query.num_nodes()` colors.
pub fn count_colorful_treelet(graph: &CsrGraph, coloring: &Coloring, query: &QueryGraph) -> Count {
    assert!(is_tree(query), "treelet counting requires a tree query");
    assert_eq!(coloring.num_colors(), query.num_nodes());
    assert_eq!(coloring.num_vertices(), graph.num_vertices());
    let k = query.num_nodes();
    if k == 1 {
        return graph.num_vertices() as Count;
    }

    // Root the query at node 0 and compute a post-order over the tree.
    let root: QueryNode = 0;
    let mut parent: Vec<Option<QueryNode>> = vec![None; k];
    let mut order: Vec<QueryNode> = Vec::with_capacity(k);
    let mut stack = vec![root];
    let mut seen = vec![false; k];
    seen[root as usize] = true;
    while let Some(a) = stack.pop() {
        order.push(a);
        for b in query.neighbors(a) {
            if !seen[b as usize] {
                seen[b as usize] = true;
                parent[b as usize] = Some(a);
                stack.push(b);
            }
        }
    }
    debug_assert_eq!(order.len(), k, "tree queries are connected");

    // tables[q][v] : list of (signature, count) for the subtree rooted at q
    // with q mapped to v.
    let mut tables: Vec<HashMap<VertexId, Vec<(Signature, Count)>>> = vec![HashMap::new(); k];

    // Process in reverse DFS discovery order → children before parents.
    for &q in order.iter().rev() {
        let children: Vec<QueryNode> = query
            .neighbors(q)
            .filter(|&c| parent[c as usize] == Some(q))
            .collect();
        let mut table: HashMap<VertexId, Vec<(Signature, Count)>> = HashMap::new();
        for v in graph.vertices() {
            let base_sig = Signature::singleton(coloring.color(v));
            // Start with the single mapping q -> v.
            let mut acc: Vec<(Signature, Count)> = vec![(base_sig, 1)];
            for &c in &children {
                let child_table = &tables[c as usize];
                let mut next: HashMap<Signature, Count> = HashMap::new();
                for &(sig, count) in &acc {
                    for &w in graph.neighbors(v) {
                        let Some(entries) = child_table.get(&w) else {
                            continue;
                        };
                        for &(child_sig, child_count) in entries {
                            if !sig.is_disjoint(child_sig) {
                                continue;
                            }
                            *next.entry(sig.union(child_sig)).or_insert(0) += count * child_count;
                        }
                    }
                }
                acc = next.into_iter().collect();
                if acc.is_empty() {
                    break;
                }
            }
            if !acc.is_empty() {
                table.insert(v, acc);
            }
        }
        tables[q as usize] = table;
    }

    tables[root as usize]
        .values()
        .flatten()
        .map(|&(sig, count)| {
            debug_assert_eq!(sig.len() as usize, k);
            count
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_counting::core::brute::count_colorful_matches;
    use subgraph_counting::core::Engine;
    use subgraph_counting::graph::GraphBuilder;
    use subgraph_counting::query::catalog;

    fn sample_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(9);
        b.extend_edges([
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (0, 4),
            (4, 5),
            (5, 6),
            (6, 2),
            (7, 1),
            (7, 5),
            (8, 0),
            (8, 6),
        ]);
        b.build()
    }

    #[test]
    fn matches_brute_force_on_paths_and_stars() {
        let g = sample_graph();
        for query in [catalog::path(3), catalog::path(4), catalog::star(3)] {
            for seed in 0..4 {
                let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), seed);
                let dp = count_colorful_treelet(&g, &coloring, &query);
                let brute = count_colorful_matches(&g, &query, &coloring);
                assert_eq!(
                    dp,
                    brute,
                    "query with {} nodes, seed {seed}",
                    query.num_nodes()
                );
            }
        }
    }

    #[test]
    fn matches_general_pipeline_on_tree_queries() {
        let g = sample_graph();
        let query = catalog::binary_tree(3);
        let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), 42);
        let dp = count_colorful_treelet(&g, &coloring, &query);
        let general = Engine::new(&g)
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap();
        assert_eq!(dp, general.colorful_matches);
    }

    #[test]
    fn single_node_tree() {
        let g = sample_graph();
        let coloring = Coloring::from_colors(vec![0; 9], 1);
        assert_eq!(
            count_colorful_treelet(&g, &coloring, &QueryGraph::new(1)),
            9
        );
    }

    #[test]
    #[should_panic]
    fn rejects_cyclic_queries() {
        let g = sample_graph();
        let coloring = Coloring::random(9, 3, 0);
        let _ = count_colorful_treelet(&g, &coloring, &catalog::triangle());
    }
}
