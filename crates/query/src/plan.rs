//! Plan enumeration and the plan-selection heuristic (Section 6).
//!
//! A query usually admits several decomposition trees, and the paper reports
//! up to a 13× runtime difference between the best and worst tree for the
//! same graph-query pair. Section 6 observes that the tree can be chosen by
//! looking only at the query. [`heuristic_plan`] keeps that query-only
//! ranking and compares four factors in decreasing order of importance:
//!
//! 1. the length of the longest cycle block (shorter is better),
//! 2. the query nodes folded into cycle blocks (fewer is better),
//! 3. the total number of boundary nodes (fewer is better),
//! 4. the total number of node/edge annotations (fewer is better).
//!
//! Factors 1, 3 and 4 are the paper's. Factor 2 is ours: with the paper's
//! three alone the chosen plan costs up to 2.5× the cheapest plan's DB work
//! on the skewed Table 1 analogs, because they prefer plans that join
//! pendant subtrees *into* a cycle. A cycle of length `l` builds `2l` paths
//! per start tile under DB, and every child table joined into the cycle
//! multiplies the rows of each later join on every one of those paths by
//! the colour sets of the nodes it carries. The same subtree kept *above*
//! the cycle is one more chain over the cycle's projected table.
//! [`PlanCost::folded_nodes`] counts the carried nodes. It ranks above the
//! boundary count because the plans it prefers often have more boundary
//! nodes (a cycle hung off a virtual edge has two) and measured work favours
//! them anyway: the chosen plan stays within 1.2× of the cheapest on the
//! skewed analogs (DESIGN.md, "Paper shapes as tests").
//!
//! [`enumerate_plans`] produces every distinct decomposition tree (used by the
//! Figure 14 experiment to find the true optimum), and [`heuristic_plan`]
//! picks the smallest [`PlanCost`] among them.

use crate::decomposition::{decompose, Contracted, DecompositionTree};
use crate::error::QueryError;
use crate::graph::QueryGraph;
use crate::treewidth::treewidth_at_most_two;
use std::collections::HashSet;

/// The plan-cost vector [`heuristic_plan`] minimises, compared
/// lexicographically in field order (see the module doc for why).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanCost {
    /// Length of the longest cycle block.
    pub longest_cycle: usize,
    /// Query nodes whose colours child tables carry into cycle blocks: over
    /// every cycle block and every child `c` annotating it (at a node or an
    /// edge), `|SQ(c)| − |boundary(c)|`.
    pub folded_nodes: usize,
    /// Total number of boundary nodes over all blocks.
    pub boundary_nodes: usize,
    /// Total number of node and edge annotations over all blocks.
    pub annotations: usize,
}

impl PlanCost {
    /// Computes the cost vector of a decomposition tree.
    pub fn of(tree: &DecompositionTree) -> Self {
        PlanCost {
            longest_cycle: tree.longest_cycle(),
            folded_nodes: folded_nodes(tree),
            boundary_nodes: tree.total_boundary_nodes(),
            annotations: tree.total_annotations(),
        }
    }
}

/// [`PlanCost::folded_nodes`] of `tree`.
fn folded_nodes(tree: &DecompositionTree) -> usize {
    tree.blocks
        .iter()
        .filter(|block| block.kind.is_cycle())
        .flat_map(|block| block.children())
        .map(|child| tree.subquery_nodes(child).len() - tree.blocks[child].boundary.len())
        .sum()
}

/// Upper bound on the number of distinct plans the enumerator will return;
/// a safety valve for adversarial queries (the paper's 10-node queries stay
/// in the tens of plans).
pub const MAX_PLANS: usize = 20_000;

/// Enumerates every distinct decomposition tree of `query`.
///
/// Distinctness is up to the tree's structural [`DecompositionTree::signature`];
/// contraction orders that produce the same tree are merged. Returns an error
/// for invalid queries (empty, disconnected, treewidth > 2).
pub fn enumerate_plans(query: &QueryGraph) -> Result<Vec<DecompositionTree>, QueryError> {
    query.validate()?;
    if !treewidth_at_most_two(query) {
        return Err(QueryError::TreewidthExceeded);
    }
    if query.num_nodes() == 1 {
        return Ok(vec![decompose(query)?]);
    }

    let mut plans = Vec::new();
    let mut seen_plans: HashSet<String> = HashSet::new();
    let mut seen_states: HashSet<String> = HashSet::new();
    let mut stack: Vec<(Contracted, Vec<crate::block::Block>)> =
        vec![(Contracted::new(query), Vec::new())];

    while let Some((state, blocks)) = stack.pop() {
        if plans.len() >= MAX_PLANS {
            break;
        }
        if state.alive_count() <= 1 {
            if let Ok(root) = state.finish(&blocks) {
                let tree = DecompositionTree {
                    query: query.clone(),
                    blocks,
                    root,
                };
                if seen_plans.insert(tree.signature()) {
                    plans.push(tree);
                }
            }
            continue;
        }
        for candidate in state.candidates() {
            let mut next_state = state.clone();
            let mut next_blocks = blocks.clone();
            next_state.contract(&candidate, &mut next_blocks);
            // Merge contraction orders that reach an identical state: the key
            // includes the recursive structure of the blocks referenced by
            // the surviving annotations.
            let sig_tree = DecompositionTree {
                query: query.clone(),
                blocks: next_blocks.clone(),
                root: None,
            };
            let key = next_state.canonical_key(&next_blocks, &|b| sig_tree_signature(&sig_tree, b));
            // Terminal states (0 or 1 alive nodes) may erase the distinguishing
            // annotations (the root is no longer referenced anywhere), so they
            // are never merged — the final plan dedup handles duplicates there.
            if next_state.alive_count() <= 1 || seen_states.insert(key) {
                stack.push((next_state, next_blocks));
            }
        }
    }
    if plans.is_empty() {
        return Err(QueryError::NoBlockFound);
    }
    Ok(plans)
}

fn sig_tree_signature(tree: &DecompositionTree, block: crate::block::BlockId) -> String {
    // DecompositionTree::signature only reports from the root; reuse the same
    // recursive scheme starting from an arbitrary block.
    let mut t = tree.clone();
    t.root = Some(block);
    t.signature()
}

/// Selects a decomposition tree for `query` by looking only at the query:
/// enumerate plans and pick the one with the lexicographically smallest
/// [`PlanCost`] (ties broken by signature for determinism).
pub fn heuristic_plan(query: &QueryGraph) -> Result<DecompositionTree, QueryError> {
    let plans = enumerate_plans(query)?;
    Ok(plans
        .into_iter()
        .min_by_key(|t| (PlanCost::of(t), t.signature()))
        .expect("enumerate_plans returned at least one plan"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockKind};
    use crate::catalog;
    use crate::graph::QueryNode;

    /// A bare leaf edge; only a root block has no boundary node.
    fn leaf(id: usize, boundary: QueryNode, leaf: QueryNode, has_parent: bool) -> Block {
        Block {
            id,
            kind: BlockKind::LeafEdge { boundary, leaf },
            boundary: if has_parent { vec![boundary] } else { vec![] },
            node_annotations: vec![],
            edge_annotations: vec![],
        }
    }

    /// The Section 6 rule: the smallest (longest cycle, boundary nodes,
    /// annotations), ties broken by signature.
    fn section6_plan(query: &QueryGraph) -> DecompositionTree {
        enumerate_plans(query)
            .unwrap()
            .into_iter()
            .min_by_key(|t| {
                let c = PlanCost::of(t);
                (
                    (c.longest_cycle, c.boundary_nodes, c.annotations),
                    t.signature(),
                )
            })
            .unwrap()
    }

    fn cycle_query(n: usize) -> QueryGraph {
        let mut q = QueryGraph::new(n);
        for i in 0..n {
            q.add_edge(i as QueryNode, ((i + 1) % n) as QueryNode)
                .unwrap();
        }
        q
    }

    /// brain1-style query from the paper's Section 6 discussion: a 4-cycle
    /// and a 6-cycle sharing a single edge; it admits exactly two plans
    /// (contract the 4-cycle first, or the 6-cycle first).
    fn fused_cycles() -> QueryGraph {
        // 6-cycle 0-1-2-3-4-5, 4-cycle 0-1-6-7 sharing edge (0,1).
        QueryGraph::from_edges(
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
        .unwrap()
    }

    #[test]
    fn pure_cycle_has_exactly_one_plan() {
        let plans = enumerate_plans(&cycle_query(6)).unwrap();
        assert_eq!(plans.len(), 1);
    }

    #[test]
    fn fused_cycles_admit_two_plans() {
        let plans = enumerate_plans(&fused_cycles()).unwrap();
        assert_eq!(plans.len(), 2, "expected the two orders from Section 6");
        for p in &plans {
            p.verify().unwrap();
        }
        // The two plans differ in which cycle becomes the root.
        let mut root_lengths: Vec<usize> = plans
            .iter()
            .map(|p| p.blocks[p.root.unwrap()].cycle_length())
            .collect();
        root_lengths.sort_unstable();
        assert_eq!(root_lengths, vec![4, 6]);
    }

    #[test]
    fn heuristic_prefers_shorter_longest_cycle() {
        // For the fused-cycles query both plans share the same block lengths
        // {4-cycle, 6-cycle}; the heuristic must still return one of them and
        // be deterministic.
        let a = heuristic_plan(&fused_cycles()).unwrap();
        let b = heuristic_plan(&fused_cycles()).unwrap();
        assert_eq!(a.signature(), b.signature());
        a.verify().unwrap();
    }

    #[test]
    fn plan_costs_are_ordered_lexicographically() {
        let small = PlanCost {
            longest_cycle: 4,
            folded_nodes: 10,
            boundary_nodes: 10,
            annotations: 10,
        };
        let large = PlanCost {
            longest_cycle: 5,
            folded_nodes: 0,
            boundary_nodes: 0,
            annotations: 0,
        };
        assert!(small < large);
        let unfolded = PlanCost {
            folded_nodes: 0,
            ..small
        };
        let fewer_boundaries = PlanCost {
            boundary_nodes: 0,
            annotations: 0,
            ..small
        };
        assert!(unfolded < fewer_boundaries);
    }

    #[test]
    fn every_enumerated_plan_verifies() {
        let q = crate::decomposition::tests::satellite();
        let plans = enumerate_plans(&q).unwrap();
        assert!(!plans.is_empty());
        for p in &plans {
            p.verify().unwrap();
            assert_eq!(p.subquery_nodes(p.root.unwrap()).len(), 11);
        }
        // Signatures are pairwise distinct.
        let sigs: HashSet<String> = plans.iter().map(|p| p.signature()).collect();
        assert_eq!(sigs.len(), plans.len());
    }

    #[test]
    fn tree_queries_have_plans_without_cycles() {
        let mut star = QueryGraph::new(5);
        for leaf in 1..5 {
            star.add_edge(0, leaf).unwrap();
        }
        let plans = enumerate_plans(&star).unwrap();
        for p in &plans {
            assert_eq!(p.longest_cycle(), 0);
            p.verify().unwrap();
        }
        let best = heuristic_plan(&star).unwrap();
        assert_eq!(best.blocks.len(), 4);
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let mut k4 = QueryGraph::new(4);
        for a in 0..4u8 {
            for b in (a + 1)..4 {
                k4.add_edge(a, b).unwrap();
            }
        }
        assert_eq!(enumerate_plans(&k4), Err(QueryError::TreewidthExceeded));
        assert_eq!(heuristic_plan(&QueryGraph::new(0)), Err(QueryError::Empty));
    }

    #[test]
    fn folded_nodes_count_what_children_carry_into_cycles() {
        let triangle = |boundary: Vec<QueryNode>, node_annotations| Block {
            id: 3,
            kind: BlockKind::Cycle {
                nodes: vec![0, 1, 2],
            },
            boundary,
            node_annotations,
            edge_annotations: vec![],
        };
        // wiki with the bare triangle as root: each pendant's leaf edge
        // carries its one non-boundary node into the cycle.
        let wiki = DecompositionTree {
            query: catalog::wiki(),
            blocks: vec![
                leaf(0, 0, 3, true),
                leaf(1, 1, 4, true),
                leaf(2, 2, 5, true),
                triangle(vec![], vec![(0, 0), (1, 1), (2, 2)]),
            ],
            root: Some(3),
        };
        wiki.verify().unwrap();
        assert_eq!(PlanCost::of(&wiki).folded_nodes, 3);
        // Keeping the pendant at 2 above the triangle folds one node fewer.
        let kept = DecompositionTree {
            query: catalog::wiki(),
            blocks: vec![
                leaf(0, 0, 3, true),
                leaf(1, 1, 4, true),
                Block {
                    id: 2,
                    ..triangle(vec![2], vec![(0, 0), (1, 1)])
                },
                Block {
                    id: 3,
                    node_annotations: vec![(2, 2)],
                    ..leaf(3, 2, 5, false)
                },
            ],
            root: Some(3),
        };
        kept.verify().unwrap();
        assert_eq!(PlanCost::of(&kept).folded_nodes, 2);

        // dros with the 4-cycle as the edge annotation of a virtual edge
        // (0, 2): the cycle has no children, so nothing is folded.
        let dros = DecompositionTree {
            query: catalog::dros(),
            blocks: vec![
                Block {
                    id: 0,
                    kind: BlockKind::Cycle {
                        nodes: vec![0, 1, 2, 3],
                    },
                    boundary: vec![0, 2],
                    node_annotations: vec![],
                    edge_annotations: vec![],
                },
                leaf(1, 2, 5, true),
                Block {
                    id: 2,
                    node_annotations: vec![(2, 1)],
                    edge_annotations: vec![(0, 0)],
                    ..leaf(2, 0, 2, true)
                },
                Block {
                    id: 3,
                    node_annotations: vec![(0, 2)],
                    ..leaf(3, 0, 4, false)
                },
            ],
            root: Some(3),
        };
        dros.verify().unwrap();
        assert_eq!(PlanCost::of(&dros).folded_nodes, 0);
        let chosen = heuristic_plan(&catalog::dros()).unwrap();
        assert_eq!(PlanCost::of(&chosen).folded_nodes, 0);
    }

    #[test]
    fn plans_without_folding_choices_keep_the_section6_choice() {
        // No plan folds anything (path, cycle), or the plan folding the
        // fewest nodes is the one Section 6 already picks (glet1, brain1).
        for query in [
            catalog::path(4),
            catalog::cycle(5),
            catalog::glet1(),
            catalog::brain1(),
        ] {
            assert_eq!(
                heuristic_plan(&query).unwrap().signature(),
                section6_plan(&query).signature(),
                "{query}"
            );
        }
    }
}
