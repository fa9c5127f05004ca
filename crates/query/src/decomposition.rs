//! Decomposition-tree construction (Section 4.1 of the paper).
//!
//! The construction repeatedly finds a *block* in the (progressively
//! contracted) query — a leaf edge or a contractible cycle — removes it, and
//! leaves an annotation behind:
//!
//! * **Case 1** — cycle with one boundary node `a`: remove the cycle except
//!   `a`, erase any annotation on `a`, annotate `a` with the new block.
//! * **Case 2** — cycle with two boundary nodes `a, b`: remove the cycle
//!   except `a` and `b`, add the (virtual) edge `(a, b)` annotated with the
//!   new block, erase the annotations on `a` and `b`.
//! * **Case 3** — leaf edge `(a, b)`: remove `b` and the edge, erase any
//!   annotation on `a`, annotate `a` with the new block.
//!
//! A block inherits the annotations its nodes and edges carried before the
//! contraction; the inherited blocks become its children. The process
//! terminates when at most one node remains; a cycle spanning the entire
//! remaining query (zero boundary nodes) is contracted directly to the root.

use crate::block::{Block, BlockId, BlockKind};
use crate::error::QueryError;
use crate::graph::{QueryGraph, QueryNode};
use crate::treewidth::treewidth_at_most_two;
use std::collections::BTreeMap;

/// A fully constructed decomposition tree for a query graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecompositionTree {
    /// The query this tree decomposes.
    pub query: QueryGraph,
    /// Blocks in construction (bottom-up) order: children precede parents.
    pub blocks: Vec<Block>,
    /// The root block. `None` only for single-node queries, which have no
    /// blocks at all.
    pub root: Option<BlockId>,
}

/// A block that could be contracted next, as found by the contraction
/// state's candidate scan (`Contracted::candidates`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CandidateBlock {
    /// The structural kind (leaf edge or cycle in cyclic order).
    pub kind: BlockKind,
    /// Its boundary nodes in the current contracted query (0, 1 or 2).
    pub boundary: Vec<QueryNode>,
}

impl DecompositionTree {
    /// Nodes of the subquery `SQ(B)` represented by `block`: the block's own
    /// nodes plus all nodes of its descendant blocks.
    pub fn subquery_nodes(&self, block: BlockId) -> Vec<QueryNode> {
        let mut mask = 0u128;
        let mut stack = vec![block];
        while let Some(b) = stack.pop() {
            for node in self.blocks[b].kind.nodes() {
                mask |= 1u128 << node;
            }
            stack.extend(self.blocks[b].children());
        }
        (0..128u8).filter(|&n| (mask >> n) & 1 == 1).collect()
    }

    /// Longest cycle length over all blocks (0 if the query is a tree).
    pub fn longest_cycle(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.cycle_length())
            .max()
            .unwrap_or(0)
    }

    /// Total number of boundary nodes across blocks.
    pub fn total_boundary_nodes(&self) -> usize {
        self.blocks.iter().map(|b| b.boundary.len()).sum()
    }

    /// Total number of node/edge annotations across blocks.
    pub fn total_annotations(&self) -> usize {
        self.blocks.iter().map(|b| b.annotation_count()).sum()
    }

    /// A canonical textual signature of the tree, used to deduplicate plans
    /// produced by different contraction orders.
    pub fn signature(&self) -> String {
        match self.root {
            None => "<empty>".to_string(),
            Some(root) => self.block_signature(root),
        }
    }

    fn block_signature(&self, id: BlockId) -> String {
        let b = &self.blocks[id];
        let kind = match &b.kind {
            BlockKind::LeafEdge { boundary, leaf } => format!("L({boundary},{leaf})"),
            BlockKind::Cycle { nodes } => format!(
                "C({})",
                nodes
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        };
        let mut child_sigs: Vec<String> = b
            .node_annotations
            .iter()
            .map(|&(n, c)| format!("n{n}:{}", self.block_signature(c)))
            .chain(
                b.edge_annotations
                    .iter()
                    .map(|&(e, c)| format!("e{e}:{}", self.block_signature(c))),
            )
            .collect();
        child_sigs.sort();
        format!(
            "{kind}[b:{}]{{{}}}",
            b.boundary
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(","),
            child_sigs.join(";")
        )
    }

    /// Structural sanity checks used by tests:
    ///
    /// * every query node appears in at least one block,
    /// * every query edge appears exactly once as an un-annotated block edge,
    /// * every annotated block edge is a virtual edge (not a query edge covered
    ///   elsewhere),
    /// * the boundary recorded for each block equals the set of `SQ(B)` nodes
    ///   with query edges leaving `SQ(B)`,
    /// * children have smaller ids than their parents and each non-root block
    ///   is referenced exactly once as a child.
    pub fn verify(&self) -> Result<(), String> {
        let q = &self.query;
        if self.root.is_none() {
            return if q.num_nodes() <= 1 {
                Ok(())
            } else {
                Err("missing root for multi-node query".into())
            };
        }
        let mut node_cover = vec![false; q.num_nodes()];
        let mut edge_cover: BTreeMap<(QueryNode, QueryNode), usize> = BTreeMap::new();
        let mut child_refs = vec![0usize; self.blocks.len()];
        for b in &self.blocks {
            for n in b.kind.nodes() {
                node_cover[n as usize] = true;
            }
            for (idx, (x, y)) in b.kind.edges().into_iter().enumerate() {
                let key = if x < y { (x, y) } else { (y, x) };
                if b.edge_annotation(idx).is_none() {
                    *edge_cover.entry(key).or_insert(0) += 1;
                    if !q.has_edge(x, y) {
                        return Err(format!("block {} claims non-existent edge {key:?}", b.id));
                    }
                }
            }
            for c in b.children() {
                if c >= b.id {
                    return Err(format!("block {} has child {c} with non-smaller id", b.id));
                }
                child_refs[c] += 1;
            }
        }
        if let Some(missing) = node_cover.iter().position(|&c| !c) {
            return Err(format!("query node {missing} not covered by any block"));
        }
        for (a, b) in q.edges() {
            match edge_cover.get(&(a, b)) {
                Some(1) => {}
                Some(c) => return Err(format!("edge ({a},{b}) covered {c} times")),
                None => return Err(format!("edge ({a},{b}) not covered")),
            }
        }
        let root = self.root.unwrap();
        for b in &self.blocks {
            let expected = child_refs[b.id];
            if b.id == root {
                if expected != 0 {
                    return Err("root referenced as a child".into());
                }
            } else if expected != 1 {
                return Err(format!(
                    "block {} referenced {expected} times as child",
                    b.id
                ));
            }
        }
        // Boundary consistency with the subqueries.
        for b in &self.blocks {
            let sq = self.subquery_nodes(b.id);
            let mut sq_mask = 0u128;
            for &n in &sq {
                sq_mask |= 1u128 << n;
            }
            let mut expected: Vec<QueryNode> = sq
                .iter()
                .copied()
                .filter(|&n| q.neighbor_mask(n) & !sq_mask != 0)
                .collect();
            expected.sort_unstable();
            let mut actual = b.boundary.clone();
            actual.sort_unstable();
            if actual != expected {
                return Err(format!(
                    "block {} boundary {actual:?} does not match subquery boundary {expected:?}",
                    b.id
                ));
            }
        }
        Ok(())
    }
}

/// The mutable contracted-query state used during construction.
///
/// Exposed crate-internally so that the plan enumerator can branch on every
/// candidate block rather than greedily taking the first one.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Contracted {
    num_nodes: usize,
    alive: u128,
    /// Current adjacency, including virtual edges added by Case 2.
    adj: Vec<u128>,
    node_ann: Vec<Option<BlockId>>,
    edge_ann: BTreeMap<(QueryNode, QueryNode), BlockId>,
}

impl Contracted {
    pub(crate) fn new(query: &QueryGraph) -> Self {
        let n = query.num_nodes();
        Contracted {
            num_nodes: n,
            alive: if n == 0 {
                0
            } else if n == 128 {
                u128::MAX
            } else {
                (1u128 << n) - 1
            },
            adj: (0..n as QueryNode)
                .map(|a| query.neighbor_mask(a))
                .collect(),
            node_ann: vec![None; n],
            edge_ann: BTreeMap::new(),
        }
    }

    pub(crate) fn alive_count(&self) -> usize {
        self.alive.count_ones() as usize
    }

    fn degree(&self, a: QueryNode) -> usize {
        self.adj[a as usize].count_ones() as usize
    }

    fn alive_nodes(&self) -> impl Iterator<Item = QueryNode> + '_ {
        (0..self.num_nodes as QueryNode).filter(|&a| (self.alive >> a) & 1 == 1)
    }

    /// All blocks that could be contracted next: leaf edges and contractible
    /// cycles. Cycles are returned in a canonical orientation (smallest node
    /// first, smaller neighbor second).
    pub(crate) fn candidates(&self) -> Vec<CandidateBlock> {
        let mut out = Vec::new();
        // Leaf edges.
        for b in self.alive_nodes() {
            if self.degree(b) == 1 {
                let a = self.adj[b as usize].trailing_zeros() as QueryNode;
                // When only two nodes remain both have degree one; emit a
                // single orientation to avoid duplicate plans.
                if self.degree(a) == 1 && a > b {
                    continue;
                }
                out.push(CandidateBlock {
                    kind: BlockKind::LeafEdge {
                        boundary: a,
                        leaf: b,
                    },
                    boundary: if self.degree(a) == 1 { vec![] } else { vec![a] },
                });
            }
        }
        // Contractible cycles.
        for cycle in self.enumerate_cycles() {
            if !self.cycle_is_induced(&cycle) {
                continue;
            }
            let boundary = self.cycle_boundary(&cycle);
            if boundary.len() <= 2 {
                out.push(CandidateBlock {
                    kind: BlockKind::Cycle { nodes: cycle },
                    boundary,
                });
            }
        }
        out
    }

    /// Enumerates every simple cycle of the contracted query exactly once,
    /// as a node list in cyclic order starting from the cycle's smallest node.
    fn enumerate_cycles(&self) -> Vec<Vec<QueryNode>> {
        let mut cycles = Vec::new();
        let mut path: Vec<QueryNode> = Vec::new();
        for s in self.alive_nodes() {
            path.clear();
            path.push(s);
            self.cycle_dfs(s, s, &mut path, &mut cycles);
        }
        cycles
    }

    fn cycle_dfs(
        &self,
        start: QueryNode,
        current: QueryNode,
        path: &mut Vec<QueryNode>,
        cycles: &mut Vec<Vec<QueryNode>>,
    ) {
        for next in self.alive_nodes() {
            if !self.has_edge(current, next) {
                continue;
            }
            if next == start && path.len() >= 3 {
                // Close the cycle; report each cycle once by requiring the
                // second node to be smaller than the last node.
                if path[1] < *path.last().unwrap() {
                    cycles.push(path.clone());
                }
                continue;
            }
            // Only extend with nodes larger than the start (canonical minimum)
            // that are not already on the path.
            if next <= start || path.contains(&next) {
                continue;
            }
            path.push(next);
            self.cycle_dfs(start, next, path, cycles);
            path.pop();
        }
    }

    fn has_edge(&self, a: QueryNode, b: QueryNode) -> bool {
        (self.adj[a as usize] >> b) & 1 == 1
    }

    /// A cycle is induced when no chord connects two non-consecutive cycle nodes.
    fn cycle_is_induced(&self, cycle: &[QueryNode]) -> bool {
        let l = cycle.len();
        for i in 0..l {
            for j in (i + 1)..l {
                let consecutive = j == i + 1 || (i == 0 && j == l - 1);
                if !consecutive && self.has_edge(cycle[i], cycle[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Boundary nodes of a cycle: cycle nodes adjacent to a node outside the cycle.
    fn cycle_boundary(&self, cycle: &[QueryNode]) -> Vec<QueryNode> {
        let mut cycle_mask = 0u128;
        for &n in cycle {
            cycle_mask |= 1u128 << n;
        }
        cycle
            .iter()
            .copied()
            .filter(|&n| self.adj[n as usize] & !cycle_mask != 0)
            .collect()
    }

    /// Contracts `candidate`, appending the new block to `blocks` and
    /// returning its id.
    pub(crate) fn contract(
        &mut self,
        candidate: &CandidateBlock,
        blocks: &mut Vec<Block>,
    ) -> BlockId {
        let id = blocks.len();
        // Inherit annotations from nodes and edges of the block.
        let mut node_annotations = Vec::new();
        for node in candidate.kind.nodes() {
            if let Some(child) = self.node_ann[node as usize] {
                node_annotations.push((node, child));
            }
        }
        let mut edge_annotations = Vec::new();
        for (idx, (x, y)) in candidate.kind.edges().into_iter().enumerate() {
            let key = if x < y { (x, y) } else { (y, x) };
            if let Some(&child) = self.edge_ann.get(&key) {
                edge_annotations.push((idx, child));
            }
        }
        blocks.push(Block {
            id,
            kind: candidate.kind.clone(),
            boundary: candidate.boundary.clone(),
            node_annotations,
            edge_annotations,
        });

        // Apply the contraction to the query.
        match &candidate.kind {
            BlockKind::LeafEdge {
                boundary: a,
                leaf: b,
            } => {
                self.remove_edge(*a, *b);
                self.remove_node(*b);
                // Degenerate final step: both endpoints were leaves.
                if candidate.boundary.is_empty() {
                    self.remove_node(*a);
                } else {
                    self.node_ann[*a as usize] = Some(id);
                }
            }
            BlockKind::Cycle { nodes } => {
                let l = nodes.len();
                for i in 0..l {
                    self.remove_edge(nodes[i], nodes[(i + 1) % l]);
                }
                for &n in nodes {
                    if !candidate.boundary.contains(&n) {
                        self.remove_node(n);
                    }
                }
                match candidate.boundary.as_slice() {
                    [] => {
                        for &n in nodes {
                            self.remove_node(n);
                        }
                    }
                    [a] => {
                        self.node_ann[*a as usize] = Some(id);
                    }
                    [a, b] => {
                        self.node_ann[*a as usize] = None;
                        self.node_ann[*b as usize] = None;
                        self.add_edge(*a, *b);
                        let key = if a < b { (*a, *b) } else { (*b, *a) };
                        self.edge_ann.insert(key, id);
                    }
                    other => unreachable!("cycle with {} boundary nodes", other.len()),
                }
            }
        }
        id
    }

    fn remove_edge(&mut self, a: QueryNode, b: QueryNode) {
        self.adj[a as usize] &= !(1u128 << b);
        self.adj[b as usize] &= !(1u128 << a);
        let key = if a < b { (a, b) } else { (b, a) };
        self.edge_ann.remove(&key);
    }

    fn add_edge(&mut self, a: QueryNode, b: QueryNode) {
        self.adj[a as usize] |= 1u128 << b;
        self.adj[b as usize] |= 1u128 << a;
    }

    fn remove_node(&mut self, a: QueryNode) {
        debug_assert_eq!(self.adj[a as usize], 0, "removing node {a} with live edges");
        self.alive &= !(1u128 << a);
        self.node_ann[a as usize] = None;
    }

    /// When the contraction loop has finished, returns the root block id.
    pub(crate) fn finish(&self, blocks: &[Block]) -> Result<Option<BlockId>, QueryError> {
        match self.alive_count() {
            0 => Ok(Some(blocks.len() - 1)),
            1 => {
                let node = self.alive_nodes().next().unwrap();
                match self.node_ann[node as usize] {
                    Some(b) => Ok(Some(b)),
                    // A single never-annotated node means the original query
                    // was a single node.
                    None if blocks.is_empty() => Ok(None),
                    None => Err(QueryError::NoBlockFound),
                }
            }
            _ => Err(QueryError::NoBlockFound),
        }
    }

    /// A canonical key of the current state (alive set, adjacency, annotations
    /// by child-block signature) used by the plan enumerator to merge
    /// contraction orders that reach the same state.
    pub(crate) fn canonical_key(
        &self,
        blocks: &[Block],
        tree_sig: &dyn Fn(BlockId) -> String,
    ) -> String {
        let _ = blocks;
        let mut parts = vec![format!("alive:{:032x}", self.alive)];
        for a in self.alive_nodes() {
            parts.push(format!("adj{}:{:032x}", a, self.adj[a as usize]));
            if let Some(b) = self.node_ann[a as usize] {
                parts.push(format!("na{}:{}", a, tree_sig(b)));
            }
        }
        for (&(x, y), &b) in &self.edge_ann {
            parts.push(format!("ea{}-{}:{}", x, y, tree_sig(b)));
        }
        parts.join("|")
    }
}

/// Builds a decomposition tree for `query` by greedily contracting the first
/// candidate block found at each step (leaf edges before cycles, smaller
/// blocks first). Use [`crate::plan::heuristic_plan`] for the paper's
/// plan-selection heuristic or [`crate::plan::enumerate_plans`] for all trees.
///
/// Returns an error if the query is empty, disconnected or has treewidth
/// greater than two.
pub fn decompose(query: &QueryGraph) -> Result<DecompositionTree, QueryError> {
    query.validate()?;
    if !treewidth_at_most_two(query) {
        return Err(QueryError::TreewidthExceeded);
    }
    let mut state = Contracted::new(query);
    let mut blocks = Vec::new();
    while state.alive_count() > 1 {
        let mut candidates = state.candidates();
        if candidates.is_empty() {
            return Err(QueryError::NoBlockFound);
        }
        // Deterministic order: leaf edges first, then shorter cycles.
        candidates.sort_by_key(|c| (c.kind.is_cycle(), c.kind.len(), c.kind.nodes()));
        state.contract(&candidates[0], &mut blocks);
    }
    let root = state.finish(&blocks)?;
    Ok(DecompositionTree {
        query: query.clone(),
        blocks,
        root,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn cycle_query(n: usize) -> QueryGraph {
        let mut q = QueryGraph::new(n);
        for i in 0..n {
            q.add_edge(i as QueryNode, ((i + 1) % n) as QueryNode)
                .unwrap();
        }
        q
    }

    fn path_query(n: usize) -> QueryGraph {
        let mut q = QueryGraph::new(n);
        for i in 1..n {
            q.add_edge((i - 1) as QueryNode, i as QueryNode).unwrap();
        }
        q
    }

    /// The paper's Satellite query (Figure 2): an 11-node query with a
    /// 5-cycle, two triangles and a pendant edge.
    pub(crate) fn satellite() -> QueryGraph {
        // a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10
        QueryGraph::from_edges(
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
                (5, 7),  // leaf f-h
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_edge_decomposes_to_one_leaf_block() {
        let q = QueryGraph::from_edges(2, &[(0, 1)]).unwrap();
        let t = decompose(&q).unwrap();
        assert_eq!(t.blocks.len(), 1);
        assert!(matches!(t.blocks[0].kind, BlockKind::LeafEdge { .. }));
        assert_eq!(t.root, Some(0));
        t.verify().unwrap();
    }

    #[test]
    fn path_decomposes_into_leaf_edges() {
        let t = decompose(&path_query(5)).unwrap();
        assert_eq!(t.blocks.len(), 4);
        assert!(t.blocks.iter().all(|b| !b.kind.is_cycle()));
        assert_eq!(t.longest_cycle(), 0);
        t.verify().unwrap();
    }

    #[test]
    fn pure_cycle_is_a_single_root_block() {
        for n in 3..9 {
            let t = decompose(&cycle_query(n)).unwrap();
            assert_eq!(t.blocks.len(), 1, "C_{n}");
            assert_eq!(t.blocks[0].cycle_length(), n);
            assert!(t.blocks[0].boundary.is_empty());
            t.verify().unwrap();
        }
    }

    #[test]
    fn triangle_with_pendant() {
        let q = QueryGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap();
        let t = decompose(&q).unwrap();
        t.verify().unwrap();
        assert_eq!(t.blocks.len(), 2);
        assert_eq!(t.longest_cycle(), 3);
        // Root must represent the whole query.
        let root = t.root.unwrap();
        assert_eq!(t.subquery_nodes(root).len(), 4);
    }

    #[test]
    fn satellite_decomposes_and_verifies() {
        let q = satellite();
        let t = decompose(&q).unwrap();
        t.verify().unwrap();
        // Expect the blocks of Figure 2: 5-cycle, leaf edge, 4-cycle,
        // triangle (i,j,k), and the root triangle — five blocks in total.
        assert_eq!(t.blocks.len(), 5);
        assert_eq!(t.longest_cycle(), 5);
        let root = t.root.unwrap();
        assert_eq!(t.subquery_nodes(root).len(), 11);
    }

    #[test]
    fn k4_is_rejected() {
        let mut q = QueryGraph::new(4);
        for a in 0..4u8 {
            for b in (a + 1)..4 {
                q.add_edge(a, b).unwrap();
            }
        }
        assert_eq!(decompose(&q), Err(QueryError::TreewidthExceeded));
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let mut q = QueryGraph::new(4);
        q.add_edge(0, 1).unwrap();
        q.add_edge(2, 3).unwrap();
        assert_eq!(decompose(&q), Err(QueryError::Disconnected));
    }

    #[test]
    fn single_node_query_has_no_blocks() {
        let t = decompose(&QueryGraph::new(1)).unwrap();
        assert!(t.blocks.is_empty());
        assert_eq!(t.root, None);
        t.verify().unwrap();
    }

    #[test]
    fn children_precede_parents() {
        let t = decompose(&satellite()).unwrap();
        for b in &t.blocks {
            for c in b.children() {
                assert!(c < b.id);
            }
        }
    }

    #[test]
    fn bowtie_two_triangles_sharing_a_node() {
        let q =
            QueryGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]).unwrap();
        let t = decompose(&q).unwrap();
        t.verify().unwrap();
        assert_eq!(t.blocks.len(), 2);
        assert!(t.blocks.iter().all(|b| b.cycle_length() == 3));
    }

    #[test]
    fn house_query_fused_square_and_triangle() {
        // 4-cycle 0-1-2-3 plus apex 4 connected to 2 and 3 (sharing edge 2-3).
        let q =
            QueryGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 3)]).unwrap();
        let t = decompose(&q).unwrap();
        t.verify().unwrap();
        assert_eq!(t.blocks.len(), 2);
        let root = t.root.unwrap();
        assert_eq!(t.subquery_nodes(root).len(), 5);
    }
}
