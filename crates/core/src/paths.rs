//! The join-side view of a block: child-table indexes and edge realizations.
//!
//! Both the PS and the DB algorithm reduce a cycle block to two path
//! segments, build a table for each by a sequence of joins, and merge the two
//! tables (Figures 4, 6 and 7). The joins themselves — the **initial edge**,
//! **EdgeJoin** and **NodeJoin** — live in [`crate::kernel`]; this module
//! holds what they consult:
//!
//! * [`BlockJoinIndex`] — the block's child projection tables, pre-grouped by
//!   join key once per block and shared by every split and every shard,
//! * [`PathBuilder`] — the per-split view: which extra slot tracks which
//!   boundary node, whether the DB algorithm's *high-starting* constraint
//!   applies (the image of the path's start node must be strictly higher, in
//!   the degree ordering, than the image of every other cycle node), and how
//!   each cycle edge is realized — by the data graph's edges or by the binary
//!   projection table of the child block annotating it.

use crate::context::Context;
use sgc_engine::hash::FastMap;
use sgc_engine::{Count, ProjectionTable, Signature};
use sgc_graph::vertex::NO_VERTEX;
use sgc_graph::VertexId;
use sgc_query::{Block, DecompositionTree, QueryNode};
use std::sync::OnceLock;

/// Which key field currently holds the image of a query node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    /// The path's start vertex (key field 0).
    Start,
    /// The path's current end vertex (key field 1).
    End,
}

/// A child binary table grouped by the image of a traversal's source node:
/// source image → `(target image, signature, count)` entries.
pub(crate) type GroupedBinary = FastMap<VertexId, Vec<(VertexId, Signature, Count)>>;

/// A child unary table grouped by vertex: vertex → `(signature, count)`
/// entries.
pub(crate) type GroupedUnary = FastMap<VertexId, Vec<(Signature, Count)>>;

/// How the edge between two consecutive cycle nodes is realized.
pub(crate) enum EdgeRealization<'b> {
    /// An original query edge, realized by the data graph.
    Graph,
    /// An annotated edge, realized by the child block's binary table grouped
    /// by the image of the step's source node (borrowed from the block's
    /// [`BlockJoinIndex`]).
    Child(&'b GroupedBinary),
}

/// Pre-grouped join-side indexes of a block's child tables.
///
/// Grouping a child's projection table by its join key is independent of
/// the split being solved and of the shard doing the solving: every
/// [`PathBuilder`] of a block consults the same maps. Building the index
/// once per block — instead of once per split (DB mode solves one split per
/// candidate highest node) and once per shard (the sharded runtime fans a
/// block out over workers) — keeps that `O(child table)` pass off the
/// repeated path.
///
/// Edge orientations are grouped lazily on first use: the PS algorithm
/// traverses each cycle edge in exactly one direction (one split), so
/// eagerly building both orientations would double its grouping work and
/// memory; the DB algorithm touches both directions across its splits and
/// pays each grouping exactly once. The lazy cells are thread-safe
/// ([`OnceLock`]), so concurrent shards share one initialization.
pub struct BlockJoinIndex<'t> {
    /// The block whose child tables are indexed.
    block: &'t Block,
    /// Tables of already-solved blocks, indexed by block id (the lazy
    /// grouping closures read the annotating children from here).
    child_tables: &'t [Option<ProjectionTable>],
    /// `(edge_index, from_is_first)` → the child binary table grouped by
    /// the image of the traversal's source node, listing
    /// `(target image, signature, count)`; grouped on first use.
    edge_groups: FastMap<(usize, bool), OnceLock<GroupedBinary>>,
    /// Annotated node → the child unary table grouped by vertex.
    node_groups: FastMap<QueryNode, GroupedUnary>,
}

impl<'t> BlockJoinIndex<'t> {
    /// Prepares the index for `block`. `child_tables` must already hold the
    /// tables of all of `block`'s children. Node groupings are built here
    /// (every split consults them); edge orientations are grouped on first
    /// use.
    pub fn build(block: &'t Block, child_tables: &'t [Option<ProjectionTable>]) -> Self {
        let mut edge_groups: FastMap<(usize, bool), OnceLock<GroupedBinary>> = FastMap::default();
        for &(edge_index, _) in &block.edge_annotations {
            edge_groups.insert((edge_index, true), OnceLock::new());
            edge_groups.insert((edge_index, false), OnceLock::new());
        }
        let mut node_groups: FastMap<QueryNode, GroupedUnary> = FastMap::default();
        for &(node, child) in &block.node_annotations {
            let unary = child_tables[child]
                .as_ref()
                .expect("child table must be solved before its parent")
                .as_unary()
                .expect("node annotations correspond to unary child tables");
            node_groups.insert(node, unary.group_by_vertex());
        }
        BlockJoinIndex {
            block,
            child_tables,
            edge_groups,
            node_groups,
        }
    }

    /// The child table of annotated edge `edge_index`, grouped by the image
    /// of the traversal's source node (`from_is_first`: whether the source
    /// is the child's first boundary node). Grouped once, on first request.
    fn edge_group(&self, edge_index: usize, from_is_first: bool) -> &GroupedBinary {
        self.edge_groups[&(edge_index, from_is_first)].get_or_init(|| {
            let child = self
                .block
                .edge_annotation(edge_index)
                .expect("edge group cells exist only for annotated edges");
            let binary = self.child_tables[child]
                .as_ref()
                .expect("child table must be solved before its parent")
                .as_binary()
                .expect("edge annotations correspond to binary child tables");
            let mut grouped = GroupedBinary::default();
            for (key, &count) in binary.iter() {
                let (u, v) = if from_is_first {
                    (key.u, key.v)
                } else {
                    (key.v, key.u)
                };
                grouped.entry(u).or_default().push((v, key.sig, count));
            }
            grouped
        })
    }
}

/// The per-split view of one cycle (or leaf-edge) block that the kernel's
/// joins consult.
pub struct PathBuilder<'a, 'b> {
    /// Shared run context.
    pub ctx: &'b Context<'a>,
    /// The decomposition tree the block belongs to.
    pub tree: &'b DecompositionTree,
    /// The block being solved.
    pub block: &'b Block,
    /// Pre-grouped join-side indexes of the block's child tables.
    pub index: &'b BlockJoinIndex<'b>,
    /// Boundary node tracked in each extra slot (`None` when unused).
    pub slot_nodes: [Option<QueryNode>; 2],
    /// DB mode: require `start ≻ w` for every newly mapped cycle node `w`.
    pub high_start: bool,
}

impl<'a, 'b> PathBuilder<'a, 'b> {
    /// Creates a builder for `block`, assigning extra slots to its boundary
    /// nodes in boundary order.
    pub fn new(
        ctx: &'b Context<'a>,
        tree: &'b DecompositionTree,
        block: &'b Block,
        index: &'b BlockJoinIndex<'b>,
        high_start: bool,
    ) -> Self {
        let mut slot_nodes = [None, None];
        for (i, &b) in block.boundary.iter().enumerate() {
            slot_nodes[i] = Some(b);
        }
        PathBuilder {
            ctx,
            tree,
            block,
            index,
            slot_nodes,
            high_start,
        }
    }

    /// The extra-slot index tracking `node`, if it is a boundary node.
    pub(crate) fn slot_of(&self, node: QueryNode) -> Option<usize> {
        self.slot_nodes.iter().position(|&s| s == Some(node))
    }

    /// The unary table of the child block annotating `node`, if any,
    /// pre-grouped by vertex in the block index.
    pub(crate) fn node_child(&self, node: QueryNode) -> Option<&'b GroupedUnary> {
        self.index.node_groups.get(&node)
    }

    /// The realization of the block edge `edge_index` traversed from
    /// `from_node` to `to_node`: the data graph for an original query edge,
    /// the pre-grouped child table (oriented so the group key is the image
    /// of `from_node`) for an annotated edge.
    pub(crate) fn edge_realization(
        &self,
        edge_index: usize,
        from_node: QueryNode,
        to_node: QueryNode,
    ) -> EdgeRealization<'b> {
        match self.block.edge_annotation(edge_index) {
            None => EdgeRealization::Graph,
            Some(child) => {
                let child_block = &self.tree.blocks[child];
                debug_assert_eq!(child_block.boundary.len(), 2);
                let from_is_first = child_block.boundary[0] == from_node;
                debug_assert_eq!(
                    if from_is_first {
                        (from_node, to_node)
                    } else {
                        (to_node, from_node)
                    },
                    (child_block.boundary[0], child_block.boundary[1]),
                    "child boundary must match the traversed edge"
                );
                EdgeRealization::Child(self.index.edge_group(edge_index, from_is_first))
            }
        }
    }

    /// Block nodes in cyclic order (for a leaf edge, the two endpoints).
    pub(crate) fn cycle_nodes(&self) -> Vec<QueryNode> {
        self.block.kind.nodes()
    }

    /// The block edge index connecting positions `i` and `j` (which must be
    /// adjacent on the cycle, or the single edge of a leaf block).
    pub(crate) fn edge_index_between(&self, i: usize, j: usize) -> usize {
        let l = self.block.kind.len();
        if l == 2 {
            return 0;
        }
        if (i + 1) % l == j {
            i
        } else {
            debug_assert_eq!((j + 1) % l, i, "positions {i} and {j} are not adjacent");
            j
        }
    }
}

/// A defensive check used by the path-merge step: extras recorded on both
/// sides for the same slot must agree (they can only both be set when the
/// tracked node is one of the shared endpoints).
pub fn combine_extras(a: [VertexId; 2], b: [VertexId; 2]) -> Option<[VertexId; 2]> {
    let mut out = [NO_VERTEX, NO_VERTEX];
    for slot in 0..2 {
        out[slot] = match (a[slot], b[slot]) {
            (NO_VERTEX, x) => x,
            (x, NO_VERTEX) => x,
            (x, y) if x == y => x,
            _ => return None,
        };
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_extras_prefers_set_slots() {
        assert_eq!(combine_extras([5, NO_VERTEX], [NO_VERTEX, 9]), Some([5, 9]));
        assert_eq!(
            combine_extras([5, NO_VERTEX], [5, NO_VERTEX]),
            Some([5, NO_VERTEX])
        );
        assert_eq!(combine_extras([5, 1], [6, 1]), None);
    }
}
