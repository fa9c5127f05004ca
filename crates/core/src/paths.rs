//! The join-side view of a block: child tables and edge realizations.
//!
//! Both the PS and the DB algorithm reduce a cycle block to two path
//! segments, build a table for each by a sequence of joins, and merge the two
//! tables (Figures 4, 6 and 7). The joins themselves — the **initial edge**,
//! **EdgeJoin** and **NodeJoin** — live in [`crate::kernel`]; this module
//! holds what they consult:
//!
//! * [`BlockJoinIndex`] — the block's child projection tables, as the
//!   exchange left them (vertex-grouped owner slices, probed by offset) plus
//!   the one regrouping a join can still need: a binary child traversed from
//!   its second boundary node,
//! * [`PathBuilder`] — the per-split view: which extra slot tracks which
//!   boundary node, whether the DB algorithm's *high-starting* constraint
//!   applies (the image of the path's start node must be strictly higher, in
//!   the degree ordering, than the image of every other cycle node), and how
//!   each cycle edge is realized — by the data graph's edges or by the binary
//!   projection table of the child block annotating it.

use crate::context::Context;
use sgc_engine::{BlockTable, RowGroups};
use sgc_graph::vertex::NO_VERTEX;
use sgc_graph::VertexId;
use sgc_query::{Block, BlockId, DecompositionTree, QueryNode};
use std::mem;
use std::sync::{Mutex, OnceLock};

/// Which key field currently holds the image of a query node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    /// The path's start vertex (key field 0).
    Start,
    /// The path's current end vertex (key field 1).
    End,
}

/// How the edge between two consecutive cycle nodes is realized.
pub(crate) enum EdgeRealization<'b> {
    /// An original query edge, realized by the data graph.
    Graph,
    /// An annotated edge, realized by the child block's binary table keyed
    /// so that a row's `u` is the image of the step's source node and its
    /// `v` the image of the target.
    Child(&'b BlockTable),
}

/// The child tables of one block, as its joins probe them.
///
/// The exchange leaves every block's table grouped by the image of its first
/// boundary node: the join key of every NodeJoin and of an annotated edge
/// traversed from the child's first boundary node. An edge traversed from
/// the second one needs the table keyed the other way round. That
/// transposition depends on neither split nor shard, so it is built once per
/// block, on first use (PS traverses each cycle edge one way only and often
/// never asks), in a thread-safe cell the concurrent shard solves share.
pub struct BlockJoinIndex<'t> {
    /// The block whose child tables are indexed.
    block: &'t Block,
    /// Tables of already-solved blocks, indexed by block id.
    child_tables: &'t [Option<BlockTable>],
    /// Per entry of `block.edge_annotations`: the child's table transposed,
    /// and the retired row buffers its build takes.
    transposed: Vec<(Mutex<RowGroups>, OnceLock<BlockTable>)>,
}

impl<'t> BlockJoinIndex<'t> {
    /// Prepares the index for `block`. `child_tables` must already hold the
    /// tables of all of `block`'s children; `retired(child)` is the row
    /// buffers to build the transposed table of `child` in, should a join
    /// ask for it.
    pub fn build(
        block: &'t Block,
        child_tables: &'t [Option<BlockTable>],
        mut retired: impl FnMut(BlockId) -> RowGroups,
    ) -> Self {
        BlockJoinIndex {
            block,
            child_tables,
            transposed: (block.edge_annotations.iter())
                .map(|&(_, child)| (Mutex::new(retired(child)), OnceLock::new()))
                .collect(),
        }
    }

    /// Per annotated edge, the child and the row buffers to retire for it:
    /// those of its transposed table, or the ones no join asked to fill.
    pub fn into_retired(self) -> impl Iterator<Item = (BlockId, RowGroups)> + 't {
        let children = self.block.edge_annotations.iter().map(|&(_, child)| child);
        children
            .zip(self.transposed)
            .map(|(child, (retired, built))| {
                let rows = match built.into_inner() {
                    Some(mut table) => table.take_slice(0),
                    None => retired.into_inner().unwrap_or_default(),
                };
                (child, rows)
            })
    }

    /// The solved table of child block `child`.
    fn child_table(&self, child: BlockId) -> &'t BlockTable {
        self.child_tables[child]
            .as_ref()
            .expect("child table must be solved before its parent")
    }

    /// The child table of the block's `slot`-th annotated edge, keyed by the
    /// image of the traversal's source node (`from_is_first`: whether the
    /// source is the child's first boundary node).
    fn edge_table(&self, slot: usize, from_is_first: bool) -> &BlockTable {
        let table = self.child_table(self.block.edge_annotations[slot].1);
        if from_is_first {
            return table;
        }
        let (retired, built) = &self.transposed[slot];
        built.get_or_init(|| {
            let retired = retired.lock().map(|mut rows| mem::take(&mut *rows));
            table.transposed(retired.unwrap_or_default())
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
    /// The block's child tables.
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

    /// The unary table of the child block annotating `node`, if any.
    pub(crate) fn node_child(&self, node: QueryNode) -> Option<&'b BlockTable> {
        let child = self.block.node_annotation(node)?;
        Some(self.index.child_table(child))
    }

    /// The realization of the block edge `edge_index` traversed from
    /// `from_node` to `to_node`: the data graph for an original query edge,
    /// the child table (keyed by the image of `from_node`) for an annotated
    /// edge.
    pub(crate) fn edge_realization(
        &self,
        edge_index: usize,
        from_node: QueryNode,
        to_node: QueryNode,
    ) -> EdgeRealization<'b> {
        let annotations = &self.block.edge_annotations;
        let Some(slot) = annotations.iter().position(|&(e, _)| e == edge_index) else {
            return EdgeRealization::Graph;
        };
        let child_block = &self.tree.blocks[annotations[slot].1];
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
        EdgeRealization::Child(self.index.edge_table(slot, from_is_first))
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
