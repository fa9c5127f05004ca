//! The join-side view of a block: child tables and the path program.
//!
//! Both the PS and the DB algorithm reduce a cycle block to two path
//! segments per split, build a table for each by a sequence of joins, and
//! merge the two tables (Figures 4, 6 and 7). The joins themselves — the
//! **initial edge**, **EdgeJoin** and **NodeJoin** — live in
//! [`crate::kernel`]; this module holds what they consult:
//!
//! * [`BlockJoinIndex`] — the block's child projection tables, as the
//!   exchange left them (vertex-grouped owner slices, probed by offset) plus
//!   the one regrouping a join can still need: a binary child traversed from
//!   its second boundary node,
//! * `PathProgram` — the block's path builds and merges, compiled from the
//!   query alone: which extra slot tracks which boundary node inside a
//!   path (a path's start and end stay in its key, and the merge writes
//!   their slots), how each cycle edge is realized (by the data graph's
//!   edges or by the binary projection table of the child block annotating
//!   it), and which joins each written path runs — with equal steps of
//!   equal prefixes built once and equal splits merged once with their
//!   multiplicity, so a tile runs one run per distinct split, the longer
//!   path of an uneven split semi-joined against the shorter one, so it
//!   stores no row the merge cannot pair, and a bare pendant (a leaf edge
//!   realized by the graph, with no annotation on either end) projected
//!   straight from the graph. Whether the DB algorithm's *high-starting*
//!   constraint applies (the image of the path's start node must be
//!   strictly higher, in the degree ordering, than the image of every other
//!   cycle node) is the program's too.

use crate::config::Algorithm;
use sgc_engine::{BlockTable, RowGroups};
use sgc_graph::vertex::NO_VERTEX;
use sgc_graph::VertexId;
use sgc_query::{Block, BlockId, BlockKind, DecompositionTree, QueryNode};
use std::cmp::Ordering;
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
    pub(crate) fn child_table(&self, child: BlockId) -> &'t BlockTable {
        self.child_tables[child]
            .as_ref()
            .expect("child table must be solved before its parent")
    }

    /// The child table of the block's `slot`-th annotated edge, keyed by the
    /// image of the traversal's source node (`from_is_first`: whether the
    /// source is the child's first boundary node).
    pub(crate) fn edge_table(&self, slot: usize, from_is_first: bool) -> &BlockTable {
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

/// How a path step's edge is realized, named by the query alone — never by
/// a table address, so compiling a program builds no table (in particular
/// no transposed child table that no tile would read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Via {
    /// An original query edge, realized by the data graph.
    Graph,
    /// An annotated edge, realized by the binary table of the child block
    /// of the block's `annotation`-th edge annotation, traversed from the
    /// child's first boundary node (`forward`) or from its second.
    Child {
        /// Index into the block's `edge_annotations` (one child block each).
        annotation: usize,
        /// Whether the traversal starts at the child's first boundary node.
        forward: bool,
    },
}

/// What one path step computes, named by the query alone: two written steps
/// with the same op after the same prefix build the same table in every
/// tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StepOp {
    /// The initial edge: the path's first table, with the second node's
    /// image tracked in its extra slot if it is a boundary node inside the
    /// path. The start's image never leaves key field 0, so it has no slot.
    First {
        /// The first edge's realization.
        via: Via,
        /// The extra slot of the path's second node.
        to_slot: Option<usize>,
    },
    /// NodeJoin: the unary table of block `child` folded in at `field`.
    NodeJoin {
        /// The key field holding the annotated node's image.
        field: Field,
        /// The annotating child block.
        child: BlockId,
    },
    /// EdgeJoin: one more edge from the path's end.
    EdgeJoin {
        /// The edge's realization.
        via: Via,
        /// The extra slot of the newly mapped node, if it is a boundary node
        /// inside the path.
        to_slot: Option<usize>,
    },
}

/// One step of a program run: a join reading the arena path table `src`
/// and writing `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Step {
    /// What the step computes.
    pub op: StepOp,
    /// A *semi step*: the EdgeJoin that maps the end node of an uneven
    /// split's longer path, which keeps only the rows whose `(start, end)`
    /// pair the arena's endpoint groups — the split's shorter path, grouped
    /// just before — contain. Its operations are recorded before the filter,
    /// as the unfiltered step's are.
    pub semi: bool,
    /// How many written path steps it stands for: its operations are
    /// recorded, and its table observed, that many times.
    pub weight: u64,
    /// The path table read (a first step reads the seeds or a child slice
    /// instead; its `src` is its `dst`).
    pub src: usize,
    /// The path table written.
    pub dst: usize,
}

/// One distinct split's merge of its two path tables. The merge is
/// symmetric in them, so which one is `plus` is the compiler's choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Merge {
    /// The path table built first (it parks while the other is built); of a
    /// semi merge, the semi-joined longer path, built second.
    pub plus: usize,
    /// The other path table (`plus` itself when the two paths are one); of a
    /// semi merge, the shorter path `plus` was filtered against, which parks.
    pub minus: usize,
    /// A semi merge: the arena's endpoint groups already index `minus`, and
    /// `plus` streams over them.
    pub semi: bool,
    /// The extra slot of the split's start node.
    pub start_slot: Option<usize>,
    /// The extra slot of the split's end node.
    pub end_slot: Option<usize>,
    /// How many written splits this merge stands for: every count it adds
    /// and every operation it records is multiplied by it.
    pub multiplicity: u64,
}

/// One instruction of a program run, executed in order once per tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Instr {
    /// Run a path step.
    Step(Step),
    /// Merge two finished paths into the block's projection.
    Merge(Merge),
    /// Group a finished path table by `(start, end)` into the arena's
    /// endpoint groups: the partner of the semi step and the merge that
    /// follow.
    Group(usize),
    /// Project a leaf-edge block's finished path onto the key field of its
    /// boundary node (`None`: onto the scalar total).
    Project {
        /// The path table projected; `None` for a *bare pendant*, a leaf
        /// edge realized by the graph whose two ends carry no annotation.
        /// Its one path would be the tile's seeds, so the projection counts
        /// each start's neighbours by colour instead and runs no step.
        table: Option<usize>,
        /// The key field holding the boundary node's image.
        field: Option<usize>,
    },
}

/// Path table of a program run: ping-pong table A.
pub(crate) const PATH_A: usize = 0;
/// Path table of a program run: ping-pong table B.
pub(crate) const PATH_B: usize = 1;
/// Path table of a program run: a merge's first path, waiting for its
/// second.
pub(crate) const PARKED: usize = 2;
/// The first memo table: a step read by two or more consumers keeps its
/// table here until the tile ends.
const FIRST_MEMO: usize = 3;

/// A block's path builds and merges compiled from the query alone: what one
/// start-vertex tile runs.
///
/// The *written* algorithm builds `P+` and `P-` for every split — one split
/// for PS, one per candidate highest node for DB (Equation 1), and a
/// leaf-edge block's one edge chain — and merges each split's two paths.
/// Many of those computations are the same: every split of a bare cycle is
/// a rotation of the first, `P+` and `P-` of a 4-cycle whose middle nodes
/// carry nothing are one table, and the splits of a longer cycle share path
/// prefixes. The program names every written step by what it computes
/// ([`StepOp`]: the join, the edge's realization, the tracked slots, the
/// annotating child), so equal steps after equal prefixes become one node
/// of a trie whose weight is the number of written steps it stands for,
/// and splits with the same two path leaves and the same endpoint slots
/// become one merge with a multiplicity. The run list then builds each
/// distinct step once per tile: a step with two or more consumers writes a
/// memo table that lives to the end of the tile, every other one ping-pongs
/// through tables A and B, and the path a merge reads first — a `P+`, or
/// the grouped partner of a semi merge — parks in a table of its own while
/// the other is built, if its merge is its only consumer.
///
/// When a split's two paths differ in length (every split of an odd cycle,
/// and a PS split at adjacent boundary nodes), the longer path's last
/// EdgeJoin — the one mapping its end node; an end NodeJoin after it keeps
/// the pair — is a *semi step*: the tile groups the shorter path's table by
/// `(start, end)` first, the semi step stores only the rows whose pair has a
/// group, and the merge streams them over that grouping. The grouping holds
/// the shorter table's row ids, so that table lives until the merge. A
/// dropped row has no merge partner, so it adds no count and the merge
/// records no operation for it. The partner is part of the step's identity,
/// so a semi step is never shared with a reader of the unfiltered table.
///
/// Every step records its operations and observes its table `weight`
/// times, and every merge records its operations and adds its counts
/// `multiplicity` times, so counts and every work counter are those of the
/// written algorithm to the digit; only the time goes, and the rows semi
/// steps do not store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PathProgram {
    /// DB mode: only high-starting paths are built.
    high_start: bool,
    /// The instructions one tile runs, in order.
    run: Vec<Instr>,
    /// Path tables the run addresses: A, B, the parked `P+` and the memos.
    tables: usize,
    /// Path steps the written algorithm runs per tile.
    written_steps: u64,
    /// Merges the written algorithm runs per tile.
    written_merges: u64,
    /// Semi steps the written algorithm runs per tile: one per uneven split.
    written_semi_steps: u64,
}

/// A node of the compile-time step trie.
struct TrieNode {
    /// The step whose table this one extends (`None` for a first step).
    parent: Option<usize>,
    /// What the step computes.
    op: StepOp,
    /// Of a semi step, the node holding the shorter path it is filtered
    /// against: part of the step's identity.
    partner: Option<usize>,
    /// Written path steps this node stands for.
    weight: u64,
    /// Child steps and merge or projection reads of its table.
    consumers: usize,
}

impl PathProgram {
    /// Compiles `block` of `tree` under `algorithm`.
    pub(crate) fn compile(tree: &DecompositionTree, block: &Block, algorithm: Algorithm) -> Self {
        Self::build(tree, block, algorithm, true, true)
    }

    /// The written algorithm as a program: every written step and merge its
    /// own, nothing shared, each uneven split's longer path semi-joined
    /// against its own shorter one — the reference the shared program is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn compile_unshared(
        tree: &DecompositionTree,
        block: &Block,
        algorithm: Algorithm,
    ) -> Self {
        Self::build(tree, block, algorithm, false, true)
    }

    /// The written algorithm with no semi step: every path built in full —
    /// the reference the semi-joined programs are tested against.
    #[cfg(test)]
    pub(crate) fn compile_without_semi_joins(
        tree: &DecompositionTree,
        block: &Block,
        algorithm: Algorithm,
    ) -> Self {
        Self::build(tree, block, algorithm, false, false)
    }

    fn build(
        tree: &DecompositionTree,
        block: &Block,
        algorithm: Algorithm,
        share: bool,
        semi_join: bool,
    ) -> Self {
        let nodes = block.kind.nodes();
        let mut trie: Vec<TrieNode> = Vec::new();
        // Inserts one written path, returning the trie node holding its
        // finished table; with a `partner`, the EdgeJoin mapping its end node
        // is a semi step against that node's table.
        let insert = |trie: &mut Vec<TrieNode>,
                      positions: &[usize],
                      start: bool,
                      end: bool,
                      partner: Option<usize>| {
            let mut at = None;
            let ops = path_ops(tree, block, &nodes, positions, start, end);
            // The longer path of an uneven split has two or more edges.
            let last_edge = ops
                .iter()
                .rposition(|op| matches!(op, StepOp::EdgeJoin { .. }));
            for (i, op) in ops.into_iter().enumerate() {
                let partner = partner.filter(|_| Some(i) == last_edge);
                let same =
                    |n: &TrieNode| share && n.parent == at && n.op == op && n.partner == partner;
                let node = match trie.iter().position(same) {
                    Some(node) => node,
                    None => {
                        if let Some(parent) = at {
                            trie[parent].consumers += 1;
                        }
                        trie.push(TrieNode {
                            parent: at,
                            op,
                            partner,
                            weight: 0,
                            consumers: 0,
                        });
                        trie.len() - 1
                    }
                };
                trie[node].weight += 1;
                at = Some(node);
            }
            at.expect("a path has at least one edge")
        };
        // The sinks, in trie-node terms until they are scheduled: merges
        // whose `plus` and `minus` name trie nodes, or the one projected
        // leaf-edge path.
        let mut merges: Vec<Merge> = Vec::new();
        let mut project = None;
        match &block.kind {
            BlockKind::LeafEdge { boundary, leaf } => {
                // The single edge a -> b folds in both endpoint annotations
                // (there is no second path to share them with).
                let path = insert(&mut trie, &[0, 1], true, true, None);
                trie[path].consumers += 1;
                let field = match block.boundary.as_slice() {
                    [] => None,
                    [n] if n == boundary => Some(0),
                    [n] => {
                        debug_assert_eq!(n, leaf, "boundary node must be a leaf-edge endpoint");
                        Some(1)
                    }
                    other => unreachable!("leaf-edge block with {} boundary nodes", other.len()),
                };
                project = Some((path, field));
            }
            BlockKind::Cycle { .. } => {
                for (plus, minus) in &written_splits(block, &nodes, algorithm) {
                    // Convention (Section 5.2): P+ folds in the annotation
                    // of the end node a_d / a_t, P- that of the start node
                    // a_h / a_s, so each endpoint annotation is joined
                    // exactly once.
                    let plus_path =
                        |trie: &mut _, partner| insert(trie, plus, false, true, partner);
                    let minus_path =
                        |trie: &mut _, partner| insert(trie, minus, true, false, partner);
                    // The merge is symmetric in its two tables (pairs with
                    // equal endpoints, counts multiplied, each pair's
                    // operations attributed to its end vertex), so a split
                    // whose paths are another's swapped is that merge again,
                    // and an uneven split may stream its longer path over
                    // its shorter one's groups.
                    let (p, m, semi) = match plus.len().cmp(&minus.len()) {
                        Ordering::Less if semi_join => {
                            let shorter = plus_path(&mut trie, None);
                            (minus_path(&mut trie, Some(shorter)), shorter, true)
                        }
                        Ordering::Greater if semi_join => {
                            let shorter = minus_path(&mut trie, None);
                            (plus_path(&mut trie, Some(shorter)), shorter, true)
                        }
                        _ => {
                            let p = plus_path(&mut trie, None);
                            let m = minus_path(&mut trie, None);
                            (p.min(m), p.max(m), false)
                        }
                    };
                    let merge = Merge {
                        plus: p,
                        minus: m,
                        semi,
                        start_slot: slot_of(block, nodes[plus[0]]),
                        end_slot: slot_of(block, nodes[plus[plus.len() - 1]]),
                        multiplicity: 1,
                    };
                    let key = |x: &Merge| (x.plus, x.minus, x.start_slot, x.end_slot);
                    match merges.iter_mut().find(|x| share && key(x) == key(&merge)) {
                        Some(same) => same.multiplicity += 1,
                        None => {
                            trie[merge.plus].consumers += 1;
                            trie[merge.minus].consumers += 1;
                            merges.push(merge);
                        }
                    }
                }
            }
        }

        // Steps read by two or more consumers keep their tables to the end
        // of the tile; every other step is computed exactly once, right
        // before its one consumer reads it.
        let mut memo = vec![None; trie.len()];
        let mut tables = FIRST_MEMO;
        for (node, slot) in trie.iter().zip(&mut memo) {
            if node.consumers >= 2 {
                *slot = Some(tables);
                tables += 1;
            }
        }
        let mut schedule = Schedule {
            trie: &trie,
            memo: &memo,
            done: vec![false; trie.len()],
            run: Vec::new(),
        };
        for merge in &merges {
            let (plus, minus) = if merge.semi {
                // The partner is grouped before the semi step reads the
                // groups, and the merge streams over the same grouping: no
                // step between them builds another. The groups index the
                // partner's rows in place, so it parks (or keeps its memo)
                // while the longer path is built.
                let minus = schedule.table_of(merge.minus, true);
                schedule.run.push(Instr::Group(minus));
                (schedule.table_of(merge.plus, false), minus)
            } else {
                let plus = schedule.table_of(merge.plus, true);
                (plus, schedule.table_of(merge.minus, false))
            };
            schedule.run.push(Instr::Merge(Merge {
                plus,
                minus,
                ..*merge
            }));
        }
        if let Some((path, field)) = project {
            // A bare pendant projected onto its start (or the scalar) is
            // the tile's seeds counted by start and colour: no seed table,
            // no step. The written algorithm builds its first table.
            let bare = block.node_annotations.is_empty() && block.edge_annotations.is_empty();
            let table = if share && bare && field != Some(1) {
                None
            } else {
                Some(schedule.table_of(path, false))
            };
            schedule.run.push(Instr::Project { table, field });
        }
        PathProgram {
            high_start: block.kind.is_cycle() && algorithm == Algorithm::DegreeBased,
            run: schedule.run,
            tables,
            written_steps: trie.iter().map(|n| n.weight).sum(),
            written_merges: merges.iter().map(|m| m.multiplicity).sum(),
            written_semi_steps: (trie.iter())
                .filter(|n| n.partner.is_some())
                .map(|n| n.weight)
                .sum(),
        }
    }

    /// DB mode: only high-starting paths are built (clear for PS and for
    /// leaf-edge blocks).
    pub(crate) fn high_start(&self) -> bool {
        self.high_start
    }

    /// The instructions one tile runs, in order.
    pub(crate) fn run(&self) -> &[Instr] {
        &self.run
    }

    /// Number of path tables the run addresses.
    pub(crate) fn tables(&self) -> usize {
        self.tables
    }

    /// Path steps one tile runs; a bare pendant's projection runs its one
    /// step's enumeration.
    pub(crate) fn distinct_steps(&self) -> usize {
        let step = |i: &&Instr| matches!(i, Instr::Step(_) | Instr::Project { table: None, .. });
        self.run.iter().filter(step).count()
    }

    /// Path steps the written algorithm runs per tile.
    pub(crate) fn written_steps(&self) -> u64 {
        self.written_steps
    }

    /// Merges one tile runs (zero for a leaf-edge block).
    pub(crate) fn distinct_merges(&self) -> usize {
        self.run
            .iter()
            .filter(|i| matches!(i, Instr::Merge(_)))
            .count()
    }

    /// Merges the written algorithm runs per tile.
    pub(crate) fn written_merges(&self) -> u64 {
        self.written_merges
    }

    /// Semi steps one tile runs.
    pub(crate) fn distinct_semi_steps(&self) -> usize {
        self.run
            .iter()
            .filter(|i| matches!(i, Instr::Step(step) if step.semi))
            .count()
    }

    /// Semi steps the written algorithm runs per tile.
    pub(crate) fn written_semi_steps(&self) -> u64 {
        self.written_semi_steps
    }
}

/// The run-list builder: emits each trie node's step once, before its first
/// consumer, and assigns the tables.
struct Schedule<'c> {
    trie: &'c [TrieNode],
    /// Each node's memo table, if it has two or more consumers.
    memo: &'c [Option<usize>],
    /// Whether the node's step is already in the run.
    done: Vec<bool>,
    run: Vec<Instr>,
}

impl Schedule<'_> {
    /// Emits what `node`'s table needs and returns the table holding it.
    /// `park`: the table must survive the build of its merge's other path
    /// (a `P+`, or a semi merge's grouped partner).
    fn table_of(&mut self, node: usize, park: bool) -> usize {
        if self.done[node] {
            return self.memo[node].expect("only a memo table is read twice");
        }
        let src = self.trie[node].parent.map(|p| self.table_of(p, false));
        let dst = match (self.memo[node], src) {
            (Some(memo), _) => memo,
            (None, _) if park => PARKED,
            (None, Some(PATH_A)) => PATH_B,
            (None, _) => PATH_A,
        };
        self.run.push(Instr::Step(Step {
            op: self.trie[node].op,
            semi: self.trie[node].partner.is_some(),
            weight: self.trie[node].weight,
            src: src.unwrap_or(dst),
            dst,
        }));
        self.done[node] = true;
        dst
    }
}

/// The written steps of the path visiting cycle `positions` (for a leaf
/// edge, `[0, 1]`), folding in the start node's annotation if `start` and
/// the end node's if `end` (inner nodes' always).
///
/// Only a boundary node inside the path gets an extra slot. The start's
/// image stays in key field 0 and the end's in key field 1 until the merge,
/// which writes both endpoint slots from the join fields, so a slot for
/// either would only make steps that compute the same table look distinct.
fn path_ops(
    tree: &DecompositionTree,
    block: &Block,
    nodes: &[QueryNode],
    positions: &[usize],
    start: bool,
    end: bool,
) -> Vec<StepOp> {
    assert!(positions.len() >= 2, "a path needs at least one edge");
    let node_join = |node: QueryNode, field: Field| {
        let child = block.node_annotation(node)?;
        Some(StepOp::NodeJoin { field, child })
    };
    let last = positions.len() - 1;
    // The slot of the node at `positions[idx]`, unless it is the path's end.
    let interior_slot = |idx: usize| {
        let node = nodes[positions[idx]];
        (idx < last).then(|| slot_of(block, node)).flatten()
    };
    let mut ops = vec![StepOp::First {
        via: via(tree, block, nodes, positions[0], positions[1]),
        to_slot: interior_slot(1),
    }];
    if start {
        ops.extend(node_join(nodes[positions[0]], Field::Start));
    }
    for idx in 1..=last {
        if idx > 1 {
            ops.push(StepOp::EdgeJoin {
                via: via(tree, block, nodes, positions[idx - 1], positions[idx]),
                to_slot: interior_slot(idx),
            });
        }
        if idx < last || end {
            ops.extend(node_join(nodes[positions[idx]], Field::End));
        }
    }
    ops
}

/// The extra slot tracking `node`: its position among the block's boundary
/// nodes, if it is one.
fn slot_of(block: &Block, node: QueryNode) -> Option<usize> {
    block.boundary.iter().position(|&b| b == node)
}

/// The realization of the block edge between positions `i` and `j` of
/// `nodes` (which must be adjacent on the cycle, or the single edge of a
/// leaf block), traversed from `i` to `j`.
fn via(tree: &DecompositionTree, block: &Block, nodes: &[QueryNode], i: usize, j: usize) -> Via {
    let (from_node, to_node) = (nodes[i], nodes[j]);
    let l = nodes.len();
    let edge_index = if l == 2 {
        0
    } else if (i + 1) % l == j {
        i
    } else {
        debug_assert_eq!((j + 1) % l, i, "positions {i} and {j} are not adjacent");
        j
    };
    let annotations = &block.edge_annotations;
    let Some(annotation) = annotations.iter().position(|&(e, _)| e == edge_index) else {
        return Via::Graph;
    };
    let child = &tree.blocks[annotations[annotation].1];
    debug_assert_eq!(child.boundary.len(), 2);
    let forward = child.boundary[0] == from_node;
    debug_assert_eq!(
        if forward {
            (from_node, to_node)
        } else {
            (to_node, from_node)
        },
        (child.boundary[0], child.boundary[1]),
        "child boundary must match the traversed edge"
    );
    Via::Child {
        annotation,
        forward,
    }
}

/// The written splits of cycle block `block` (visiting `nodes`) under
/// `algorithm`, as the position lists of their two paths: PS's one split,
/// or DB's one per candidate highest node (Equation 1).
fn written_splits(
    block: &Block,
    nodes: &[QueryNode],
    algorithm: Algorithm,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let l = nodes.len();
    match algorithm {
        Algorithm::PathSplitting => {
            let (s, t) = ps_split_positions(block, nodes);
            vec![split_paths(l, s, t)]
        }
        Algorithm::DegreeBased => (0..l).map(|h| split_paths(l, h, (h + l / 2) % l)).collect(),
    }
}

/// The two paths of split `(s, t)` of a cycle of length `l`, as position
/// lists: clockwise `P+ = s, s+1, ..., t` and counter-clockwise
/// `P- = s, s-1, ..., t`.
fn split_paths(l: usize, s: usize, t: usize) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(l >= 3 && s != t);
    let walk = |step: usize| {
        let mut path = vec![s];
        let mut p = s;
        while p != t {
            p = (p + step) % l;
            path.push(p);
        }
        path
    };
    (walk(1), walk(l - 1))
}

/// The PS split positions: at the two boundary nodes when there are two, at
/// the boundary node and its diagonal when there is one, and at position 0
/// and its diagonal for a root cycle without boundary nodes.
fn ps_split_positions(block: &Block, nodes: &[QueryNode]) -> (usize, usize) {
    let l = nodes.len();
    let position_of = |n: QueryNode| nodes.iter().position(|&x| x == n).unwrap();
    match block.boundary.as_slice() {
        [a, b] => (position_of(*a), position_of(*b)),
        [a] => {
            let s = position_of(*a);
            (s, (s + l / 2) % l)
        }
        [] => (0, l / 2),
        _ => unreachable!("cycle blocks have at most two boundary nodes"),
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
    use sgc_query::{catalog, heuristic_plan, QueryGraph, Registry};

    /// The heuristic plan of `query`.
    fn plan(query: &QueryGraph) -> DecompositionTree {
        heuristic_plan(query).unwrap()
    }

    /// The merges of a program's run, in run order.
    fn merges(program: &PathProgram) -> Vec<Merge> {
        let merges = program.run().iter().filter_map(|instr| match instr {
            Instr::Merge(merge) => Some(*merge),
            _ => None,
        });
        merges.collect()
    }

    /// `(distinct, written)` steps and merges of a program.
    fn counts(program: &PathProgram) -> [(u64, u64); 2] {
        [
            (program.distinct_steps() as u64, program.written_steps()),
            (program.distinct_merges() as u64, program.written_merges()),
        ]
    }

    /// Every DB split of a bare 5-cycle is a rotation of the first: the 25
    /// written steps are one first edge and two edge joins, and the five
    /// merges one merge five times over. PS's one split shares its first
    /// two steps between `P+` and `P-`.
    #[test]
    fn a_bare_five_cycle_is_one_split_five_times_over() {
        let tree = plan(&catalog::cycle(5));
        let [block] = tree.blocks.as_slice() else {
            panic!("cycle(5) is one block")
        };
        let db = PathProgram::compile(&tree, block, Algorithm::DegreeBased);
        assert_eq!(counts(&db), [(3, 25), (1, 5)]);
        assert_eq!(merges(&db)[0].multiplicity, 5);
        let ps = PathProgram::compile(&tree, block, Algorithm::PathSplitting);
        assert_eq!(counts(&ps), [(3, 5), (1, 1)]);
        // The unshared compile is the written algorithm, step by step.
        let written = PathProgram::compile_unshared(&tree, block, Algorithm::DegreeBased);
        assert_eq!(counts(&written), [(25, 25), (5, 5)]);
        assert!(merges(&written).iter().all(|m| m.multiplicity == 1));
    }

    /// `dros`'s 4-cycle has its two boundary nodes opposite each other and
    /// nothing on its middle nodes: a split at a boundary node (PS's one,
    /// DB's two) has `P+` ≡ `P-`, one table merged with itself. DB's two
    /// splits at the middle nodes track different boundary nodes in their
    /// paths' middles, so their paths differ — but each is the other's
    /// swapped, one merge twice over.
    #[test]
    fn the_dros_four_cycle_merges_a_path_with_itself() {
        let tree = plan(&catalog::dros());
        let cycles = tree.blocks.iter().filter(|b| b.cycle_length() == 4);
        let [block] = cycles.collect::<Vec<_>>()[..] else {
            panic!("dros has one 4-cycle block")
        };
        assert_eq!(block.boundary.len(), 2);
        let ps = PathProgram::compile(&tree, block, Algorithm::PathSplitting);
        let [merge] = merges(&ps)[..] else {
            panic!("PS merges once")
        };
        assert_eq!(merge.plus, merge.minus);
        assert_eq!(counts(&ps), [(2, 4), (1, 1)]);
        let db = PathProgram::compile(&tree, block, Algorithm::DegreeBased);
        let db_merges = merges(&db);
        let with_itself = db_merges.iter().filter(|m| m.plus == m.minus);
        assert!(with_itself.clone().all(|m| m.multiplicity == 1));
        assert_eq!(with_itself.count(), 2);
        assert_eq!(counts(&db), [(6, 16), (3, 4)]);
    }

    /// Only a boundary node inside a path gets an extra slot: the start's
    /// image stays in key field 0 and the end's in key field 1 until the
    /// merge writes both endpoint slots from them. On every registry block
    /// under PS and DB, every written path's steps fill exactly the slots of
    /// its interior boundary nodes, in path order — never an endpoint's. So
    /// `glet1`'s triangle, whose three DB splits differed only in the
    /// endpoint slots their paths filled, now shares steps.
    #[test]
    fn a_path_tracks_only_its_interior_boundary_nodes() {
        for entry in Registry::builtin().entries() {
            let tree = plan(entry.query());
            for block in &tree.blocks {
                let nodes = block.kind.nodes();
                for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
                    let what = format!("{} block {} under {algorithm}", entry.name(), block.id);
                    let paths: Vec<Vec<usize>> = match block.kind {
                        BlockKind::LeafEdge { .. } => vec![vec![0, 1]],
                        BlockKind::Cycle { .. } => (written_splits(block, &nodes, algorithm))
                            .into_iter()
                            .flat_map(|(plus, minus)| [plus, minus])
                            .collect(),
                    };
                    for positions in &paths {
                        let ops = path_ops(&tree, block, &nodes, positions, true, true);
                        let filled: Vec<usize> = (ops.iter())
                            .filter_map(|op| match *op {
                                StepOp::First { to_slot, .. } => to_slot,
                                StepOp::EdgeJoin { to_slot, .. } => to_slot,
                                StepOp::NodeJoin { .. } => None,
                            })
                            .collect();
                        let inside = &positions[1..positions.len() - 1];
                        let interior: Vec<usize> = (inside.iter())
                            .filter_map(|&p| slot_of(block, nodes[p]))
                            .collect();
                        assert_eq!(filled, interior, "{what}, path {positions:?}");
                    }
                }
            }
        }
        let tree = plan(&catalog::glet1());
        let triangles = tree.blocks.iter().filter(|b| b.cycle_length() == 3);
        let [triangle] = triangles.collect::<Vec<_>>()[..] else {
            panic!("glet1 has one triangle block")
        };
        let db = PathProgram::compile(&tree, triangle, Algorithm::DegreeBased);
        assert!(
            (db.distinct_steps() as u64) < db.written_steps(),
            "{:?}",
            counts(&db)
        );
    }

    /// PS runs one split, and a leaf-edge block one path and no merge: no
    /// merge of theirs can repeat. A leaf-edge program ends in its one
    /// projection.
    #[test]
    fn ps_and_leaf_edge_programs_repeat_no_merge() {
        for entry in Registry::builtin().entries() {
            let tree = plan(entry.query());
            for block in &tree.blocks {
                let what = format!("{} block {}", entry.name(), block.id);
                let ps = PathProgram::compile(&tree, block, Algorithm::PathSplitting);
                assert!(merges(&ps).iter().all(|m| m.multiplicity == 1), "{what}");
                if block.kind.is_cycle() {
                    assert_eq!(ps.distinct_merges(), 1, "{what}");
                    continue;
                }
                let db = PathProgram::compile(&tree, block, Algorithm::DegreeBased);
                assert_eq!(db, ps, "{what}: a leaf edge ignores the algorithm");
                assert_eq!(ps.distinct_merges(), 0, "{what}");
                assert_eq!(ps.distinct_steps() as u64, ps.written_steps(), "{what}");
                let last = ps.run().last();
                assert!(matches!(last, Some(Instr::Project { .. })), "{what}");
            }
        }
    }

    /// The plans `dyn-stream` runs: `path(4)` is three leaf-edge blocks,
    /// each a one-path program — its first edge plus a NodeJoin per
    /// annotated endpoint, nothing shared, no merge and no high start;
    /// `cycle(5)` is the one-split program of the test above.
    #[test]
    fn the_dynamic_workload_plans_compile_as_stated() {
        let tree = plan(&catalog::path(4));
        assert_eq!(tree.blocks.len(), 3);
        for block in &tree.blocks {
            let program = PathProgram::compile(&tree, block, Algorithm::DegreeBased);
            let steps = 1 + block.node_annotations.len() as u64;
            assert_eq!(counts(&program), [(steps, steps), (0, 0)], "{block:?}");
            assert!(!program.high_start());
        }
        let tree = plan(&catalog::cycle(5));
        let program = PathProgram::compile(&tree, &tree.blocks[0], Algorithm::DegreeBased);
        assert!(program.high_start());
        assert_eq!(counts(&program), [(3, 25), (1, 5)]);
    }

    /// `cycle(5)`'s one distinct DB split runs its shorter path (first edge,
    /// edge join), groups it, filters the longer path's last edge join
    /// against it and streams that semi table over the grouping.
    #[test]
    fn an_uneven_split_groups_its_shorter_path_before_the_semi_step() {
        let tree = plan(&catalog::cycle(5));
        let db = PathProgram::compile(&tree, &tree.blocks[0], Algorithm::DegreeBased);
        let unexpected = || panic!("unexpected run {:?}", db.run());
        let [first, shorter, grouped, semi, merge] = db.run() else {
            unexpected()
        };
        let (Instr::Step(first), Instr::Step(shorter), Instr::Group(grouped)) =
            (first, shorter, grouped)
        else {
            unexpected()
        };
        let (Instr::Step(semi), Instr::Merge(merge)) = (semi, merge) else {
            unexpected()
        };
        assert!(!first.semi && !shorter.semi && semi.semi);
        assert_eq!((*grouped, semi.src), (shorter.dst, shorter.dst));
        assert!(merge.semi);
        assert_eq!((merge.plus, merge.minus), (semi.dst, shorter.dst));
        assert_eq!((db.distinct_semi_steps(), db.written_semi_steps()), (1, 5));
    }

    /// On every registry cycle block: DB semi-joins each of an odd cycle's
    /// `l` splits and none of an even one's, PS its one split if the cycle
    /// is odd; and every semi step and semi merge of the run reads the
    /// grouping of its partner, which no merge rebuilt in between.
    #[test]
    fn semi_steps_read_their_partners_grouping() {
        for entry in Registry::builtin().entries() {
            let tree = plan(entry.query());
            for block in tree.blocks.iter().filter(|b| b.kind.is_cycle()) {
                let l = block.cycle_length() as u64;
                for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
                    let what = format!("{} block {} under {algorithm}", entry.name(), block.id);
                    let program = PathProgram::compile(&tree, block, algorithm);
                    let written = program.written_semi_steps();
                    match algorithm {
                        Algorithm::DegreeBased => assert_eq!(written, l % 2 * l, "{what}"),
                        Algorithm::PathSplitting => {
                            assert!(written >= l % 2 && written <= 1, "{what}")
                        }
                    }
                    let mut grouped = None;
                    for instr in program.run() {
                        match *instr {
                            Instr::Group(table) => grouped = Some(table),
                            Instr::Step(step) if step.semi => {
                                assert!(grouped.is_some(), "{what}")
                            }
                            Instr::Merge(merge) if merge.semi => {
                                assert_eq!(grouped, Some(merge.minus), "{what}")
                            }
                            Instr::Merge(_) => grouped = None,
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    /// The endpoint groups hold row ids of the grouped table, not copies:
    /// on every registry cycle block under PS and DB, no step may write the
    /// table a `Group` indexed before the semi merge that reads it.
    #[test]
    fn a_grouped_table_lives_until_its_merge() {
        let mut overwritten = Vec::new();
        for entry in Registry::builtin().entries() {
            let tree = plan(entry.query());
            for block in tree.blocks.iter().filter(|b| b.kind.is_cycle()) {
                for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
                    let program = PathProgram::compile(&tree, block, algorithm);
                    let mut grouped = None;
                    let mut writes = 0;
                    for instr in program.run() {
                        match *instr {
                            Instr::Group(table) => grouped = Some(table),
                            Instr::Step(step) if grouped == Some(step.dst) => writes += 1,
                            Instr::Merge(merge) if merge.semi => {
                                assert_eq!(grouped, Some(merge.minus));
                                grouped = None;
                            }
                            _ => {}
                        }
                    }
                    if writes > 0 {
                        let what = format!("{} block {} under {algorithm}", entry.name(), block.id);
                        overwritten.push((what, writes));
                    }
                }
            }
        }
        assert!(
            overwritten.is_empty(),
            "grouped tables overwritten: {overwritten:?}"
        );
    }

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
