//! The DP kernel: solving one block into its projection table.
//!
//! This module turns one block of the decomposition tree into its projection
//! table, given the already-computed tables of its children:
//!
//! * leaf-edge blocks are a short chain of joins (edge realization plus the
//!   node annotations of the two endpoints) followed by a projection onto the
//!   boundary node,
//! * cycle blocks are split into two path segments, each built by a sequence
//!   of joins (initial edge, EdgeJoin, NodeJoin — Figures 4, 6 and 7), and
//!   merged back; the PS algorithm uses a single split at the boundary nodes,
//!   the DB algorithm runs one split per candidate highest node `a_h` and
//!   aggregates (Equation 1).
//!
//! Every working table is a structure-of-arrays table of
//! [`sgc_engine::columnar`]:
//!
//! * each table is four `u32` key columns, two `u64` color-set lanes and a
//!   `u64` count column, so the join loops stream dense arrays instead of
//!   chasing hash-map buckets,
//! * color sets are processed word-at-a-time (`Signature` union /
//!   intersection / popcount over two `u64` words) rather than per color,
//! * every scratch table lives in a [`KernelArena`] checked out of the
//!   engine's [`ArenaPool`], and the row buffers of a finished run's
//!   partials and block tables retire into the arenas that built them: trial
//!   `i + 1` resets row lengths but keeps all capacity, so the steady-state
//!   trial path allocates no table memory,
//! * a path row never changes its start vertex, so a block is solved one
//!   *tile* of start vertices at a time (`solve_block`): the path tables
//!   hold one tile's rows, whatever the size of the graph, and only the
//!   block's projection accumulator spans tiles.
//!
//! Every examined candidate is attributed to the simulated rank owning the
//! vertex at which the paper's distributed engine would have performed the
//! operation. `solve_block` is the kernel's one entry point, and the
//! block-step executor (`runtime::executor`) its one caller; counts are checked
//! against the independent oracles in [`crate::brute`] and
//! `tests/treelet/` (a tree-query DP of its own) and the committed golden
//! fixtures.

use crate::config::Algorithm;
use crate::context::Context;
use crate::metrics::RunMetrics;
use crate::paths::{combine_extras, BlockJoinIndex, EdgeRealization, Field, PathBuilder};
use sgc_engine::columnar::{path_key, AddPipeline, KEY_FIELDS};
use sgc_engine::{BlockTable, ColumnarTable, Count, EndpointGroups, RowGroups, Signature};
use sgc_graph::vertex::{VertexId, NO_VERTEX};
use sgc_query::{Block, BlockId, BlockKind, DecompositionTree, QueryNode};
use std::mem;
use std::ops::Range;
use std::sync::Mutex;

/// Arena accounting surfaced through [`crate::RunMetrics`].
///
/// `arena_reuses` counts checkouts that were served from the pool instead
/// of allocating a fresh arena; `arena_grown_bytes` sums capacity the solve
/// had to allocate on top of what the checked-out arena already held — zero
/// in steady state, which is exactly what the arena-reuse regression test
/// asserts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelMetrics {
    /// High-water mark of arena capacity in bytes across all checkouts.
    pub arena_bytes: u64,
    /// Checkouts that reused a pooled arena rather than allocating fresh.
    pub arena_reuses: u64,
    /// New capacity (bytes) allocated during checkouts; zero once warm.
    pub arena_grown_bytes: u64,
}

impl KernelMetrics {
    /// Records one arena checkout: the arena's final capacity, whether it
    /// came from the pool, and how many bytes of capacity the solve added.
    pub(crate) fn record_checkout(&mut self, final_bytes: u64, reused: bool, grown_bytes: u64) {
        self.arena_bytes = self.arena_bytes.max(final_bytes);
        self.arena_reuses += reused as u64;
        self.arena_grown_bytes += grown_bytes;
    }

    /// Merges another run's kernel counters into this one.
    pub(crate) fn absorb(&mut self, other: &KernelMetrics) {
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.arena_reuses += other.arena_reuses;
        self.arena_grown_bytes += other.arena_grown_bytes;
    }
}

/// All scratch storage one block solve needs, reusable across trials.
///
/// The two ping-pong path tables hold the current and next table of one
/// start-vertex tile's path-build join chain; `plus` parks the tile's
/// finished clockwise path while the counter-clockwise one is built; `proj`
/// accumulates the block projection (across all tiles and DB splits);
/// `groups` is the endpoint-grouping scratch of the path merge.
#[derive(Debug, Default)]
pub struct KernelArena {
    /// Ping-pong table A of the path build.
    path_a: ColumnarTable,
    /// Ping-pong table B of the path build.
    path_b: ColumnarTable,
    /// Parking slot for the finished `P+` table during the `P-` build.
    plus: ColumnarTable,
    /// The block projection accumulator (summed over DB splits); between
    /// two solves, the table the exchange sums one owner's rows in.
    pub(crate) proj: ColumnarTable,
    /// Endpoint-grouping scratch for the path merge.
    groups: EndpointGroups,
    /// Row buffers of finished runs, refilled by the same role of the next:
    /// the lane's partial ([`PARTIAL_ROWS`], dead once its round is over),
    /// its owner slice of every block's table ([`slice_rows`], alive to the
    /// end of the run) and, in a job's first lane, the transposed tables of
    /// the job's blocks ([`transposed_rows`], alive for the parent's step).
    retired: Vec<RowGroups>,
}

impl KernelArena {
    /// Creates an empty arena (nothing allocated until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total allocated capacity across all tables and scratch buffers.
    pub fn capacity_bytes(&self) -> usize {
        self.path_a.capacity_bytes()
            + self.path_b.capacity_bytes()
            + self.plus.capacity_bytes()
            + self.proj.capacity_bytes()
            + self.groups.capacity_bytes()
            + (self.retired.iter()).map(RowGroups::bytes).sum::<usize>()
    }

    /// The row buffers retired into `slot` (empty ones if none were).
    pub(crate) fn take_rows(&mut self, slot: usize) -> RowGroups {
        self.retired
            .get_mut(slot)
            .map(mem::take)
            .unwrap_or_default()
    }

    /// Keeps the buffers of `rows` for the next [`take_rows`](Self::take_rows)
    /// of `slot` — unless the slot holds larger ones nobody took this run (a
    /// scalar table's one row must not evict another plan's column).
    pub(crate) fn retire_rows(&mut self, slot: usize, rows: RowGroups) {
        if self.retired.len() <= slot {
            self.retired.resize_with(slot + 1, RowGroups::default);
        }
        if rows.bytes() > self.retired[slot].bytes() {
            self.retired[slot] = rows;
        }
    }
}

/// [`KernelArena::take_rows`] slot of a lane's partial.
pub(crate) const PARTIAL_ROWS: usize = 0;

/// [`KernelArena::take_rows`] slot of a lane's owner slice of `block`'s table.
pub(crate) fn slice_rows(block: BlockId) -> usize {
    1 + 2 * block
}

/// [`KernelArena::take_rows`] slot of `block`'s table transposed.
pub(crate) fn transposed_rows(block: BlockId) -> usize {
    2 + 2 * block
}

/// A free-list of [`KernelArena`]s owned by the engine.
///
/// Every count checks one arena per shard out for the duration of one
/// coloring's solve and returns it afterwards, so repeated trials (and
/// repeated requests against the same engine) hit warm buffers. The pool is
/// a mutex'd stack: checkouts are coarse (one per shard per trial), so
/// contention is negligible.
#[derive(Debug, Default)]
pub struct ArenaPool {
    /// Returned arenas, most recently used last (LIFO keeps buffers warm).
    free: Mutex<Vec<KernelArena>>,
}

impl ArenaPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an arena from the pool (or a fresh one if the pool is empty);
    /// the flag reports whether a pooled arena was reused.
    pub(crate) fn checkout(&self) -> (KernelArena, bool) {
        match self.free.lock().unwrap().pop() {
            Some(arena) => (arena, true),
            None => (KernelArena::new(), false),
        }
    }

    /// Returns an arena to the pool for the next checkout.
    pub(crate) fn give_back(&self, arena: KernelArena) {
        self.free.lock().unwrap().push(arena);
    }
}

/// Incident-edge budget of one start-vertex tile (see [`solve_block`]).
/// Measured on the `perf` harness's skewed (condMat analog) and flat
/// (roadNetCA analog) graphs: around a thousand incident edges the largest
/// tile's path tables sit in L2 while the per-tile fixed costs (table resets,
/// one grouping build per merge) are still amortized over hundreds of rows.
const TILE_EDGES: usize = 1024;

/// Solves `block` over the start vertices of `ctx`, against the child tables
/// in `index`, into the context's partial of its projection table: the rows
/// grouped by owner, ready for the exchange.
///
/// A path row never changes its start vertex (key field 0), so every path
/// table of the block partitions by start. The solve walks the start range
/// in tiles of at most [`TILE_EDGES`] incident edges and runs the whole
/// build → merge chain per tile into the shared projection accumulator: the
/// working set is one tile's tables whatever the size of the graph. Counts,
/// operation counts and created entries equal the one-tile solve's exactly
/// (tile table lengths sum to the logical table's); only the peak table size
/// shrinks.
pub(crate) fn solve_block(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    algorithm: Algorithm,
    arena: &mut KernelArena,
    metrics: &mut RunMetrics,
) -> RowGroups {
    solve_block_tiled(
        ctx, tree, block, index, algorithm, TILE_EDGES, arena, metrics,
    )
}

/// [`solve_block`] with the tile budget as a parameter (the tile-invariance
/// test sweeps it).
#[allow(clippy::too_many_arguments)]
fn solve_block_tiled(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    algorithm: Algorithm,
    tile_edges: usize,
    arena: &mut KernelArena,
    metrics: &mut RunMetrics,
) -> RowGroups {
    match &block.kind {
        BlockKind::LeafEdge { .. } => {
            solve_leaf_edge(ctx, tree, block, index, tile_edges, arena, metrics)
        }
        BlockKind::Cycle { .. } => solve_cycle(
            ctx, tree, block, index, algorithm, tile_edges, arena, metrics,
        ),
    }
}

/// Solves a leaf-edge block `(a, b)` (with `b` the degree-one endpoint): one
/// edge chain per tile, projected onto the boundary.
fn solve_leaf_edge(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    tile_edges: usize,
    arena: &mut KernelArena,
    metrics: &mut RunMetrics,
) -> RowGroups {
    let (a, b) = match block.kind {
        BlockKind::LeafEdge { boundary, leaf } => (boundary, leaf),
        _ => unreachable!("solve_leaf_edge called on a cycle block"),
    };
    // The key field holding the boundary node's image, if there is one.
    let field = match block.boundary.as_slice() {
        [] => None,
        [n] if *n == a => Some(0),
        [n] => {
            debug_assert_eq!(*n, b, "boundary node must be a leaf-edge endpoint");
            Some(1)
        }
        other => unreachable!("leaf-edge block with {} boundary nodes", other.len()),
    };
    let builder = PathBuilder::new(ctx, tree, block, index, false);
    let partial = arena.take_rows(PARTIAL_ROWS);
    let KernelArena {
        path_a,
        path_b,
        proj,
        ..
    } = arena;
    proj.reset();
    for tile in ctx.start_tiles(tile_edges) {
        // The "path" here is the single edge a -> b; both endpoint
        // annotations are folded in (there is no second path to share them
        // with).
        let in_a = build_path(&builder, &[0, 1], tile, true, true, path_a, path_b, metrics);
        let table = if in_a { &*path_a } else { &*path_b };
        match field {
            None => proj.add([NO_VERTEX; KEY_FIELDS], Signature::empty(), table.total()),
            Some(f) => {
                let mut pipe = AddPipeline::new();
                for (key, sig, count) in table.rows() {
                    pipe.push(proj, [key[f], NO_VERTEX, NO_VERTEX, NO_VERTEX], sig, count);
                }
                pipe.flush(proj);
            }
        }
    }
    export_projection(ctx, block, proj, partial, metrics)
}

/// Solves a cycle block: one split for PS, one per candidate highest node
/// for DB, all accumulated into the arena's projection table and exported
/// once.
#[allow(clippy::too_many_arguments)]
fn solve_cycle(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    algorithm: Algorithm,
    tile_edges: usize,
    arena: &mut KernelArena,
    metrics: &mut RunMetrics,
) -> RowGroups {
    let nodes = block.kind.nodes();
    let l = nodes.len();
    arena.proj.reset();
    match algorithm {
        Algorithm::PathSplitting => {
            let (s, t) = ps_split_positions(block, &nodes);
            solve_cycle_split(
                ctx, tree, block, index, s, t, false, tile_edges, arena, metrics,
            );
        }
        Algorithm::DegreeBased => {
            for h in 0..l {
                let d = (h + l / 2) % l;
                solve_cycle_split(
                    ctx, tree, block, index, h, d, true, tile_edges, arena, metrics,
                );
            }
        }
    }
    let partial = arena.take_rows(PARTIAL_ROWS);
    export_projection(ctx, block, &arena.proj, partial, metrics)
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

/// Solves one split `(s, t)` of a cycle block into the projection
/// accumulator: per start-vertex tile, builds the clockwise path `P+ = s..t`
/// and the counter-clockwise path `P- = s..t`, then merges them. With
/// `high_start` set this computes the DB algorithm's per-`a_h` partial counts
/// `cnt(·|C, hi = h)`.
#[allow(clippy::too_many_arguments)]
fn solve_cycle_split(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    s: usize,
    t: usize,
    high_start: bool,
    tile_edges: usize,
    arena: &mut KernelArena,
    metrics: &mut RunMetrics,
) {
    let l = block.kind.len();
    debug_assert!(l >= 3 && s != t);
    // Clockwise positions s, s+1, ..., t and counter-clockwise s, s-1, ..., t.
    let mut plus = vec![s];
    let mut p = s;
    while p != t {
        p = (p + 1) % l;
        plus.push(p);
    }
    let mut minus = vec![s];
    p = s;
    while p != t {
        p = (p + l - 1) % l;
        minus.push(p);
    }

    let builder = PathBuilder::new(ctx, tree, block, index, high_start);
    let nodes = block.kind.nodes();
    let KernelArena {
        path_a,
        path_b,
        plus: plus_slot,
        proj,
        groups,
        ..
    } = arena;
    for tile in ctx.start_tiles(tile_edges) {
        // Convention (Section 5.2): P+ folds in the annotation of the end
        // node a_d / a_t, P- folds in the annotation of the start node
        // a_h / a_s, so each endpoint annotation is joined exactly once.
        let in_a = build_path(
            &builder,
            &plus,
            tile.clone(),
            false,
            true,
            path_a,
            path_b,
            metrics,
        );
        // Park the finished P+ table so the ping-pong pair is free for P-.
        let parked = if in_a { &mut *path_a } else { &mut *path_b };
        mem::swap(parked, plus_slot);
        let minus_in_a = build_path(&builder, &minus, tile, true, false, path_a, path_b, metrics);
        let minus_table = if minus_in_a { &*path_a } else { &*path_b };
        merge_paths(
            ctx,
            block,
            plus_slot,
            minus_table,
            groups,
            nodes[s],
            nodes[t],
            proj,
            metrics,
        );
        // Undo the parking: every tile, and every later trial on this arena,
        // then finds each buffer in the role that sized it.
        let parked = if in_a { &mut *path_a } else { &mut *path_b };
        mem::swap(parked, plus_slot);
    }
    // The accumulator is one table however many tiles fed it.
    metrics.observe_table(proj.len());
}

/// Builds the table for the paths visiting `positions` from a start vertex
/// in `starts`, ping-ponging between the two arena tables. Returns `true`
/// when the finished table is in `path_a`, `false` when it is in `path_b`.
#[allow(clippy::too_many_arguments)]
fn build_path(
    builder: &PathBuilder<'_, '_>,
    positions: &[usize],
    starts: Range<VertexId>,
    include_start_annotation: bool,
    include_end_annotation: bool,
    path_a: &mut ColumnarTable,
    path_b: &mut ColumnarTable,
    metrics: &mut RunMetrics,
) -> bool {
    assert!(positions.len() >= 2, "a path needs at least one edge");
    let nodes = builder.cycle_nodes();
    let first = nodes[positions[0]];
    let second = nodes[positions[1]];
    let mut src = path_a;
    let mut dst = path_b;
    let mut in_a = true;
    initial_join(
        builder,
        builder.edge_index_between(positions[0], positions[1]),
        first,
        second,
        starts,
        src,
        metrics,
    );
    if include_start_annotation {
        if let Some(child) = builder.node_child(first) {
            node_join(builder, src, dst, Field::Start, child, metrics);
            mem::swap(&mut src, &mut dst);
            in_a = !in_a;
        }
    }
    for idx in 1..positions.len() {
        let node = nodes[positions[idx]];
        if idx > 1 {
            let prev = nodes[positions[idx - 1]];
            let edge_index = builder.edge_index_between(positions[idx - 1], positions[idx]);
            edge_join(builder, src, dst, edge_index, prev, node, metrics);
            mem::swap(&mut src, &mut dst);
            in_a = !in_a;
        }
        let is_end = idx == positions.len() - 1;
        if !is_end || include_end_annotation {
            if let Some(child) = builder.node_child(node) {
                node_join(builder, src, dst, Field::End, child, metrics);
                mem::swap(&mut src, &mut dst);
                in_a = !in_a;
            }
        }
    }
    in_a
}

/// Seeds the initial table for the first edge of the paths starting in
/// `starts` (one tile of the context's start range).
fn initial_join(
    builder: &PathBuilder<'_, '_>,
    edge_index: usize,
    from_node: QueryNode,
    to_node: QueryNode,
    starts: Range<VertexId>,
    out: &mut ColumnarTable,
    metrics: &mut RunMetrics,
) {
    let ctx = builder.ctx;
    out.reset();
    // Both tracked-extra slots are fixed for the whole join; resolve them
    // once instead of per emitted row.
    let from_slot = builder.slot_of(from_node);
    let to_slot = builder.slot_of(to_node);
    let seed_key = |u: VertexId, w: VertexId| {
        let mut key = path_key(u, w);
        if let Some(slot) = from_slot {
            key[2 + slot] = u;
        }
        if let Some(slot) = to_slot {
            key[2 + slot] = w;
        }
        key
    };
    let mut pipe = AddPipeline::new();
    match builder.edge_realization(edge_index, from_node, to_node) {
        EdgeRealization::Graph => {
            // Every path entry keeps its start vertex for its whole life, so
            // restricting the seeds to a vertex range (a tile of a shard's
            // range) partitions the block's entire table by start.
            for u in starts {
                let cu = ctx.color(u);
                // In DB mode only the neighbors strictly below the start
                // vertex in the degree order can appear on a high-starting
                // path, so the pruned list is enumerated directly.
                let neighbors = if builder.high_start {
                    ctx.lower_neighbors(u, u)
                } else {
                    ctx.graph.neighbors(u)
                };
                metrics.record_ops(&ctx.partition, u, neighbors.len() as u64);
                for &w in neighbors {
                    let cw = ctx.color(w);
                    if cu == cw {
                        continue;
                    }
                    pipe.push(out, seed_key(u, w), Signature::pair(cu, cw), 1);
                }
            }
        }
        EdgeRealization::Child(child) => {
            // A child row's `u` is the path's start vertex; seeding only
            // from the range's vertices partitions the table by start,
            // exactly like the range restriction above.
            for u in starts {
                let list = child.get(u);
                metrics.record_ops(&ctx.partition, u, list.len() as u64);
                for row in list {
                    let w = row.v;
                    if builder.high_start && !ctx.order().higher(u, w) {
                        continue;
                    }
                    pipe.push(out, seed_key(u, w), row.sig, row.count);
                }
            }
        }
    }
    pipe.flush(out);
    metrics.observe_table(out.len());
}

/// NodeJoin: folds a child block's unary table into `src` at the given key
/// field, writing the result to `dst`.
fn node_join(
    builder: &PathBuilder<'_, '_>,
    src: &ColumnarTable,
    dst: &mut ColumnarTable,
    field: Field,
    child: &BlockTable,
    metrics: &mut RunMetrics,
) {
    let ctx = builder.ctx;
    dst.reset();
    let mut pipe = AddPipeline::new();
    for (key, sig, count) in src.rows() {
        let x = match field {
            Field::Start => key[0],
            Field::End => key[1],
        };
        let list = child.get(x);
        metrics.record_ops(&ctx.partition, x, list.len() as u64);
        let shared = ctx.color_sig(x);
        for row in list {
            if sig.intersection(row.sig) != shared {
                continue;
            }
            pipe.push(dst, key, sig.union(row.sig), count * row.count);
        }
    }
    pipe.flush(dst);
    metrics.observe_table(dst.len());
}

/// EdgeJoin: extends every path in `src` by one block edge, from `from_node`
/// (the current end) to `to_node`, into `dst`.
fn edge_join(
    builder: &PathBuilder<'_, '_>,
    src: &ColumnarTable,
    dst: &mut ColumnarTable,
    edge_index: usize,
    from_node: QueryNode,
    to_node: QueryNode,
    metrics: &mut RunMetrics,
) {
    let ctx = builder.ctx;
    dst.reset();
    let realization = builder.edge_realization(edge_index, from_node, to_node);
    // The newly mapped node's extra slot is fixed for the whole join.
    let to_slot = builder.slot_of(to_node);
    let mut pipe = AddPipeline::new();
    for (key, sig, count) in src.rows() {
        let v = key[1];
        let shared = ctx.color_sig(v);
        match &realization {
            EdgeRealization::Graph => {
                let neighbors = if builder.high_start {
                    ctx.lower_neighbors(v, key[0])
                } else {
                    ctx.graph.neighbors(v)
                };
                metrics.record_ops(&ctx.partition, v, neighbors.len() as u64);
                for &w in neighbors {
                    let cw = ctx.color(w);
                    if sig.contains(cw) {
                        continue;
                    }
                    let mut new_key = key;
                    new_key[1] = w;
                    if let Some(slot) = to_slot {
                        new_key[2 + slot] = w;
                    }
                    pipe.push(dst, new_key, sig.with(cw), count);
                }
            }
            EdgeRealization::Child(child) => {
                let list = child.get(v);
                metrics.record_ops(&ctx.partition, v, list.len() as u64);
                for row in list {
                    let w = row.v;
                    if builder.high_start && !ctx.order().higher(key[0], w) {
                        continue;
                    }
                    if sig.intersection(row.sig) != shared {
                        continue;
                    }
                    let mut new_key = key;
                    new_key[1] = w;
                    if let Some(slot) = to_slot {
                        new_key[2 + slot] = w;
                    }
                    pipe.push(dst, new_key, sig.union(row.sig), count * row.count);
                }
            }
        }
    }
    pipe.flush(dst);
    metrics.observe_table(dst.len());
}

/// How many outer rows ahead the path merge prefetches its group probes.
const MERGE_LOOKAHEAD: usize = 16;

/// Merges the two path tables of a split into the projection accumulator
/// (Procedure 2 of Figures 4 and 6): join on the shared endpoints, require
/// the signatures to overlap exactly in the endpoint colors, and key the
/// output by the images of the block's boundary nodes.
#[allow(clippy::too_many_arguments)]
fn merge_paths(
    ctx: &Context<'_>,
    block: &Block,
    plus: &ColumnarTable,
    minus: &ColumnarTable,
    groups: &mut EndpointGroups,
    start_node: QueryNode,
    end_node: QueryNode,
    proj: &mut ColumnarTable,
    metrics: &mut RunMetrics,
) {
    // The merged pair set is symmetric in the two tables (pairs sharing
    // endpoints, counts multiplied), and grouping costs more per row than
    // streaming, so group the smaller table and stream the larger one over
    // it. Load attribution is unaffected: every pair is attributed to the
    // owner of the shared end vertex either way.
    let (outer, inner) = if plus.len() <= minus.len() {
        (minus, plus)
    } else {
        (plus, minus)
    };
    groups.build(inner);
    let boundary = block.boundary.as_slice();
    let start_slot = boundary.iter().position(|&b| b == start_node);
    let end_slot = boundary.iter().position(|&b| b == end_node);
    match boundary.len() {
        // A boundary-free root cycle only ever needs the grand total:
        // accumulate it in a register (extras are never set in a
        // boundary-free block, so the extras merge can never fail) and
        // store one row at the end.
        0 => {
            let mut total: Count = 0;
            for r in 0..outer.len() {
                // The group probes are this loop's only random access;
                // prefetching a few rows ahead overlaps their latency.
                if r + MERGE_LOOKAHEAD < outer.len() {
                    let (pu, pv) = outer.endpoints(r + MERGE_LOOKAHEAD);
                    groups.prefetch_pair(pu, pv);
                }
                let (u, v) = outer.endpoints(r);
                let (sigs, span) = groups.spans_for(u, v);
                if span.is_empty() {
                    continue;
                }
                let shared = Signature::pair(ctx.color(u), ctx.color(v));
                let osig = outer.sig(r);
                let ocount = outer.count(r);
                // Scan the dense low-word lane first: almost every pair
                // fails the signature filter, and the low word alone
                // rejects it without loading the 32-byte payload.
                let [o_lo, _] = osig.words();
                let [shared_lo, _] = shared.words();
                for (i, &i_lo) in sigs.iter().enumerate() {
                    if i_lo & o_lo != shared_lo {
                        continue;
                    }
                    let g = &span[i];
                    if osig.intersection(g.sig()) != shared {
                        continue;
                    }
                    total += ocount * g.count;
                }
                metrics.record_ops(&ctx.partition, v, span.len() as u64);
            }
            proj.add([NO_VERTEX; KEY_FIELDS], Signature::empty(), total);
        }
        arity @ (1 | 2) => {
            for r in 0..outer.len() {
                if r + MERGE_LOOKAHEAD < outer.len() {
                    let (pu, pv) = outer.endpoints(r + MERGE_LOOKAHEAD);
                    groups.prefetch_pair(pu, pv);
                }
                let (u, v) = outer.endpoints(r);
                let (sigs, span) = groups.spans_for(u, v);
                if span.is_empty() {
                    continue;
                }
                let shared = Signature::pair(ctx.color(u), ctx.color(v));
                let osig = outer.sig(r);
                let ocount = outer.count(r);
                let oextras = outer.extras(r);
                let [o_lo, _] = osig.words();
                let [shared_lo, _] = shared.words();
                for (i, &i_lo) in sigs.iter().enumerate() {
                    // Low-word reject before touching the payload record.
                    if i_lo & o_lo != shared_lo {
                        continue;
                    }
                    let g = &span[i];
                    let isig = g.sig();
                    if osig.intersection(isig) != shared {
                        continue;
                    }
                    let Some(mut extras) = combine_extras(oextras, g.extras()) else {
                        continue;
                    };
                    // Endpoints double as boundary nodes in some
                    // configurations; make sure their slots are filled from
                    // the join fields.
                    if let Some(slot) = start_slot {
                        extras[slot] = u;
                    }
                    if let Some(slot) = end_slot {
                        extras[slot] = v;
                    }
                    let sig = osig.union(isig);
                    let count = ocount * g.count;
                    debug_assert_ne!(extras[0], NO_VERTEX);
                    if arity == 1 {
                        proj.add([extras[0], NO_VERTEX, NO_VERTEX, NO_VERTEX], sig, count);
                    } else {
                        debug_assert_ne!(extras[1], NO_VERTEX);
                        proj.add([extras[0], extras[1], NO_VERTEX, NO_VERTEX], sig, count);
                    }
                }
                metrics.record_ops(&ctx.partition, v, span.len() as u64);
            }
        }
        _ => unreachable!(),
    }
}

/// Exports the accumulated projection as the context's partial: the
/// (already distinct) rows counting-sorted by the owner of their first
/// boundary image — the export is the bucketing the exchange reads — in the
/// buffers of `retired`.
fn export_projection(
    ctx: &Context<'_>,
    block: &Block,
    proj: &ColumnarTable,
    retired: RowGroups,
    metrics: &mut RunMetrics,
) -> RowGroups {
    let partial = if block.boundary.is_empty() {
        retired.scalar(proj.total(), &ctx.owners)
    } else {
        retired.by_owner(proj.projection_rows(), &ctx.owners)
    };
    metrics.observe_table(partial.len());
    partial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GraphPrep;
    use crate::metrics::ShardMetrics;
    use crate::runtime::exchange::tests::combine;
    use crate::runtime::ShardPlan;
    use sgc_graph::{Coloring, CsrGraph, GraphBuilder};
    use sgc_query::{decompose, QueryGraph};

    /// Solves the pure triangle query's one block on a data triangle under
    /// `colors`, with both algorithms.
    fn triangle_totals(colors: Vec<u8>) -> Vec<(Algorithm, Count, RunMetrics)> {
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2), (2, 0)]);
        let g: CsrGraph = b.build();
        let coloring = Coloring::from_colors(colors, 3);
        let query = QueryGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let tree = decompose(&query).unwrap();
        let prep = GraphPrep::new(&g);
        let ctx = Context::new(&g, &prep, &coloring, 4).unwrap();
        let pool = ArenaPool::new();
        [Algorithm::PathSplitting, Algorithm::DegreeBased]
            .into_iter()
            .map(|algorithm| {
                let (mut arena, _) = pool.checkout();
                let mut metrics = RunMetrics::new(4);
                let index =
                    BlockJoinIndex::build(&tree.blocks[0], &[None], |_| RowGroups::default());
                let partial = solve_block(
                    &ctx,
                    &tree,
                    &tree.blocks[0],
                    &index,
                    algorithm,
                    &mut arena,
                    &mut metrics,
                );
                pool.give_back(arena);
                (algorithm, partial.total(), metrics)
            })
            .collect()
    }

    /// A rainbow data triangle has 3! = 6 colorful matches of the triangle
    /// query (one per orientation), for both algorithms (the module-level
    /// smoke test; the differential suites against the brute-force and
    /// treelet oracles are `tests/correctness.rs` and `tests/property.rs`).
    #[test]
    fn columnar_matches_scalar_on_rainbow_triangle() {
        for (algorithm, total, metrics) in triangle_totals(vec![0, 1, 2]) {
            assert_eq!(total, 6, "{algorithm}");
            assert!(metrics.total_ops > 0);
        }
    }

    /// A data triangle with a repeated color has no colorful matches.
    #[test]
    fn triangle_without_colors_counts_zero() {
        for (algorithm, total, _) in triangle_totals(vec![0, 0, 1]) {
            assert_eq!(total, 0, "{algorithm}");
        }
    }

    /// Solves every block of `tree` bottom-up, as the executor's one-shard
    /// walk does, with `tile_edges` as the tile budget.
    fn solve_tree(
        ctx: &Context<'_>,
        tree: &DecompositionTree,
        algorithm: Algorithm,
        tile_edges: usize,
    ) -> (Count, RunMetrics) {
        let mut arena = KernelArena::new();
        let mut metrics = RunMetrics::new(ctx.partition.num_ranks());
        let plan = ShardPlan::new(ctx.graph.num_vertices(), 1).unwrap();
        let mut tables: Vec<Option<BlockTable>> = vec![None; tree.blocks.len()];
        for block in &tree.blocks {
            let index = BlockJoinIndex::build(block, &tables, |_| RowGroups::default());
            let partial = solve_block_tiled(
                ctx,
                tree,
                block,
                &index,
                algorithm,
                tile_edges,
                &mut arena,
                &mut metrics,
            );
            let table = combine(vec![partial], &plan, &mut ShardMetrics::new(1));
            tables[block.id] = Some(table);
        }
        let root = tree.root.expect("registry queries have at least one edge");
        (tables[root].as_ref().unwrap().total(), metrics)
    }

    /// Tiling is invisible in everything but the peak: one start per tile,
    /// the shipped budget and a single tile report the same count, the same
    /// operations per simulated rank and the same created entries on every
    /// registry query, on a skewed graph that needs several shipped tiles.
    #[test]
    fn tile_budget_changes_nothing_but_the_peak() {
        let degrees: Vec<f64> = sgc_gen::power_law_degrees(600, 1.6)
            .iter()
            .map(|d| d * 2.0)
            .collect();
        let g = sgc_gen::chung_lu(&degrees, 5);
        let prep = GraphPrep::new(&g);
        let one_tile = usize::MAX;
        for entry in sgc_query::Registry::builtin().entries() {
            let query = entry.query();
            let tree = sgc_query::heuristic_plan(query).unwrap();
            let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), 7);
            let ctx = Context::new(&g, &prep, &coloring, 8).unwrap();
            assert!(ctx.start_tiles(TILE_EDGES).count() > 1, "graph too small");
            for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
                let (count, whole) = solve_tree(&ctx, &tree, algorithm, one_tile);
                for budget in [0, TILE_EDGES] {
                    let what = format!("{} with {algorithm}, budget {budget}", entry.name());
                    let (tiled_count, tiled) = solve_tree(&ctx, &tree, algorithm, budget);
                    assert_eq!(tiled_count, count, "{what}");
                    assert_eq!(tiled.total_ops, whole.total_ops, "{what}");
                    assert_eq!(tiled.load.per_rank(), whole.load.per_rank(), "{what}");
                    assert_eq!(tiled.entries_created, whole.entries_created, "{what}");
                    assert!(
                        tiled.peak_table_entries <= whole.peak_table_entries,
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_reuses_arenas_lifo() {
        let pool = ArenaPool::new();
        let (arena, reused) = pool.checkout();
        assert!(!reused);
        pool.give_back(arena);
        let (_, reused) = pool.checkout();
        assert!(reused);
    }

    #[test]
    fn kernel_metrics_record_and_absorb() {
        let mut m = KernelMetrics::default();
        m.record_checkout(100, false, 100);
        m.record_checkout(80, true, 0);
        assert_eq!(m.arena_bytes, 100);
        assert_eq!(m.arena_reuses, 1);
        assert_eq!(m.arena_grown_bytes, 100);
        let mut other = KernelMetrics::default();
        other.record_checkout(200, true, 50);
        m.absorb(&other);
        assert_eq!(m.arena_bytes, 200);
        assert_eq!(m.arena_reuses, 2);
        assert_eq!(m.arena_grown_bytes, 150);
    }
}
