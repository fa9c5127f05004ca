//! The DP kernel: solving one block into its projection table.
//!
//! This module turns one block of the decomposition tree into its projection
//! table, given the already-computed tables of its children, by running the
//! block's path program (`paths::PathProgram`) once per start-vertex tile:
//!
//! * leaf-edge blocks are a one-path program — a short chain of joins (edge
//!   realization plus the node annotations of the two endpoints) — followed
//!   by a projection onto the boundary node; a *bare pendant* (a graph edge
//!   whose ends carry no annotation) is that projection alone, counting
//!   each start's neighbours by colour,
//! * cycle blocks are split into two path segments, each built by a
//!   sequence of joins (initial edge, EdgeJoin, NodeJoin — Figures 4, 6 and
//!   7), and merged back; the PS algorithm uses a single split at the
//!   boundary nodes, the DB algorithm one split per candidate highest node
//!   `a_h`, aggregated (Equation 1). The program runs one run per distinct
//!   split: each distinct path step once per tile, each distinct merge once
//!   with its multiplicity.
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
//!   block's projection accumulator spans tiles. Tiles are the outer loop
//!   and the program's run the inner one,
//! * every path of a tile whose first edge is a graph edge starts from the
//!   same edge set (`P+` and `P-` of every DB split, both PS paths, an
//!   annotated leaf-edge chain): the tile's seeds are enumerated once, into
//!   an appended table the first steps copy their tables from. A path
//!   tracks only its interior boundary nodes in extra slots — its start and
//!   end stay in key fields 0 and 1 until the merge writes their slots — so
//!   first steps differ only by how they realize the edge and which
//!   interior node they track. A bare pendant's projection is the seeds
//!   summed by start and colour: it counts them straight from the graph
//!   into a `k`-entry counter and builds no seed table,
//! * only join outputs are hashed: a first table's keys — seed edges, or a
//!   child slice's rows — are distinct by construction, so it is appended
//!   ([`ColumnarTable::append`]) without probing, and so are a bare
//!   pendant's `(start, colour pair)` rows; a semi step (the EdgeJoin
//!   mapping the end of an uneven split's longer path) probes its partner's
//!   endpoint groups first and hashes only the rows the merge can pair,
//! * every path table is sorted by start, so the merge and the semi steps
//!   find a row's partners through [`EndpointGroups`], which indexes the
//!   partner table one start's run of rows at a time by a dense per-vertex
//!   mark: a probe hashes nothing and no row is copied.
//!
//! Every examined candidate is attributed to the simulated rank owning the
//! vertex at which the paper's distributed engine would have performed the
//! operation, as many times as the written algorithm examines it: a shared
//! step records its operations once per written step it stands for.
//! `solve_block` is the kernel's one entry point, and the block-step
//! executor (`runtime::executor`) its one caller; counts are checked
//! against the independent oracles in [`crate::brute`] and `tests/treelet/`
//! (a tree-query DP of its own) and the committed golden fixtures.

use crate::context::Context;
use crate::metrics::RunMetrics;
use crate::paths::{
    combine_extras, BlockJoinIndex, Field, Instr, Merge, PathProgram, Step, StepOp, Via,
};
use sgc_engine::columnar::{path_key, KEY_FIELDS};
use sgc_engine::{BlockTable, ColumnarTable, Count, EndpointGroups, RowGroups, Signature};
use sgc_graph::vertex::{VertexId, NO_VERTEX};
use sgc_query::{Block, BlockId};
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
/// `seeds` holds the current tile's graph-edge seeds; `by_color` a bare
/// pendant's neighbour counts of one start, by colour; `paths` the path
/// tables a path program run addresses — the two ping-pong tables of a
/// join chain, the parked `P+` of a split while its `P-` is built, and the
/// memo tables of the steps two or more consumers read, each alive until
/// the tile ends; `proj` accumulates the block projection (across all tiles
/// and DB splits); `groups` is the endpoint index of the path merge and the
/// semi steps (per-vertex marks and a per-row chain lane).
#[derive(Debug, Default)]
pub struct KernelArena {
    /// The current tile's graph-edge seeds.
    seeds: TileSeeds,
    /// A bare pendant's per-colour neighbour counts of one start vertex.
    by_color: Vec<Count>,
    /// The path tables of a program run, by the program's table number.
    paths: Vec<ColumnarTable>,
    /// The block projection accumulator (summed over DB splits); between
    /// two solves, the table the exchange sums one owner's rows in.
    pub(crate) proj: ColumnarTable,
    /// Endpoint-grouping scratch for the path merge and the semi steps.
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
        self.seeds.capacity_bytes()
            + self.by_color.capacity() * mem::size_of::<Count>()
            + (self.paths.iter())
                .map(ColumnarTable::capacity_bytes)
                .sum::<usize>()
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

/// One start-vertex tile's graph-edge seeds: the data edges `(u, w)` with
/// `u` in the tile and `c(u) ≠ c(w)` — in DB mode only those with `w`
/// below `u` in the degree order, the only first edges a high-starting path
/// can take. `high_start` is fixed for a block solve, so this one set is the
/// first table of every path of the tile whose first edge is a graph edge,
/// up to the interior slot each path sets. A bare pendant's projection
/// counts the same edges without storing them.
#[derive(Debug, Default)]
struct TileSeeds {
    /// One `(u, w, {c(u), c(w)}, 1)` row per seed, appended: the keys are
    /// distinct by construction.
    table: ColumnarTable,
    /// The seed step's operations per simulated rank, as `(rank, ops)`
    /// runs in start-vertex order — what each written path build records.
    ops: Vec<(usize, u64)>,
    /// Whether `table` and `ops` hold the current tile's seeds.
    filled: bool,
}

impl TileSeeds {
    /// Forgets the seeds: the next [`fill`](Self::fill) enumerates afresh.
    /// Called at the start of every tile of every block solve.
    fn clear(&mut self) {
        self.filled = false;
    }

    /// Enumerates the seeds of the tile `starts`, unless this tile's are
    /// already here — so a tile whose paths all start on an annotated edge
    /// enumerates nothing.
    fn fill(&mut self, joins: &Joins<'_, '_>, starts: Range<VertexId>) {
        if self.filled {
            return;
        }
        self.filled = true;
        self.table.reset();
        self.ops.clear();
        let ctx = joins.ctx;
        for u in starts {
            let cu = ctx.color(u);
            // In DB mode only the neighbors strictly below the start vertex
            // in the degree order can appear on a high-starting path, so the
            // pruned list is enumerated directly.
            let neighbors = if joins.high_start {
                ctx.lower_neighbors(u, u)
            } else {
                ctx.graph.neighbors(u)
            };
            let rank = ctx.partition.owner(u);
            let ops = neighbors.len() as u64;
            match self.ops.last_mut() {
                Some((last, sum)) if *last == rank => *sum += ops,
                _ => self.ops.push((rank, ops)),
            }
            for &w in neighbors {
                let cw = ctx.color(w);
                if cu != cw {
                    self.table
                        .append(path_key(u, w), Signature::pair(cu, cw), 1);
                }
            }
        }
    }

    /// Allocated bytes of the seed table and the op runs.
    fn capacity_bytes(&self) -> usize {
        self.table.capacity_bytes() + self.ops.capacity() * mem::size_of::<(usize, u64)>()
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
/// grouped by owner, ready for the exchange. `program` is the block's
/// [`PathProgram`] under the run's algorithm.
///
/// A path row never changes its start vertex (key field 0), so every path
/// table of the block partitions by start. The solve walks the start range
/// in tiles of at most [`TILE_EDGES`] incident edges and runs the whole
/// program — path steps, merges or the leaf-edge projection — per tile into
/// the shared projection accumulator: the working set is one tile's tables
/// whatever the size of the graph. Counts, operation counts and created
/// entries equal the one-tile solve's exactly (tile table lengths sum to the
/// logical table's); only the peak table size shrinks.
pub(crate) fn solve_block(
    ctx: &Context<'_>,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    program: &PathProgram,
    arena: &mut KernelArena,
    metrics: &mut RunMetrics,
) -> RowGroups {
    solve_block_tiled(ctx, block, index, program, TILE_EDGES, arena, metrics)
}

/// [`solve_block`] with the tile budget as a parameter (the tile-invariance
/// test sweeps it).
fn solve_block_tiled(
    ctx: &Context<'_>,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    program: &PathProgram,
    tile_edges: usize,
    arena: &mut KernelArena,
    metrics: &mut RunMetrics,
) -> RowGroups {
    let joins = Joins {
        ctx,
        index,
        high_start: program.high_start(),
    };
    let partial = arena.take_rows(PARTIAL_ROWS);
    let KernelArena {
        seeds,
        by_color,
        paths,
        proj,
        groups,
        ..
    } = arena;
    // Tables are only ever added: every block and every later trial on this
    // arena finds the buffers the table numbers sized before.
    if paths.len() < program.tables() {
        paths.resize_with(program.tables(), ColumnarTable::default);
    }
    proj.reset();
    // The table the last `Group` indexed: the partner of the semi step and
    // the semi merge after it.
    let mut grouped = None;
    for tile in ctx.start_tiles(tile_edges) {
        seeds.clear();
        for instr in program.run() {
            match instr {
                Instr::Step(step) => {
                    let semi = step.semi.then(|| {
                        let partner = grouped.expect("a semi step follows its partner's Group");
                        (&mut *groups, partner)
                    });
                    run_step(&joins, step, semi, tile.clone(), seeds, paths, metrics)
                }
                Instr::Group(table) => {
                    groups.build(&paths[*table]);
                    grouped = Some(*table);
                }
                Instr::Merge(merge) => merge_paths(
                    ctx,
                    block,
                    &paths[merge.plus],
                    &paths[merge.minus],
                    merge,
                    groups,
                    proj,
                    metrics,
                ),
                Instr::Project {
                    table: Some(table),
                    field,
                } => project(&paths[*table], *field, proj),
                Instr::Project { table: None, field } => {
                    project_pendant(ctx, tile.clone(), field.is_some(), by_color, proj, metrics)
                }
            }
        }
    }
    if block.kind.is_cycle() {
        // The accumulator is one table however many tiles and splits fed it.
        metrics.observe_table(proj.len());
    }
    export_projection(ctx, block, proj, partial, metrics)
}

/// What the joins of one block solve consult: the shard's context, the
/// block's child tables, and whether only high-starting paths are built.
struct Joins<'a, 'b> {
    /// Shared run context.
    ctx: &'b Context<'a>,
    /// The block's child tables.
    index: &'b BlockJoinIndex<'b>,
    /// DB mode: require `start ≻ w` for every newly mapped cycle node `w`.
    high_start: bool,
}

impl<'b> Joins<'_, 'b> {
    /// The child table realizing an edge, keyed by the image of the
    /// traversal's source node (`None` for a graph edge).
    fn edge_child(&self, via: Via) -> Option<&'b BlockTable> {
        match via {
            Via::Graph => None,
            Via::Child {
                annotation,
                forward,
            } => Some(self.index.edge_table(annotation, forward)),
        }
    }
}

/// Runs one path step of a tile: reads table `step.src` of `tables` (or the
/// tile's seeds), writes table `step.dst`. `semi` is the endpoint groups and
/// the table number of a semi step's partner (a semi step is always an
/// EdgeJoin).
fn run_step(
    joins: &Joins<'_, '_>,
    step: &Step,
    semi: Option<(&mut EndpointGroups, usize)>,
    tile: Range<VertexId>,
    seeds: &mut TileSeeds,
    tables: &mut [ColumnarTable],
    metrics: &mut RunMetrics,
) {
    let weight = step.weight;
    debug_assert!(semi.is_none() || matches!(step.op, StepOp::EdgeJoin { .. }));
    // Only `dst` is written: the source and a semi step's partner (which
    // may be one table) are read in place.
    let mut dst = mem::take(&mut tables[step.dst]);
    let src = || {
        debug_assert_ne!(step.src, step.dst, "a join reads another table");
        &tables[step.src]
    };
    match step.op {
        StepOp::First { via, to_slot } => {
            initial_join(joins, via, to_slot, tile, seeds, &mut dst, weight, metrics);
        }
        StepOp::NodeJoin { field, child } => {
            let child = joins.index.child_table(child);
            node_join(joins.ctx, src(), &mut dst, field, child, weight, metrics);
        }
        StepOp::EdgeJoin { via, to_slot } => {
            let (src, dst) = (src(), &mut dst);
            match semi {
                Some((groups, partner)) => {
                    // `src` streams in start order, so the partner's runs
                    // load in order.
                    let partner = &tables[partner];
                    let paired = |start, w| groups.contains(partner, start, w);
                    edge_join(joins, src, dst, via, to_slot, paired, weight, metrics)
                }
                None => edge_join(joins, src, dst, via, to_slot, |_, _| true, weight, metrics),
            }
        }
    }
    tables[step.dst] = dst;
}

/// Seeds the initial table for the first edge of the paths starting in
/// `starts` (one tile of the context's start range), with the second node's
/// image in its extra slot `to_slot`, if any. Its keys are distinct by
/// construction, so every row is appended without probing. The step stands
/// for `weight` written ones.
#[allow(clippy::too_many_arguments)]
fn initial_join(
    joins: &Joins<'_, '_>,
    via: Via,
    to_slot: Option<usize>,
    starts: Range<VertexId>,
    seeds: &mut TileSeeds,
    out: &mut ColumnarTable,
    weight: u64,
    metrics: &mut RunMetrics,
) {
    let ctx = joins.ctx;
    out.reset();
    let seed_key = |u: VertexId, w: VertexId| {
        let mut key = path_key(u, w);
        if let Some(slot) = to_slot {
            key[2 + slot] = w;
        }
        key
    };
    match joins.edge_child(via) {
        None => {
            // Every path entry keeps its start vertex for its whole life, so
            // restricting the seeds to a vertex range (a tile of a shard's
            // range) partitions the block's entire table by start. The
            // tile's first graph-realised step enumerates them; every
            // written path records the enumeration's operations as if it
            // had done it.
            seeds.fill(joins, starts);
            for &(rank, ops) in &seeds.ops {
                metrics.record_rank_ops(rank, ops * weight);
            }
            for (key, sig, count) in seeds.table.rows() {
                out.append(seed_key(key[0], key[1]), sig, count);
            }
        }
        Some(child) => {
            // A child row's `u` is the path's start vertex; seeding only
            // from the range's vertices partitions the table by start,
            // exactly like the range restriction above. A child slice's
            // `(v, sig)` rows are distinct, so the keys are too.
            for u in starts {
                let list = child.get(u);
                metrics.record_ops(&ctx.partition, u, list.len() as u64 * weight);
                for row in list {
                    let w = row.v;
                    if joins.high_start && !ctx.order().higher(u, w) {
                        continue;
                    }
                    out.append(seed_key(u, w), row.sig, row.count);
                }
            }
        }
    }
    metrics.observe_tables(out.len(), weight);
}

/// NodeJoin: folds a child block's unary table into `src` at the given key
/// field, writing the result to `dst`. The step stands for `weight` written
/// ones.
fn node_join(
    ctx: &Context<'_>,
    src: &ColumnarTable,
    dst: &mut ColumnarTable,
    field: Field,
    child: &BlockTable,
    weight: u64,
    metrics: &mut RunMetrics,
) {
    dst.reset();
    for (key, sig, count) in src.rows() {
        let x = match field {
            Field::Start => key[0],
            Field::End => key[1],
        };
        let list = child.get(x);
        metrics.record_ops(&ctx.partition, x, list.len() as u64 * weight);
        let shared = ctx.color_sig(x);
        for row in list {
            if sig.intersection(row.sig) != shared {
                continue;
            }
            dst.add(key, sig.union(row.sig), count * row.count);
        }
    }
    metrics.observe_tables(dst.len(), weight);
}

/// EdgeJoin: extends every path in `src` by one block edge, realized by
/// `via`, from its current end into `dst`; the new end's image goes to the
/// extra slot `to_slot`, if any. It keeps only the candidates `paired`
/// accepts — of a semi step, those whose `(start, new end)` pair the
/// partner has, probed after the candidate's operation is recorded and
/// before its colour check: a rejected candidate (almost all of them) costs
/// one mark load. Every other step pairs everything, and compiles to a
/// loop without the probe. The step stands for `weight` written ones.
#[allow(clippy::too_many_arguments)]
fn edge_join(
    joins: &Joins<'_, '_>,
    src: &ColumnarTable,
    dst: &mut ColumnarTable,
    via: Via,
    to_slot: Option<usize>,
    mut paired: impl FnMut(VertexId, VertexId) -> bool,
    weight: u64,
    metrics: &mut RunMetrics,
) {
    let ctx = joins.ctx;
    dst.reset();
    let child = joins.edge_child(via);
    for (key, sig, count) in src.rows() {
        let v = key[1];
        let shared = ctx.color_sig(v);
        match child {
            None => {
                let neighbors = if joins.high_start {
                    ctx.lower_neighbors(v, key[0])
                } else {
                    ctx.graph.neighbors(v)
                };
                metrics.record_ops(&ctx.partition, v, neighbors.len() as u64 * weight);
                for &w in neighbors {
                    if !paired(key[0], w) {
                        continue;
                    }
                    let cw = ctx.color(w);
                    if sig.contains(cw) {
                        continue;
                    }
                    let mut new_key = key;
                    new_key[1] = w;
                    if let Some(slot) = to_slot {
                        new_key[2 + slot] = w;
                    }
                    dst.add(new_key, sig.with(cw), count);
                }
            }
            Some(child) => {
                let list = child.get(v);
                metrics.record_ops(&ctx.partition, v, list.len() as u64 * weight);
                for row in list {
                    let w = row.v;
                    if joins.high_start && !ctx.order().higher(key[0], w) {
                        continue;
                    }
                    if !paired(key[0], w) {
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
                    dst.add(new_key, sig.union(row.sig), count * row.count);
                }
            }
        }
    }
    metrics.observe_tables(dst.len(), weight);
}

/// Projects a leaf-edge block's finished path table onto the key field
/// holding its boundary node's image (`None`: onto the scalar total).
fn project(table: &ColumnarTable, field: Option<usize>, proj: &mut ColumnarTable) {
    match field {
        None => proj.add([NO_VERTEX; KEY_FIELDS], Signature::empty(), table.total()),
        Some(f) => {
            for (key, sig, count) in table.rows() {
                proj.add([key[f], NO_VERTEX, NO_VERTEX, NO_VERTEX], sig, count);
            }
        }
    }
}

/// Projects a bare pendant — a leaf-edge block realized by the graph whose
/// ends carry no annotation — for the starts of one tile, straight from the
/// graph: each start `u`'s neighbours `w` with `c(w) ≠ c(u)`, counted by
/// colour in `by_color`, become one row `(u, {c(u), c}, n)` per colour `c`
/// met (`keyed`), or are summed onto the scalar total. The written
/// algorithm's first table holds one `(u, w, {c(u), c(w)}, 1)` row per such
/// neighbour and [`project`] sums those rows by `(u, signature)` into the
/// same rows, which are distinct by construction: they are appended, and
/// nothing is hashed. Operations (`neighbors(u).len()` at `u`'s rank) and
/// the observed seed count are the first step's.
fn project_pendant(
    ctx: &Context<'_>,
    starts: Range<VertexId>,
    keyed: bool,
    by_color: &mut Vec<Count>,
    proj: &mut ColumnarTable,
    metrics: &mut RunMetrics,
) {
    by_color.clear();
    by_color.resize(ctx.num_colors(), 0);
    let mut seeds: Count = 0;
    for u in starts {
        let neighbors = ctx.graph.neighbors(u);
        metrics.record_ops(&ctx.partition, u, neighbors.len() as u64);
        for &w in neighbors {
            by_color[ctx.color(w) as usize] += 1;
        }
        let cu = ctx.color(u);
        by_color[cu as usize] = 0;
        for (c, n) in by_color.iter_mut().enumerate() {
            if *n == 0 {
                continue;
            }
            seeds += *n;
            if keyed {
                let key = [u, NO_VERTEX, NO_VERTEX, NO_VERTEX];
                proj.append(key, Signature::pair(cu, c as u8), *n);
            }
            *n = 0;
        }
    }
    metrics.observe_table(seeds as usize);
    if !keyed {
        proj.add([NO_VERTEX; KEY_FIELDS], Signature::empty(), seeds);
    }
}

/// Merges the two path tables of a split into the projection accumulator
/// (Procedure 2 of Figures 4 and 6): join on the shared endpoints, require
/// the signatures to overlap exactly in the endpoint colors, and key the
/// output by the images of the block's boundary nodes. The merge stands for
/// `merge.multiplicity` written ones: it adds every count and records every
/// operation that many times (in release builds, exactly the wrapping sum
/// of that many equal adds). A semi merge streams `plus` over `groups` as
/// the program's `Group` left them, over `minus`.
///
/// Both tables are sorted by start and the outer one streams in that order,
/// so the endpoint groups index the inner table one start's run at a time:
/// an outer row's partners are the chain of its `(start, end)` pair.
#[allow(clippy::too_many_arguments)]
fn merge_paths(
    ctx: &Context<'_>,
    block: &Block,
    plus: &ColumnarTable,
    minus: &ColumnarTable,
    merge: &Merge,
    groups: &mut EndpointGroups,
    proj: &mut ColumnarTable,
    metrics: &mut RunMetrics,
) {
    // The merged pair set is symmetric in the two tables (pairs sharing
    // endpoints, counts multiplied), so index the smaller table and stream
    // the larger one over it — unless the semi step already indexed
    // `minus`. Load attribution is unaffected: every pair is attributed to
    // the owner of the shared end vertex either way.
    let (inner, outer) = if merge.semi || minus.len() < plus.len() {
        (minus, plus)
    } else {
        (plus, minus)
    };
    if !merge.semi {
        groups.build(inner);
    }
    let (start_slot, end_slot, m) = (merge.start_slot, merge.end_slot, merge.multiplicity);
    match block.boundary.len() {
        // A boundary-free root cycle only ever needs the grand total:
        // accumulate it in a register (extras are never set in a
        // boundary-free block, so the extras merge can never fail) and
        // store one row at the end.
        0 => {
            let mut total: Count = 0;
            for r in 0..outer.len() {
                let (u, v) = outer.endpoints(r);
                let Some(partners) = partners(groups, inner, u, v) else {
                    continue;
                };
                let shared = Signature::pair(ctx.color(u), ctx.color(v));
                let osig = outer.sig(r);
                let ocount = outer.count(r);
                let mut pairs = 0;
                for i in partners {
                    pairs += 1;
                    if osig.intersection(inner.sig(i)) == shared {
                        total += ocount * inner.count(i);
                    }
                }
                metrics.record_ops(&ctx.partition, v, pairs * m);
            }
            proj.add([NO_VERTEX; KEY_FIELDS], Signature::empty(), total * m);
        }
        arity @ (1 | 2) => {
            for r in 0..outer.len() {
                let (u, v) = outer.endpoints(r);
                let Some(partners) = partners(groups, inner, u, v) else {
                    continue;
                };
                let shared = Signature::pair(ctx.color(u), ctx.color(v));
                let osig = outer.sig(r);
                let ocount = outer.count(r) * m;
                let oextras = outer.extras(r);
                let mut pairs = 0;
                for i in partners {
                    pairs += 1;
                    let isig = inner.sig(i);
                    if osig.intersection(isig) != shared {
                        continue;
                    }
                    let Some(mut extras) = combine_extras(oextras, inner.extras(i)) else {
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
                    let count = ocount * inner.count(i);
                    debug_assert_ne!(extras[0], NO_VERTEX);
                    if arity == 1 {
                        proj.add([extras[0], NO_VERTEX, NO_VERTEX, NO_VERTEX], sig, count);
                    } else {
                        debug_assert_ne!(extras[1], NO_VERTEX);
                        proj.add([extras[0], extras[1], NO_VERTEX, NO_VERTEX], sig, count);
                    }
                }
                metrics.record_ops(&ctx.partition, v, pairs * m);
            }
        }
        _ => unreachable!(),
    }
}

/// The rows of `inner` — the table `groups` index — whose `(start, end)` is
/// `(u, v)`, in insertion order; `None` if there are none.
fn partners<'g>(
    groups: &'g mut EndpointGroups,
    inner: &ColumnarTable,
    u: VertexId,
    v: VertexId,
) -> Option<impl Iterator<Item = usize> + 'g> {
    let first = groups.first(inner, u, v)?;
    let groups = &*groups;
    Some(std::iter::successors(Some(first), move |&i| groups.next(i)))
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
    use crate::config::Algorithm;
    use crate::context::GraphPrep;
    use crate::metrics::ShardMetrics;
    use crate::runtime::exchange::tests::combine;
    use sgc_graph::{BlockPartition, Coloring, CsrGraph, GraphBuilder};
    use sgc_query::{decompose, DecompositionTree, QueryGraph};

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
                let block = &tree.blocks[0];
                let index = BlockJoinIndex::build(block, &[None], |_| RowGroups::default());
                let program = PathProgram::compile(&tree, block, algorithm);
                let partial = solve_block(&ctx, block, &index, &program, &mut arena, &mut metrics);
                pool.give_back(arena);
                (algorithm, partial.total(), metrics)
            })
            .collect()
    }

    /// A rainbow data triangle has 3! = 6 colorful matches of the triangle
    /// query (one per orientation), for both algorithms (the module-level
    /// smoke test; the differential suites against the brute-force and
    /// treelet oracles are `tests/correctness.rs` and `tests/property.rs`).
    /// The per-rank operation counts are pinned too: every written path
    /// records its seed step's operations, although the paths of a tile
    /// share one enumeration and DB's three splits one first step.
    #[test]
    fn rainbow_triangle_has_six_colorful_matches() {
        for (algorithm, total, metrics) in triangle_totals(vec![0, 1, 2]) {
            assert_eq!(total, 6, "{algorithm}");
            let load: &[u64] = match algorithm {
                Algorithm::PathSplitting => &[10, 10, 10, 0],
                Algorithm::DegreeBased => &[6, 12, 12, 0],
            };
            assert_eq!(metrics.load.per_rank(), load, "{algorithm}");
            assert_eq!(metrics.total_ops, 30, "{algorithm}");
        }
    }

    /// A data triangle with a repeated color has no colorful matches.
    #[test]
    fn triangle_without_colors_counts_zero() {
        for (algorithm, total, _) in triangle_totals(vec![0, 0, 1]) {
            assert_eq!(total, 0, "{algorithm}");
        }
    }

    /// A block's program under an algorithm: [`PathProgram::compile`] or
    /// the written algorithm's [`PathProgram::compile_unshared`].
    type Compile = fn(&DecompositionTree, &Block, Algorithm) -> PathProgram;

    /// Solves every block of `tree` bottom-up, as the executor's walk does:
    /// each shard of `plan` solves its partial in its context of `contexts`
    /// with `tile_edges` as the tile budget, and the exchange combines them.
    fn solve_tree(
        contexts: &[Context<'_>],
        plan: &BlockPartition,
        tree: &DecompositionTree,
        algorithm: Algorithm,
        compile: Compile,
        tile_edges: usize,
    ) -> (Count, RunMetrics) {
        let mut arena = KernelArena::new();
        let mut metrics = RunMetrics::new(contexts[0].partition.num_ranks());
        let mut tables: Vec<Option<BlockTable>> = vec![None; tree.blocks.len()];
        for block in &tree.blocks {
            let index = BlockJoinIndex::build(block, &tables, |_| RowGroups::default());
            let program = compile(tree, block, algorithm);
            let partials = (contexts.iter())
                .map(|ctx| {
                    let (arena, metrics) = (&mut arena, &mut metrics);
                    solve_block_tiled(ctx, block, &index, &program, tile_edges, arena, metrics)
                })
                .collect();
            let table = combine(partials, plan, &mut ShardMetrics::new(contexts.len()));
            tables[block.id] = Some(table);
        }
        let root = tree.root.expect("registry queries have at least one edge");
        (tables[root].as_ref().unwrap().total(), metrics)
    }

    /// The skewed 600-vertex graph of the tile and program tests: its hubs
    /// need several shipped tiles.
    fn skewed_graph() -> CsrGraph {
        let degrees: Vec<f64> = sgc_gen::power_law_degrees(600, 1.6)
            .iter()
            .map(|d| d * 2.0)
            .collect();
        sgc_gen::chung_lu(&degrees, 5)
    }

    /// Tiling is invisible in everything but the peak: one start per tile,
    /// the shipped budget and a single tile report the same count, the same
    /// operations per simulated rank and the same created entries on every
    /// registry query, on a skewed graph that needs several shipped tiles.
    #[test]
    fn tile_budget_changes_nothing_but_the_peak() {
        let g = skewed_graph();
        let prep = GraphPrep::new(&g);
        let one_tile = usize::MAX;
        let plan = BlockPartition::new(g.num_vertices(), 1);
        for entry in sgc_query::Registry::builtin().entries() {
            let query = entry.query();
            let tree = sgc_query::heuristic_plan(query).unwrap();
            let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), 7);
            let ctx = Context::new(&g, &prep, &coloring, 8).unwrap();
            assert!(ctx.start_tiles(TILE_EDGES).count() > 1, "graph too small");
            let contexts = [ctx];
            let compile: Compile = PathProgram::compile;
            for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
                let solve =
                    |budget| solve_tree(&contexts, &plan, &tree, algorithm, compile, budget);
                let (count, whole) = solve(one_tile);
                for budget in [0, TILE_EDGES] {
                    let what = format!("{} with {algorithm}, budget {budget}", entry.name());
                    let (tiled_count, tiled) = solve(budget);
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

    /// Sharing steps and merges is invisible in everything but the time: on
    /// every registry query, under PS and DB, at every tile budget, serial
    /// and over three shards, the compiled program reports the count,
    /// operations, per-rank load, created entries and peak of the written
    /// algorithm — the program that shares nothing.
    #[test]
    fn the_path_program_changes_nothing_but_time() {
        let g = skewed_graph();
        let prep = GraphPrep::new(&g);
        let mut shared_somewhere = false;
        for entry in sgc_query::Registry::builtin().entries() {
            let query = entry.query();
            let tree = sgc_query::heuristic_plan(query).unwrap();
            let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), 7);
            for shards in [1, 3] {
                let plan = BlockPartition::new(g.num_vertices(), shards);
                let contexts: Vec<Context<'_>> = (0..shards)
                    .map(|s| Context::for_shard(&g, &prep, &coloring, 8, &plan, s))
                    .collect();
                for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
                    shared_somewhere |= (tree.blocks.iter())
                        .map(|block| PathProgram::compile(&tree, block, algorithm))
                        .any(|p| p.distinct_steps() as u64 != p.written_steps());
                    for budget in [0, TILE_EDGES, usize::MAX] {
                        let what = format!(
                            "{} with {algorithm}, {shards} shard(s), budget {budget}",
                            entry.name()
                        );
                        let solve = |compile| {
                            solve_tree(&contexts, &plan, &tree, algorithm, compile, budget)
                        };
                        let (count, shared) = solve(PathProgram::compile);
                        let (written_count, written) = solve(PathProgram::compile_unshared);
                        assert_eq!(count, written_count, "{what}");
                        assert_eq!(shared.total_ops, written.total_ops, "{what}");
                        assert_eq!(shared.load.per_rank(), written.load.per_rank(), "{what}");
                        assert_eq!(shared.entries_created, written.entries_created, "{what}");
                        assert_eq!(
                            shared.peak_table_entries, written.peak_table_entries,
                            "{what}"
                        );
                    }
                }
            }
        }
        assert!(shared_somewhere, "no program shared a step");
    }

    /// A bare pendant's projection counts each start's neighbours by colour
    /// instead of projecting the seed table the written algorithm builds:
    /// on every bare-pendant block of the registry, `path(4)` and the one
    /// edge `path(2)` (a bare pendant at the root, projected onto the
    /// scalar), serial and over three shards, at every tile budget, each
    /// shard's exported rows are the written program's as a multiset, and
    /// so are its operations, per-rank load, created entries and peak.
    #[test]
    fn a_bare_pendant_counts_what_its_projection_built() {
        let g = skewed_graph();
        let prep = GraphPrep::new(&g);
        let registry = sgc_query::Registry::builtin();
        let queries = (registry.entries())
            .map(|entry| (entry.name().to_string(), entry.query().clone()))
            .chain([2, 4].map(|n| (format!("path({n})"), sgc_query::catalog::path(n))));
        let (mut keyed, mut scalar) = (0, 0);
        for (name, query) in queries {
            let tree = sgc_query::heuristic_plan(&query).unwrap();
            let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), 7);
            for block in &tree.blocks {
                let algorithm = Algorithm::DegreeBased;
                let program = PathProgram::compile(&tree, block, algorithm);
                if !matches!(program.run(), [Instr::Project { table: None, .. }]) {
                    continue;
                }
                match block.boundary.len() {
                    0 => scalar += 1,
                    _ => keyed += 1,
                }
                let written = PathProgram::compile_unshared(&tree, block, algorithm);
                // A bare pendant reads no child table.
                let index = BlockJoinIndex::build(block, &[], |_| RowGroups::default());
                for shards in [1, 3] {
                    let plan = BlockPartition::new(g.num_vertices(), shards);
                    let contexts: Vec<Context<'_>> = (0..shards)
                        .map(|s| Context::for_shard(&g, &prep, &coloring, 8, &plan, s))
                        .collect();
                    for budget in [0, TILE_EDGES, usize::MAX] {
                        let solve = |program: &PathProgram| {
                            let mut arena = KernelArena::new();
                            let mut metrics = RunMetrics::new(8);
                            let (a, m) = (&mut arena, &mut metrics);
                            let partials: Vec<RowGroups> = (contexts.iter())
                                .map(|ctx| {
                                    solve_block_tiled(ctx, block, &index, program, budget, a, m)
                                })
                                .collect();
                            (partials, metrics)
                        };
                        let (partials, counted) = solve(&program);
                        let (written_partials, projected) = solve(&written);
                        let what = format!(
                            "{name} block {}, {shards} shard(s), budget {budget}",
                            block.id
                        );
                        for (a, b) in partials.iter().zip(&written_partials) {
                            let sorted = |rows: &RowGroups| {
                                let mut rows = rows.rows().to_vec();
                                rows.sort_unstable();
                                rows
                            };
                            assert_eq!(sorted(a), sorted(b), "{what}");
                            assert_eq!(a.is_scalar(), b.is_scalar(), "{what}");
                            assert_eq!(a.total(), b.total(), "{what}");
                        }
                        assert_eq!(counted.total_ops, projected.total_ops, "{what}");
                        assert_eq!(counted.load.per_rank(), projected.load.per_rank(), "{what}");
                        assert_eq!(counted.entries_created, projected.entries_created, "{what}");
                        assert_eq!(
                            counted.peak_table_entries, projected.peak_table_entries,
                            "{what}"
                        );
                    }
                }
            }
        }
        assert!(keyed > 0 && scalar > 0, "keyed {keyed}, scalar {scalar}");
    }

    /// Semi-joining an uneven split's longer path against its shorter one
    /// drops only rows no merge can pair: on every registry query, under PS
    /// and DB, at every tile budget, serial and over three shards, the
    /// compiled program reports the count, operations and per-rank load of
    /// the written algorithm that builds every path in full, and never more
    /// created entries or a larger peak — strictly fewer entries on some odd
    /// cycle, and exactly as many wherever no split is uneven.
    #[test]
    fn the_semi_join_changes_nothing_but_table_sizes() {
        let g = skewed_graph();
        let prep = GraphPrep::new(&g);
        let mut fired = false;
        for entry in sgc_query::Registry::builtin().entries() {
            let query = entry.query();
            let tree = sgc_query::heuristic_plan(query).unwrap();
            let odd_cycle =
                (tree.blocks.iter()).any(|b| b.kind.is_cycle() && b.cycle_length() % 2 == 1);
            let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), 7);
            for shards in [1, 3] {
                let plan = BlockPartition::new(g.num_vertices(), shards);
                let contexts: Vec<Context<'_>> = (0..shards)
                    .map(|s| Context::for_shard(&g, &prep, &coloring, 8, &plan, s))
                    .collect();
                for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
                    let semi_steps: u64 = (tree.blocks.iter())
                        .map(|block| PathProgram::compile(&tree, block, algorithm))
                        .map(|p| p.written_semi_steps())
                        .sum();
                    for budget in [0, TILE_EDGES, usize::MAX] {
                        let what = format!(
                            "{} with {algorithm}, {shards} shard(s), budget {budget}",
                            entry.name()
                        );
                        let solve = |compile| {
                            solve_tree(&contexts, &plan, &tree, algorithm, compile, budget)
                        };
                        let (count, semi) = solve(PathProgram::compile);
                        let (full_count, full) = solve(PathProgram::compile_without_semi_joins);
                        assert_eq!(count, full_count, "{what}");
                        assert_eq!(semi.total_ops, full.total_ops, "{what}");
                        assert_eq!(semi.load.per_rank(), full.load.per_rank(), "{what}");
                        assert!(semi.entries_created <= full.entries_created, "{what}");
                        assert!(semi.peak_table_entries <= full.peak_table_entries, "{what}");
                        if semi_steps == 0 {
                            assert_eq!(semi.entries_created, full.entries_created, "{what}");
                        }
                        fired |= odd_cycle && semi.entries_created < full.entries_created;
                    }
                }
            }
        }
        assert!(fired, "no semi step dropped a row on an odd cycle");
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
