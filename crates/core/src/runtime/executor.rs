//! The block-step executor: Figure 3's bottom-up walk over one query's
//! decomposition tree under one coloring, run per shard on its owned vertex
//! block with one exchange round per block step.
//!
//! Every count in the workspace goes through [`execute`], one job at a time:
//!
//! * an **unsharded** request is the one-shard case (the shard owns every
//!   vertex, the exchange round passes its partial through untouched),
//! * a **sharded** request fans each block out over the shards — the
//!   blocks of a `BlockPartition` of the vertices — on worker threads, and
//!   the round ([`exchange::combine_round`]) fans the owners' merges out
//!   the same way.
//!
//! Estimates, batches, service jobs and the ball recount of a graph version
//! ([`DeltaBall`](crate::DeltaBall)) are loops over this call.

use crate::config::Algorithm;
use crate::context::{Context, GraphPrep};
use crate::driver::CountResult;
use crate::error::SgcError;
use crate::kernel::{
    slice_rows, solve_block, transposed_rows, ArenaPool, KernelArena, PARTIAL_ROWS,
};
use crate::metrics::{RunMetrics, ShardMetrics};
use crate::paths::{BlockJoinIndex, PathProgram};
use crate::runtime::exchange;
use sgc_engine::parallel::parallel_indexed;
use sgc_engine::{BlockTable, ColumnarTable, Count, RowGroups};
use sgc_graph::{BlockPartition, Coloring, CsrGraph};
use sgc_query::DecompositionTree;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One colorful count to run: a coloring/plan/algorithm triple.
pub(crate) struct Job<'a> {
    /// The trial coloring.
    pub coloring: &'a Coloring,
    /// The decomposition plan.
    pub plan: &'a DecompositionTree,
    /// The cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// Simulated rank count for load attribution.
    pub num_ranks: usize,
}

/// One shard's state across the block steps — the analog of one rank's local
/// state: the metrics of its solves and the arena they run in, checked out
/// at the lane's first solve and held to the end of the run, so a run costs
/// one checkout per lane however many blocks the plan has.
struct Lane {
    metrics: RunMetrics,
    /// The arena, whether the pool served it warm, and its capacity in
    /// bytes at checkout.
    arena: Option<(KernelArena, bool, usize)>,
}

/// A lane's arena, checked out of `pool` on first use: by the lane's first
/// solve, or by the exchange when the lane's owner builds its first slice.
fn checked_out<'l>(
    arena: &'l mut Option<(KernelArena, bool, usize)>,
    pool: &ArenaPool,
) -> &'l mut KernelArena {
    let (arena, _, _) = arena.get_or_insert_with(|| {
        let (arena, reused) = pool.checkout();
        let before = arena.capacity_bytes();
        (arena, reused, before)
    });
    arena
}

/// Runs `f` on the arena of lane `index`, between two fan-outs or as the
/// one task of a round that works there.
fn with_arena<R>(
    lanes: &[Mutex<Lane>],
    index: usize,
    pool: &ArenaPool,
    f: impl FnOnce(&mut KernelArena) -> R,
) -> R {
    let mut lane = lanes[index]
        .lock()
        .expect("a lane is locked by one task at a time; a panicked one ends the run");
    f(checked_out(&mut lane.arena, pool))
}

/// Runs `job` over `graph`, block step by block step: per step, the
/// per-shard partial solves fan out over the current thread pool, and one
/// exchange round — the owners' merges, fanned out the same way — combines
/// the partials into the block's table.
///
/// `shards` is the request's shard count; `None` runs one shard and reports
/// [`RunMetrics::shards`] as `None`. The result's `elapsed` is the time spent
/// in the shard solves plus the exchange rounds.
///
/// # Errors
/// [`SgcError::ZeroShards`] for `Some(0)` shards, and
/// [`SgcError::ColoringSizeMismatch`] / [`SgcError::ZeroRanks`] for a
/// coloring that does not cover `graph` or a zero rank count.
pub(crate) fn execute(
    graph: &CsrGraph,
    prep: &GraphPrep,
    job: &Job<'_>,
    shards: Option<usize>,
    pool: &ArenaPool,
) -> Result<CountResult, SgcError> {
    let num_shards = shards.unwrap_or(1);
    if num_shards == 0 {
        return Err(SgcError::ZeroShards);
    }
    let layout = BlockPartition::new(graph.num_vertices(), num_shards);
    Context::validate(graph, job.coloring, job.num_ranks)?;
    let lanes: Vec<Mutex<Lane>> = (0..num_shards)
        .map(|_| {
            Mutex::new(Lane {
                metrics: RunMetrics::new(job.num_ranks),
                arena: None,
            })
        })
        .collect();
    // What the exchange rounds observed; the lanes' metrics are absorbed at
    // the end.
    let mut metrics = RunMetrics::new(job.num_ranks);
    let mut shard_metrics = ShardMetrics::new(num_shards);
    // The combined table of every block solved so far, by block id.
    let mut tables: Vec<Option<BlockTable>> = vec![None; job.plan.blocks.len()];
    // Single-node queries (no root block) are resolved by a scalar exchange
    // in step 0; their combined total lands here.
    let mut single_total: Option<Count> = None;
    let mut exchange_time = Duration::ZERO;
    // The `exchange` span covers everything between two fan-outs of solves:
    // open from a step's last solve to the next step's first (or the end).
    let mut exchange_span = None;

    // One step per block of the plan, or (for single-node queries) the one
    // scalar partial sum.
    for step in 0..job.plan.blocks.len().max(1) {
        // The child tables are shard-invariant and shared by the shard
        // workers; the scope ends their borrow of `tables` before the
        // combined table is stored.
        let partials: Vec<RowGroups> = {
            // A transposed child table is built in the buffers the first
            // lane retired it into a run ago.
            let retired = |child| {
                let take = |arena: &mut KernelArena| arena.take_rows(transposed_rows(child));
                with_arena(&lanes, 0, pool, take)
            };
            // The block's child tables and its path program are
            // shard-invariant: built once, shared by every shard's solve.
            let inputs = (job.plan.root.is_some()).then(|| {
                let block = &job.plan.blocks[step];
                let program = PathProgram::compile(job.plan, block, job.algorithm);
                (BlockJoinIndex::build(block, &tables, retired), program)
            });
            drop(exchange_span.take());
            let partials = parallel_indexed(num_shards, |s| {
                let started = Instant::now();
                let mut lane = lanes[s]
                    .lock()
                    .expect("a lane is locked by one task per step; a panicked one ends the run");
                let partial = if let Some((index, program)) = &inputs {
                    let _span = sgc_obs::span(sgc_obs::Stage::DpBlockColumnar);
                    let ctx =
                        Context::for_shard(graph, prep, job.coloring, job.num_ranks, &layout, s);
                    let Lane { metrics, arena } = &mut *lane;
                    let block = &job.plan.blocks[step];
                    let arena = checked_out(arena, pool);
                    solve_block(&ctx, block, index, program, arena, metrics)
                } else {
                    // Single-node query: the shard's owned-vertex count is
                    // its scalar partial sum.
                    RowGroups::default().scalar(layout.owned_count(s) as Count, &layout)
                };
                lane.metrics.elapsed += started.elapsed();
                partial
            });
            let transposed = inputs
                .into_iter()
                .flat_map(|(index, _)| index.into_retired());
            for (child, rows) in transposed {
                with_arena(&lanes, 0, pool, |arena| {
                    arena.retire_rows(transposed_rows(child), rows)
                });
            }
            partials
        };
        let exchange_started = Instant::now();
        exchange_span = Some(sgc_obs::span(sgc_obs::Stage::Exchange));
        // An owner builds its slice of the block's table with the arena of
        // the lane it shares its index with: into the buffers of the slice it
        // built there a run ago, summing through the arena's table.
        let scratch =
            |owner: usize, merge: &mut dyn FnMut(RowGroups, &mut ColumnarTable) -> RowGroups| {
                with_arena(&lanes, owner, pool, |arena| {
                    let retired = arena.take_rows(slice_rows(job.plan.blocks[step].id));
                    merge(retired, &mut arena.proj)
                })
            };
        let table = exchange::combine_round(&partials, &mut shard_metrics, &layout, &scratch);
        exchange_time += exchange_started.elapsed();
        if job.plan.root.is_some() {
            // A table is observed when it is created: each shard's partial
            // was at its export, and the round creates a new one only when
            // it merged more than one partial.
            if num_shards > 1 {
                metrics.observe_table(table.len());
            }
            tables[job.plan.blocks[step].id] = Some(table);
        } else {
            single_total = Some(table.total());
        }
        if job.plan.root.is_some() {
            // Their round over, the partials go back to their lanes.
            for (s, partial) in partials.into_iter().enumerate() {
                with_arena(&lanes, s, pool, |arena| {
                    arena.retire_rows(PARTIAL_ROWS, partial)
                });
            }
        }
    }
    drop(exchange_span);

    let colorful_matches = match job.plan.root {
        Some(root) => tables[root]
            .as_ref()
            .expect("root table was computed in its block step")
            .total(),
        None => single_total.expect("single-node totals resolve in step 0"),
    };
    metrics.elapsed = exchange_time;
    let mut arenas = Vec::new();
    for (s, lane) in lanes.into_iter().enumerate() {
        let mut lane = lane
            .into_inner()
            .expect("no task holds a lane after the last step");
        if let Some((mut arena, reused, before)) = lane.arena {
            // The run over, the lane's slice of every table retires.
            for (block, table) in tables.iter_mut().enumerate() {
                let slice = table.as_mut().map(|table| table.take_slice(s));
                arena.retire_rows(slice_rows(block), slice.unwrap_or_default());
            }
            let after = arena.capacity_bytes();
            lane.metrics.kernel.record_checkout(
                after as u64,
                reused,
                after.saturating_sub(before) as u64,
            );
            arenas.push(arena);
        }
        shard_metrics.ops_per_shard[s] = lane.metrics.total_ops;
        metrics.elapsed += lane.metrics.elapsed;
        metrics.absorb_shard(&lane.metrics);
    }
    metrics.shards = shards.map(|_| shard_metrics);
    // The pool is a stack and lanes check out in lane order: returning the
    // arenas last lane first hands the next run's lane `i` the arena this
    // run's lane `i` sized.
    for arena in arenas.into_iter().rev() {
        pool.give_back(arena);
    }
    Ok(CountResult {
        colorful_matches,
        metrics,
    })
}
