//! The block-step executor: Figure 3's bottom-up walk over the decomposition
//! tree, run per shard on its owned vertex block with one exchange round per
//! block step.
//!
//! Every count in the workspace goes through [`execute`]:
//!
//! * an **unsharded** request is the one-shard case (the shard owns every
//!   vertex, the exchange round passes its partial through untouched),
//! * a **sharded** request fans each block out over the shards of a
//!   [`ShardPlan`] on worker threads, and the round
//!   ([`exchange::combine_round`]) fans the owners' merges out the same way,
//! * a **batch** is many jobs walking their plans in lockstep: in step `s`
//!   every job whose plan has a block `s` solves it, and a *single* round
//!   combines the partials of all of them — the batched alltoall of the
//!   paper's Section 7, where concurrent queries share synchronization
//!   points instead of each paying their own,
//! * **retain/replay** (the incremental recount of
//!   [`incremental`](super::incremental)) is a [`PartialsHook`] on a job's
//!   per-shard solves: keep every pre-exchange partial, and reuse a cached
//!   one in place of a solve the delta cannot have changed.
//!
//! Jobs never mix tables — they only share the fan-out and the round
//! barrier — so each job's count is bit-identical to its solo run for any
//! shard count and any batch it rides in.

use crate::config::Algorithm;
use crate::context::{Context, GraphPrep};
use crate::driver::CountResult;
use crate::error::SgcError;
use crate::kernel::{
    slice_rows, solve_block, transposed_rows, ArenaPool, KernelArena, PARTIAL_ROWS,
};
use crate::metrics::{RunMetrics, ShardMetrics};
use crate::paths::BlockJoinIndex;
use crate::runtime::exchange;
use crate::runtime::incremental::TrialPartials;
use crate::runtime::shard::ShardPlan;
use sgc_engine::parallel::parallel_indexed;
use sgc_engine::{BlockTable, ColumnarTable, Count, RowGroups};
use sgc_graph::{Coloring, CsrGraph};
use sgc_query::DecompositionTree;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One colorful count to run: a coloring/plan/algorithm triple.
pub(crate) struct Job<'a> {
    /// The trial coloring (batch members of one trial step share colorings
    /// by reference, one per distinct color count).
    pub coloring: &'a Coloring,
    /// The decomposition plan.
    pub plan: &'a DecompositionTree,
    /// The cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// Simulated rank count for load attribution.
    pub num_ranks: usize,
    /// Whether this job's shard workers record observability spans. Worker
    /// threads inherit nothing from the submitting thread, so the
    /// per-request toggle rides along with the job.
    pub obs: bool,
    /// Retain (and optionally replay) this job's pre-exchange partials.
    pub partials: Option<PartialsHook<'a>>,
}

/// The retain/replay hook on a job's per-shard solves. Its presence makes
/// the executor keep every shard's pre-exchange partial of every block step
/// instead of retiring it into its lane's arena after the round; the hook
/// only observes — counts and metrics of a from-scratch hooked run equal the
/// unhooked run's, apart from the arena bytes the kept partials take along.
pub(crate) struct PartialsHook<'a> {
    /// `(dirty, cached)`: every shard not flagged dirty takes its partial
    /// from `cached` (under the `dp.recount.replay` span) instead of
    /// solving the block. `None` solves every shard.
    pub replay: Option<(&'a [bool], &'a TrialPartials)>,
}

/// What [`execute`] produced for one job.
pub(crate) struct JobOutcome {
    /// The count and its metrics.
    pub result: CountResult,
    /// The pre-exchange partials, when the job carried a [`PartialsHook`].
    pub retained: Option<TrialPartials>,
    /// Shard solves served from the hook's cache instead of computed.
    pub shards_replayed: usize,
}

/// What [`execute`] produced: one [`JobOutcome`] per job plus the number of
/// *shared* exchange rounds the jobs synchronized on (block steps), as
/// opposed to the `Σ blocks` rounds they would pay when run one at a time.
pub(crate) struct Executed {
    /// Per-job outcomes, in input order.
    pub jobs: Vec<JobOutcome>,
    /// Exchange rounds the whole run synchronized on — one per block step,
    /// each serving every job active in that step.
    pub shared_rounds: u64,
}

/// One (job, shard) pair's state across the block steps — the analog of one
/// rank's local state: the metrics of its solves and the arena they run in,
/// checked out at the lane's first solve and held to the end of the run, so
/// a run costs one checkout per lane however many blocks the plan has.
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

/// One job's state across the block steps.
struct Run {
    /// What the job's exchange rounds observed; its lanes' metrics are
    /// absorbed at the end.
    metrics: RunMetrics,
    shard_metrics: ShardMetrics,
    /// The combined table of every block solved so far, by block id.
    tables: Vec<Option<BlockTable>>,
    /// Single-node queries (no root block) are resolved by a scalar
    /// exchange in step 0; their combined total lands here.
    single_total: Option<Count>,
    /// `retained[step][shard]`, filled only for hooked jobs.
    retained: Vec<Vec<RowGroups>>,
    shards_replayed: usize,
}

/// Runs `jobs` over `graph`, block step by block step: per step, the job ×
/// shard partial solves fan out over the current thread pool, and one
/// exchange round — the job × owner merges, fanned out the same way —
/// combines every active job's partials into its block table.
///
/// `shards` is the request's shard count; `None` runs one shard and reports
/// [`RunMetrics::shards`] as `None`. Each result's `elapsed` is the time
/// spent *for that job* — its shard solves plus its share of the rounds it
/// took part in — so batching other jobs alongside never inflates a
/// member's reported time.
///
/// # Errors
/// [`SgcError::ZeroShards`] for `Some(0)` shards, and
/// [`SgcError::ColoringSizeMismatch`] / [`SgcError::ZeroRanks`] for a job
/// whose coloring does not cover `graph` or whose rank count is zero.
pub(crate) fn execute(
    graph: &CsrGraph,
    prep: &GraphPrep,
    jobs: &[Job<'_>],
    shards: Option<usize>,
    pool: &ArenaPool,
) -> Result<Executed, SgcError> {
    let num_shards = shards.unwrap_or(1);
    let plan = ShardPlan::new(graph.num_vertices(), num_shards)?;
    for job in jobs {
        Context::validate(graph, job.coloring, job.num_ranks)?;
    }
    let lanes: Vec<Mutex<Lane>> = jobs
        .iter()
        .flat_map(|job| {
            (0..num_shards).map(|_| {
                Mutex::new(Lane {
                    metrics: RunMetrics::new(job.num_ranks),
                    arena: None,
                })
            })
        })
        .collect();
    let mut runs: Vec<Run> = jobs
        .iter()
        .map(|job| Run {
            metrics: RunMetrics::new(job.num_ranks),
            shard_metrics: ShardMetrics::new(num_shards),
            tables: vec![None; job.plan.blocks.len()],
            single_total: None,
            retained: Vec::new(),
            shards_replayed: 0,
        })
        .collect();
    // Time spent for each job outside its lanes: its share of the exchange
    // rounds.
    let mut busy = vec![Duration::ZERO; jobs.len()];
    let mut shared_rounds = 0u64;
    // The `exchange` span covers everything between two fan-outs of solves:
    // open from a step's last solve to the next step's first (or the end).
    let mut exchange_span = None;

    let max_steps = jobs
        .iter()
        .map(|j| j.plan.blocks.len().max(1))
        .max()
        .unwrap_or(0);
    for step in 0..max_steps {
        // Jobs with work in this block step: block `step` of their plan, or
        // (for single-node queries) the step-0 scalar partial sum.
        let active: Vec<usize> = (0..jobs.len())
            .filter(|&j| step < jobs[j].plan.blocks.len().max(1))
            .collect();
        // A job's child tables are shard-invariant and shared by its shard
        // workers; the scope ends their borrow of the jobs' tables before
        // the combined tables are stored.
        let partials: Vec<(RowGroups, bool)> = {
            let indexes: Vec<Option<BlockJoinIndex<'_>>> = active
                .iter()
                .map(|&j| {
                    let job = &jobs[j];
                    // A transposed child table is built in the buffers the
                    // job's first lane retired it into a run ago.
                    let retired = |child| {
                        let take =
                            |arena: &mut KernelArena| arena.take_rows(transposed_rows(child));
                        with_arena(&lanes, j * num_shards, pool, take)
                    };
                    (job.plan.root.is_some()).then(|| {
                        BlockJoinIndex::build(&job.plan.blocks[step], &runs[j].tables, retired)
                    })
                })
                .collect();
            drop(exchange_span.take());
            let partials = parallel_indexed(active.len() * num_shards, |idx| {
                let (a, s) = (idx / num_shards, idx % num_shards);
                let j = active[a];
                let job = &jobs[j];
                // Worker threads don't inherit the submitter's obs state, so
                // obs-off jobs re-suspend here for the span guards below.
                let _pause = (!job.obs).then(sgc_obs::suspend);
                let started = Instant::now();
                let mut lane = lanes[j * num_shards + s]
                    .lock()
                    .expect("a lane is locked by one task per step; a panicked one ends the run");
                let cached = job
                    .partials
                    .as_ref()
                    .and_then(|hook| hook.replay)
                    .filter(|(dirty, _)| !dirty[s])
                    .map(|(_, cached)| &cached.steps[step][s]);
                let partial = if let Some(cached) = cached {
                    // Clean shard with a cached partial: replay it.
                    let _span = sgc_obs::span(sgc_obs::Stage::DpRecountReplay);
                    cached.clone()
                } else if let Some(index) = &indexes[a] {
                    let _span = sgc_obs::span(sgc_obs::Stage::DpBlockColumnar);
                    let ctx =
                        Context::for_shard(graph, prep, job.coloring, job.num_ranks, plan.shard(s));
                    let Lane { metrics, arena } = &mut *lane;
                    solve_block(
                        &ctx,
                        job.plan,
                        &job.plan.blocks[step],
                        index,
                        job.algorithm,
                        checked_out(arena, pool),
                        metrics,
                    )
                } else {
                    // Single-node query: the shard's owned-vertex count is
                    // its scalar partial sum (edge deltas never change it).
                    RowGroups::default()
                        .scalar(plan.shard(s).num_vertices() as Count, &plan.partition)
                };
                lane.metrics.elapsed += started.elapsed();
                (partial, cached.is_some())
            });
            for (&j, index) in active.iter().zip(indexes) {
                for (child, rows) in index.into_iter().flat_map(BlockJoinIndex::into_retired) {
                    with_arena(&lanes, j * num_shards, pool, |arena| {
                        arena.retire_rows(transposed_rows(child), rows)
                    });
                }
            }
            partials
        };
        let exchange_started = Instant::now();
        // The exchange round is shared; record it if any active job has
        // observability on (the caller thread may itself be suspended).
        exchange_span = active
            .iter()
            .any(|&j| jobs[j].obs)
            .then(|| sgc_obs::span(sgc_obs::Stage::Exchange));
        // Regroup the partials per job, then combine every active job's in
        // ONE shared exchange round.
        let mut partials = partials.into_iter();
        let mut round: Vec<Vec<RowGroups>> = Vec::with_capacity(active.len());
        for &j in &active {
            let mut job_partials = Vec::with_capacity(num_shards);
            for (partial, replayed) in (&mut partials).take(num_shards) {
                runs[j].shards_replayed += replayed as usize;
                job_partials.push(partial);
            }
            round.push(job_partials);
        }
        let mut round_metrics: Vec<ShardMetrics> = active
            .iter()
            .map(|&j| std::mem::take(&mut runs[j].shard_metrics))
            .collect();
        // An owner builds its slice of a block's table with the arena of the
        // lane it shares its index with: into the buffers of the slice it
        // built there a run ago, summing through the arena's table.
        let scratch =
            |a: usize,
             owner: usize,
             merge: &mut dyn FnMut(RowGroups, &mut ColumnarTable) -> RowGroups| {
                let j = active[a];
                with_arena(&lanes, j * num_shards + owner, pool, |arena| {
                    let retired = arena.take_rows(slice_rows(jobs[j].plan.blocks[step].id));
                    merge(retired, &mut arena.proj)
                })
            };
        let combined = exchange::combine_round(&round, &mut round_metrics, &plan, &scratch);
        shared_rounds += 1;
        // The shared round's cost is split evenly across the jobs it served.
        let exchange_share = exchange_started.elapsed() / active.len() as u32;
        for (((&j, taken), table), job_partials) in
            active.iter().zip(round_metrics).zip(combined).zip(round)
        {
            let run = &mut runs[j];
            run.shard_metrics = taken;
            busy[j] += exchange_share;
            if jobs[j].plan.root.is_some() {
                // A table is observed when it is created: each shard's
                // partial was at its export, and the round creates a new
                // one only when it merged more than one partial.
                if num_shards > 1 {
                    run.metrics.observe_table(table.len());
                }
                run.tables[jobs[j].plan.blocks[step].id] = Some(table);
            } else {
                run.single_total = Some(table.total());
            }
            if jobs[j].partials.is_some() {
                run.retained.push(job_partials);
            } else if jobs[j].plan.root.is_some() {
                // Their round over, the partials go back to their lanes.
                for (s, partial) in job_partials.into_iter().enumerate() {
                    with_arena(&lanes, j * num_shards + s, pool, |arena| {
                        arena.retire_rows(PARTIAL_ROWS, partial)
                    });
                }
            }
        }
    }
    drop(exchange_span);

    let mut lanes = lanes.into_iter().map(|lane| {
        lane.into_inner()
            .expect("no task holds a lane after the last step")
    });
    let mut arenas = Vec::new();
    let jobs = jobs
        .iter()
        .zip(runs)
        .zip(busy)
        .map(|((job, run), busy)| {
            let colorful_matches = match job.plan.root {
                Some(root) => run.tables[root]
                    .as_ref()
                    .expect("root table was computed in its block step")
                    .total(),
                None => run
                    .single_total
                    .expect("single-node totals resolve in step 0"),
            };
            let (mut metrics, mut shard_metrics) = (run.metrics, run.shard_metrics);
            let mut tables = run.tables;
            metrics.elapsed = busy;
            for (s, mut lane) in (&mut lanes).take(num_shards).enumerate() {
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
            JobOutcome {
                result: CountResult {
                    colorful_matches,
                    metrics,
                },
                retained: job.partials.as_ref().map(|_| TrialPartials {
                    num_shards,
                    steps: run.retained,
                }),
                shards_replayed: run.shards_replayed,
            }
        })
        .collect();
    // The pool is a stack and lanes check out in lane order: returning the
    // arenas last lane first hands the next run's lane `i` the arena this
    // run's lane `i` sized.
    for arena in arenas.into_iter().rev() {
        pool.give_back(arena);
    }
    Ok(Executed {
        jobs,
        shared_rounds,
    })
}

/// [`execute`] for one unhooked job: the call every single-query path (and
/// every parallel batch cell) makes.
pub(crate) fn execute_one(
    graph: &CsrGraph,
    prep: &GraphPrep,
    job: &Job<'_>,
    shards: Option<usize>,
    pool: &ArenaPool,
) -> Result<CountResult, SgcError> {
    let mut executed = execute(graph, prep, std::slice::from_ref(job), shards, pool)?;
    let outcome = executed.jobs.pop().expect("one job in, one outcome out");
    Ok(outcome.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_graph::GraphBuilder;
    use sgc_query::{catalog, heuristic_plan, QueryGraph};

    /// The hook only observes: a retaining run reports the counts and the
    /// metrics of the plain run of the same job.
    #[test]
    fn retaining_run_equals_plain_run_in_counts_and_metrics() {
        let mut b = GraphBuilder::new(10);
        b.extend_edges([
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 5),
            (5, 6),
            (6, 1),
            (2, 7),
            (7, 8),
            (8, 3),
            (4, 9),
            (9, 0),
            (5, 2),
            (6, 3),
        ]);
        let graph = b.build();
        let prep = GraphPrep::new(&graph);
        for query in [catalog::triangle(), catalog::glet1(), QueryGraph::new(1)] {
            let tree = heuristic_plan(&query).unwrap();
            let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 17);
            for shards in [None, Some(1), Some(3)] {
                let run = |partials| {
                    let job = Job {
                        coloring: &coloring,
                        plan: &tree,
                        algorithm: Algorithm::DegreeBased,
                        num_ranks: 4,
                        obs: true,
                        partials,
                    };
                    // A fresh pool per run, so both see a cold arena.
                    let mut executed =
                        execute(&graph, &prep, &[job], shards, &ArenaPool::new()).unwrap();
                    assert_eq!(executed.shared_rounds, tree.blocks.len().max(1) as u64);
                    executed.jobs.pop().unwrap()
                };
                let plain = run(None);
                let hooked = run(Some(PartialsHook { replay: None }));
                assert!(plain.retained.is_none());
                let partials = hooked.retained.expect("hooked runs retain");
                assert_eq!(partials.num_shards(), shards.unwrap_or(1));
                assert_eq!(partials.num_steps(), tree.blocks.len().max(1));
                assert_eq!((plain.shards_replayed, hooked.shards_replayed), (0, 0));
                let (p, h) = (plain.result, hooked.result);
                assert_eq!(p.colorful_matches, h.colorful_matches);
                assert_eq!(p.metrics.load.per_rank(), h.metrics.load.per_rank());
                assert_eq!(p.metrics.total_ops, h.metrics.total_ops);
                assert_eq!(p.metrics.entries_created, h.metrics.entries_created);
                assert_eq!(p.metrics.peak_table_entries, h.metrics.peak_table_entries);
                // The retained partials leave with the hook instead of
                // retiring into the arenas that built them.
                assert_eq!(p.metrics.kernel.arena_reuses, h.metrics.kernel.arena_reuses);
                assert!(h.metrics.kernel.arena_bytes <= p.metrics.kernel.arena_bytes);
                assert_eq!(p.metrics.shards, h.metrics.shards);
                assert_eq!(p.metrics.shards.is_some(), shards.is_some());
            }
        }
    }
}
