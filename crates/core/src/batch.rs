//! Batched multi-query execution: one coloring pass, many counts.
//!
//! The paper's experimental workload (Figure 8) estimates a whole catalog of
//! treewidth-2 queries over the *same* data graph. Run one query at a time,
//! every trial of every query draws its own random coloring and runs its own
//! dynamic program — the per-trial work is paid `|queries| × trials` times
//! even though most of it is identical across the batch. This module is the
//! shared-scan form of that workload, the same amortization concurrent
//! query engines apply to batched operators over one table scan:
//!
//! * **shared colorings** — within one trial step, every query with the
//!   same node count `k` and the same effective seed `seed + t` colors the
//!   graph identically, so the coloring is drawn once and shared,
//! * **plan-set dedup** — structurally identical queries (same
//!   [`canonical_key`](sgc_query::canonical_key)) share one decomposition
//!   plan *and one DP result per coloring*: the second copy of a query in a
//!   batch costs nothing per trial,
//! * **shared exchange rounds** — under sharded execution, all queries
//!   active in a block step combine their per-shard partial sums in a
//!   single exchange round
//!   ([`combine_round`](crate::runtime::exchange::combine_round)) instead
//!   of one round per query.
//!
//! The contract that keeps this testable: **batched ≡ solo, bit-identical**.
//! Trial `i` of a request still colors with `seed + i` and runs the same DP
//! against the same plan, so a batch changes *how often* shared work
//! happens, never what any individual query observes. `tests/batch.rs` and
//! the property suite enforce this against the solo engine path.

use crate::config::Algorithm;
use crate::driver::CountResult;
use crate::engine::{CountRequest, Engine, PlanRef};
use crate::error::SgcError;
use crate::estimator::{summarize_trials, Estimate};
use crate::runtime::executor::{self, Job};
use sgc_engine::parallel::parallel_indexed;
use sgc_engine::Count;
use sgc_graph::Coloring;
use sgc_query::canonical_groups;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// What a batch shared, per [`BatchResult`].
///
/// A *cell* is one (query, trial) pair — the unit of work a solo sweep pays
/// for individually. The sharing counters relate cells to the work actually
/// performed: `cells == colorings_drawn + colorings_shared` and
/// `cells == dp_runs + dp_shared`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchMetrics {
    /// Requests in the batch.
    pub queries: usize,
    /// Structurally distinct queries (distinct canonical keys) — the number
    /// of decomposition plans the batch actually needed.
    pub unique_plans: usize,
    /// Requests that shared another request's plan (and per-coloring DP
    /// results): `queries - unique_plans`.
    pub plans_deduped: usize,
    /// Trials each request ran, in request order.
    pub trials_per_query: Vec<usize>,
    /// Total (query, trial) cells executed: `Σ trials_per_query`.
    pub cells: u64,
    /// Random colorings actually drawn — one per distinct (node count,
    /// effective seed) pair per trial step.
    pub colorings_drawn: u64,
    /// Cells that reused a coloring drawn for another cell of the same
    /// trial step instead of drawing their own.
    pub colorings_shared: u64,
    /// Dynamic-program executions actually run.
    pub dp_runs: u64,
    /// Cells served by another cell's DP result (structurally identical
    /// query, same algorithm and effective seed).
    pub dp_shared: u64,
    /// Shared exchange rounds synchronized on by the batch-aware sharded
    /// runtime (zero for unsharded execution). Solo sharded runs of the
    /// same cells would pay one round per block per DP run.
    pub exchange_rounds: u64,
    /// Wall-clock seconds for the whole batch.
    pub total_seconds: f64,
}

/// The outcome of [`Engine::count_batch`]: one [`Estimate`] per request (in
/// request order, each bit-identical to the request's solo `estimate()`)
/// plus the batch's sharing metrics.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-request estimates, in submission order.
    ///
    /// Each estimate's `total_seconds` is the cost of the DP runs that
    /// produced *its* trials; a member served by a shared DP run reports
    /// that run's time (its solo-equivalent cost). Summed member seconds
    /// can therefore exceed [`BatchMetrics::total_seconds`] — that surplus
    /// is exactly the work sharing avoided.
    pub estimates: Vec<Estimate>,
    /// What the batch shared while producing them.
    pub metrics: BatchMetrics,
}

/// One validated member of the batch.
struct Member<'a> {
    plan: PlanRef<'a>,
    algorithm: Algorithm,
    seed: u64,
    trials: usize,
    num_ranks: usize,
    /// Whether this member's cells record observability spans and publish
    /// run counters.
    obs: bool,
    /// Node count of the query — the color count of its trials.
    k: usize,
    /// Index of this member's first structural twin in the batch (its own
    /// index for first occurrences); the DP dedup key.
    group: usize,
}

/// One deduplicated DP execution of a trial step.
struct StepJob {
    /// Representative member (supplies plan, algorithm, ranks).
    member: usize,
    /// Index into the step's shared coloring pool.
    coloring: usize,
}

/// The batch executor behind [`Engine::count_batch`]; see there for the
/// public contract.
pub(crate) fn execute<'g, 'a>(
    engine: &Engine<'g>,
    requests: &[CountRequest<'_, 'g, 'a>],
) -> Result<BatchResult, SgcError> {
    let started = Instant::now();
    let groups = canonical_groups(requests.iter().map(|r| r.query.as_ref()));
    let mut members = Vec::with_capacity(requests.len());
    let mut shards: Option<usize> = None;
    for (request, &group) in requests.iter().zip(&groups) {
        if !std::ptr::eq(request.engine, engine) {
            return Err(SgcError::EngineMismatch);
        }
        if request.coloring.is_some() {
            return Err(SgcError::ColoringWithEstimate);
        }
        if request.trials == 0 {
            return Err(SgcError::ZeroTrials);
        }
        if request.num_ranks == 0 {
            return Err(SgcError::ZeroRanks);
        }
        if let Some(s) = request.shards {
            if s == 0 {
                return Err(SgcError::ZeroShards);
            }
            shards = Some(shards.unwrap_or(0).max(s));
        }
        members.push(Member {
            plan: request.resolve_plan()?,
            algorithm: request.algorithm,
            seed: request.seed,
            trials: request.trials,
            num_ranks: request.num_ranks,
            obs: request.obs,
            k: request.query.num_nodes(),
            group,
        });
    }

    let mut metrics = BatchMetrics {
        queries: members.len(),
        unique_plans: groups.iter().enumerate().filter(|&(i, &g)| i == g).count(),
        trials_per_query: members.iter().map(|m| m.trials).collect(),
        ..BatchMetrics::default()
    };
    metrics.plans_deduped = metrics.queries - metrics.unique_plans;

    // Same convention as `CountRequest::estimate`: per-trial sharding
    // applies when the cells run sequentially, which for a batch means
    // every member opted out of trial parallelism — a single member that
    // kept the default parallel trials keeps the whole batch on the
    // parallel-cells path (counts are bit-identical either way).
    let parallel = requests.iter().any(|r| r.parallel);
    let sharded = if parallel { None } else { shards };

    let n = engine.graph().num_vertices();
    let max_trials = members.iter().map(|m| m.trials).max().unwrap_or(0);
    let mut per_trial: Vec<Vec<Count>> = members
        .iter()
        .map(|m| Vec::with_capacity(m.trials))
        .collect();
    let mut seconds: Vec<f64> = vec![0.0; members.len()];

    for t in 0..max_trials {
        // One coloring pass for the whole step: draw each distinct
        // (node count, effective seed) coloring exactly once.
        let mut colorings: Vec<Coloring> = Vec::new();
        let mut coloring_of: HashMap<(usize, u64), usize> = HashMap::new();
        // ... and one DP run per distinct (structure, algorithm, seed).
        let mut step_jobs: Vec<StepJob> = Vec::new();
        let mut job_of: HashMap<(usize, Algorithm, u64), usize> = HashMap::new();
        // (member, step job serving it) for every cell of this step.
        let mut cells: Vec<(usize, usize)> = Vec::new();
        for (i, member) in members.iter().enumerate() {
            if t >= member.trials {
                continue;
            }
            let eff_seed = member.seed.wrapping_add(t as u64);
            let coloring = match coloring_of.entry((member.k, eff_seed)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let _span = member.obs.then(|| sgc_obs::span(sgc_obs::Stage::Coloring));
                    colorings.push(Coloring::random(n, member.k, eff_seed));
                    *e.insert(colorings.len() - 1)
                }
            };
            let job = match job_of.entry((member.group, member.algorithm, eff_seed)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    step_jobs.push(StepJob {
                        member: i,
                        coloring,
                    });
                    *e.insert(step_jobs.len() - 1)
                }
            };
            cells.push((i, job));
        }
        metrics.cells += cells.len() as u64;
        metrics.colorings_drawn += colorings.len() as u64;
        metrics.colorings_shared += (cells.len() - colorings.len()) as u64;
        metrics.dp_runs += step_jobs.len() as u64;
        metrics.dp_shared += (cells.len() - step_jobs.len()) as u64;

        let jobs: Vec<Job<'_>> = step_jobs
            .iter()
            .map(|job| Job {
                coloring: &colorings[job.coloring],
                plan: &members[job.member].plan,
                algorithm: members[job.member].algorithm,
                num_ranks: members[job.member].num_ranks,
                obs: members[job.member].obs,
                partials: None,
            })
            .collect();
        let publish = |job: &Job<'_>, result: &CountResult| {
            if job.obs && sgc_obs::enabled() {
                result.metrics.publish();
            }
        };
        let results: Vec<CountResult> = match sharded {
            // Sharded steps walk every job's plan in lockstep: one exchange
            // round serves all of them per block step.
            Some(_) => {
                let executed = executor::execute(
                    engine.graph(),
                    engine.prep(),
                    &jobs,
                    sharded,
                    engine.arena_pool(),
                )?;
                metrics.exchange_rounds += executed.shared_rounds;
                let results: Vec<_> = executed.jobs.into_iter().map(|o| o.result).collect();
                for (job, result) in jobs.iter().zip(&results) {
                    publish(job, result);
                }
                results
            }
            // Unsharded cells are independent one-job runs, spread over the
            // pool when any member kept trial parallelism. They publish on
            // the thread that ran them.
            None => {
                let run = |j: usize| -> CountResult {
                    let job = &jobs[j];
                    let result = engine
                        .run_job(job, None)
                        .expect("batch-drawn colorings always cover the graph");
                    publish(job, &result);
                    result
                };
                if parallel {
                    parallel_indexed(jobs.len(), run)
                } else {
                    (0..jobs.len()).map(run).collect()
                }
            }
        };
        for (member, job) in cells {
            per_trial[member].push(results[job].colorful_matches);
            seconds[member] += results[job].metrics.elapsed.as_secs_f64();
        }
    }

    let estimates = members
        .iter()
        .enumerate()
        .map(|(i, member)| {
            summarize_trials(
                std::mem::take(&mut per_trial[i]),
                &member.plan.query,
                seconds[i],
            )
        })
        .collect();
    metrics.total_seconds = started.elapsed().as_secs_f64();
    Ok(BatchResult { estimates, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_graph::{CsrGraph, GraphBuilder};
    use sgc_query::{catalog, QueryGraph};

    fn demo_graph() -> CsrGraph {
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
        b.build()
    }

    #[test]
    fn batch_is_bit_identical_to_solo_per_query() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let queries = [catalog::triangle(), catalog::cycle(4), catalog::glet1()];
        let requests: Vec<_> = queries
            .iter()
            .map(|q| engine.count(q).trials(6).seed(41))
            .collect();
        let batch = engine.count_batch(&requests).unwrap();
        assert_eq!(batch.estimates.len(), 3);
        for (query, estimate) in queries.iter().zip(&batch.estimates) {
            let solo = engine.count(query).trials(6).seed(41).estimate().unwrap();
            assert_eq!(estimate.per_trial, solo.per_trial);
            assert_eq!(
                estimate.estimated_matches.to_bits(),
                solo.estimated_matches.to_bits()
            );
            assert_eq!(
                estimate.estimated_subgraphs.to_bits(),
                solo.estimated_subgraphs.to_bits()
            );
        }
    }

    #[test]
    fn same_k_same_seed_queries_share_colorings() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        // glet1, glet2 and youtube all have 5 nodes: with one shared seed a
        // trial step needs ONE 5-coloring for all three.
        let queries = [catalog::glet1(), catalog::glet2(), catalog::youtube()];
        let requests: Vec<_> = queries
            .iter()
            .map(|q| engine.count(q).trials(4).seed(9))
            .collect();
        let batch = engine.count_batch(&requests).unwrap();
        let m = &batch.metrics;
        assert_eq!(m.queries, 3);
        assert_eq!(m.cells, 12);
        assert_eq!(m.colorings_drawn, 4, "one coloring per trial step");
        assert_eq!(m.colorings_shared, 8);
        // Structurally distinct queries: every cell runs its own DP.
        assert_eq!(m.unique_plans, 3);
        assert_eq!(m.plans_deduped, 0);
        assert_eq!(m.dp_runs, 12);
        assert_eq!(m.dp_shared, 0);
        assert_eq!(m.trials_per_query, vec![4, 4, 4]);
    }

    #[test]
    fn structural_twins_share_plans_and_dp_results() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let triangle = catalog::triangle();
        let twin = QueryGraph::from_edges(3, &[(2, 0), (1, 2), (0, 1)]).unwrap();
        let requests = vec![
            engine.count(&triangle).trials(5).seed(3),
            engine.count(&twin).trials(5).seed(3),
        ];
        let batch = engine.count_batch(&requests).unwrap();
        let m = &batch.metrics;
        assert_eq!(m.unique_plans, 1);
        assert_eq!(m.plans_deduped, 1);
        assert_eq!(m.cells, 10);
        assert_eq!(m.dp_runs, 5, "one DP per trial serves both twins");
        assert_eq!(m.dp_shared, 5);
        assert_eq!(m.colorings_drawn, 5);
        assert_eq!(batch.estimates[0].per_trial, batch.estimates[1].per_trial);
        // ... and the shared result is still the solo result.
        let solo = engine
            .count(&triangle)
            .trials(5)
            .seed(3)
            .estimate()
            .unwrap();
        assert_eq!(batch.estimates[0].per_trial, solo.per_trial);
    }

    #[test]
    fn mixed_seeds_trials_and_algorithms_stay_solo_identical() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let c4 = catalog::cycle(4);
        let tri = catalog::triangle();
        let requests = vec![
            engine
                .count(&tri)
                .trials(7)
                .seed(1)
                .algorithm(Algorithm::PathSplitting),
            engine
                .count(&tri)
                .trials(3)
                .seed(1)
                .algorithm(Algorithm::DegreeBased),
            engine.count(&c4).trials(5).seed(99),
        ];
        let batch = engine.count_batch(&requests).unwrap();
        let solo_a = engine
            .count(&tri)
            .trials(7)
            .seed(1)
            .algorithm(Algorithm::PathSplitting)
            .estimate()
            .unwrap();
        let solo_b = engine
            .count(&tri)
            .trials(3)
            .seed(1)
            .algorithm(Algorithm::DegreeBased)
            .estimate()
            .unwrap();
        let solo_c = engine.count(&c4).trials(5).seed(99).estimate().unwrap();
        assert_eq!(batch.estimates[0].per_trial, solo_a.per_trial);
        assert_eq!(batch.estimates[1].per_trial, solo_b.per_trial);
        assert_eq!(batch.estimates[2].per_trial, solo_c.per_trial);
        // The two triangle requests differ in algorithm, so they share the
        // plan and (for the first three trials) the coloring, but never a
        // DP result: both algorithms run.
        let m = &batch.metrics;
        assert_eq!(m.unique_plans, 2);
        assert_eq!(m.plans_deduped, 1);
        assert_eq!(m.cells, 15);
        assert_eq!(m.dp_shared, 0);
        // Trials 0..3: triangle coloring shared between the algorithms.
        assert_eq!(m.colorings_shared, 3);
    }

    #[test]
    fn sequential_and_parallel_batches_agree() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let queries = [catalog::triangle(), catalog::glet1()];
        let serial = engine
            .count_batch(
                &queries
                    .iter()
                    .map(|q| engine.count(q).trials(6).seed(5).parallel(false))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let parallel = sgc_engine::parallel::run_with_threads(3, || {
            engine
                .count_batch(
                    &queries
                        .iter()
                        .map(|q| engine.count(q).trials(6).seed(5))
                        .collect::<Vec<_>>(),
                )
                .unwrap()
        });
        for (a, b) in serial.estimates.iter().zip(&parallel.estimates) {
            assert_eq!(a.per_trial, b.per_trial);
            assert_eq!(a.estimated_matches.to_bits(), b.estimated_matches.to_bits());
        }
    }

    #[test]
    fn sharded_batches_share_exchange_rounds_and_stay_identical() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let queries = [catalog::triangle(), catalog::cycle(4), catalog::glet1()];
        let requests: Vec<_> = queries
            .iter()
            .map(|q| {
                engine
                    .count(q)
                    .trials(4)
                    .seed(13)
                    .parallel(false)
                    .sharded(4)
            })
            .collect();
        let batch = engine.count_batch(&requests).unwrap();
        assert!(batch.metrics.exchange_rounds > 0);
        // The shared rounds are at most what solo sharded runs would pay:
        // per trial, max(blocks) rounds instead of Σ blocks.
        let solo_rounds: u64 = queries
            .iter()
            .map(|q| engine.plan(q).unwrap().blocks.len() as u64 * 4)
            .sum();
        assert!(batch.metrics.exchange_rounds < solo_rounds);
        for (query, estimate) in queries.iter().zip(&batch.estimates) {
            let solo = engine.count(query).trials(4).seed(13).estimate().unwrap();
            assert_eq!(estimate.per_trial, solo.per_trial);
        }
    }

    #[test]
    fn empty_batches_and_error_paths() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let empty = engine.count_batch(&[]).unwrap();
        assert!(empty.estimates.is_empty());
        assert_eq!(empty.metrics.queries, 0);
        assert_eq!(empty.metrics.cells, 0);

        let tri = catalog::triangle();
        // Zero trials.
        assert_eq!(
            engine
                .count_batch(&[engine.count(&tri).trials(0)])
                .unwrap_err(),
            SgcError::ZeroTrials
        );
        // Explicit colorings are estimate-incompatible, batched or not.
        let coloring = Coloring::random(g.num_vertices(), 3, 0);
        assert_eq!(
            engine
                .count_batch(&[engine.count(&tri).coloring(&coloring)])
                .unwrap_err(),
            SgcError::ColoringWithEstimate
        );
        // Zero ranks / zero shards.
        assert_eq!(
            engine
                .count_batch(&[engine.count(&tri).ranks(0)])
                .unwrap_err(),
            SgcError::ZeroRanks
        );
        assert_eq!(
            engine
                .count_batch(&[engine.count(&tri).sharded(0)])
                .unwrap_err(),
            SgcError::ZeroShards
        );
        // Requests from another engine are rejected.
        let other_graph = demo_graph();
        let other = Engine::new(&other_graph);
        assert_eq!(
            engine
                .count_batch(&[other.count(&tri).trials(2)])
                .unwrap_err(),
            SgcError::EngineMismatch
        );
        // Unplannable members fail the batch with the planner's error.
        let mut k4 = QueryGraph::new(4);
        for a in 0..4u8 {
            for b in (a + 1)..4 {
                k4.add_edge(a, b).unwrap();
            }
        }
        assert!(matches!(
            engine
                .count_batch(&[engine.count(&tri).trials(2), engine.count(&k4).trials(2)])
                .unwrap_err(),
            SgcError::Query(_)
        ));
    }

    #[test]
    fn single_node_queries_batch_with_everything_else() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let one = QueryGraph::new(1);
        let tri = catalog::triangle();
        let requests = vec![
            engine.count(&one).trials(3).seed(2),
            engine.count(&tri).trials(3).seed(2),
        ];
        let batch = engine.count_batch(&requests).unwrap();
        assert!(batch.estimates[0]
            .per_trial
            .iter()
            .all(|&c| c == g.num_vertices() as Count));
        let solo = engine.count(&tri).trials(3).seed(2).estimate().unwrap();
        assert_eq!(batch.estimates[1].per_trial, solo.per_trial);
        // Sharded too: the single-node query resolves through the shared
        // step-0 scalar exchange.
        let sharded = engine
            .count_batch(&[
                engine
                    .count(&one)
                    .trials(3)
                    .seed(2)
                    .parallel(false)
                    .sharded(3),
                engine
                    .count(&tri)
                    .trials(3)
                    .seed(2)
                    .parallel(false)
                    .sharded(3),
            ])
            .unwrap();
        assert_eq!(sharded.estimates[0].per_trial, batch.estimates[0].per_trial);
        assert_eq!(sharded.estimates[1].per_trial, batch.estimates[1].per_trial);
    }
}
