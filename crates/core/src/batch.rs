//! Batches are loops: [`Engine::count_batch`] runs each *distinct* request
//! through the solo [`TrialStream`] and dedups twins.
//!
//! The paper's algorithm walks one query's decomposition tree per coloring,
//! and its "batched alltoall" batches the entries of one block's exchange,
//! not queries. Running queries in lockstep to share colorings and exchange
//! rounds measures within noise of this loop — a coloring costs
//! microseconds against trials of tens of milliseconds (DESIGN.md, "Batches
//! are loops"). What a batch does save is **twin dedup**: structurally
//! identical requests (same [`canonical_key`](sgc_query::canonical_key),
//! algorithm and seed) run once, to the longest member's trial count, and
//! each twin is handed its prefix — exact by the stream's
//! anytime-consistency contract.
//!
//! The contract that keeps this testable: **batched ≡ solo, bit-identical**.
//! `tests/batch.rs` and the property suite enforce it.

use crate::config::Algorithm;
use crate::engine::{CountRequest, Engine, TrialStream};
use crate::error::SgcError;
use crate::estimator::Estimate;
use sgc_query::canonical_groups;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// What a batch shared, per [`BatchResult`].
///
/// A *cell* is one (query, trial) pair — the unit of work a solo sweep pays
/// for individually: `cells == dp_runs + dp_shared`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchMetrics {
    /// Requests in the batch.
    pub queries: usize,
    /// Structurally distinct queries (distinct canonical keys) — the number
    /// of decomposition plans the batch actually needed.
    pub unique_plans: usize,
    /// Requests that shared another request's plan:
    /// `queries - unique_plans`.
    pub plans_deduped: usize,
    /// Trials each request ran, in request order.
    pub trials_per_query: Vec<usize>,
    /// Total (query, trial) cells answered: `Σ trials_per_query`.
    pub cells: u64,
    /// Cells that reused a coloring drawn for another cell. Every DP run
    /// draws its own coloring, so a cell shares one only by sharing the run
    /// that drew it: always equal to [`dp_shared`](BatchMetrics::dp_shared),
    /// and zero for a batch of distinct queries.
    pub colorings_shared: u64,
    /// Dynamic-program executions actually run.
    pub dp_runs: u64,
    /// Cells served by another cell's DP result (structurally identical
    /// query, same algorithm and seed).
    pub dp_shared: u64,
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
    /// produced *its* trials; a twin reports the shared run's time up to
    /// its own trial count (its solo-equivalent cost). Summed member
    /// seconds can therefore exceed [`BatchMetrics::total_seconds`] — that
    /// surplus is exactly the work twin dedup avoided.
    pub estimates: Vec<Estimate>,
    /// What the batch shared while producing them.
    pub metrics: BatchMetrics,
}

/// The loop behind [`Engine::count_batch`]; see there for the public
/// contract.
pub(crate) fn execute<'g, 'a>(
    engine: &Engine<'g>,
    requests: &[CountRequest<'_, 'g, 'a>],
) -> Result<BatchResult, SgcError> {
    let started = Instant::now();
    let groups = canonical_groups(requests.iter().map(|r| r.query.as_ref()));
    // One solo stream per distinct (structure, algorithm, seed), with the
    // requests it serves. Every request is validated as its own stream
    // would be, twins included, before any trial runs.
    let mut runs: Vec<(TrialStream<'_, 'g, '_>, Vec<usize>)> = Vec::new();
    let mut run_of: HashMap<(usize, Algorithm, u64), usize> = HashMap::new();
    for (i, (request, &group)) in requests.iter().zip(&groups).enumerate() {
        if !std::ptr::eq(request.engine, engine) {
            return Err(SgcError::EngineMismatch);
        }
        if request.trials == 0 {
            return Err(SgcError::ZeroTrials);
        }
        let stream = request.reborrow().estimate_incremental()?;
        match run_of.entry((group, request.algorithm, request.seed)) {
            Entry::Occupied(e) => runs[*e.get()].1.push(i),
            Entry::Vacant(e) => {
                e.insert(runs.len());
                runs.push((stream, vec![i]));
            }
        }
    }

    let mut metrics = BatchMetrics {
        queries: requests.len(),
        unique_plans: groups.iter().enumerate().filter(|&(i, &g)| i == g).count(),
        trials_per_query: requests.iter().map(|r| r.trials).collect(),
        ..BatchMetrics::default()
    };
    metrics.plans_deduped = metrics.queries - metrics.unique_plans;
    metrics.cells = requests.iter().map(|r| r.trials as u64).sum();

    let mut estimates: Vec<Option<Estimate>> = vec![None; requests.len()];
    for (mut stream, mut members) in runs {
        // Shortest twin first: the stream's estimate after `t` trials *is*
        // the solo estimate of a `t`-trial request.
        members.sort_by_key(|&i| requests[i].trials);
        for i in members {
            stream.run_chunk(requests[i].trials - stream.trials_run());
            estimates[i] = Some(stream.estimate()?);
        }
        metrics.dp_runs += stream.trials_run() as u64;
    }
    metrics.dp_shared = metrics.cells - metrics.dp_runs;
    metrics.colorings_shared = metrics.dp_shared;
    metrics.total_seconds = started.elapsed().as_secs_f64();
    Ok(BatchResult {
        estimates: estimates
            .into_iter()
            .map(|e| e.expect("every request belongs to exactly one run"))
            .collect(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_engine::Count;
    use sgc_graph::{Coloring, CsrGraph, GraphBuilder};
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
    fn structural_twins_share_plans_and_dp_results() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let triangle = catalog::triangle();
        let twin = QueryGraph::from_edges(3, &[(2, 0), (1, 2), (0, 1)]).unwrap();
        // Two full-length twins and a shorter one: the run goes to the
        // longest member's trial count and the short twin gets its prefix.
        let requests = vec![
            engine.count(&triangle).trials(5).seed(3),
            engine.count(&twin).trials(3).seed(3),
            engine.count(&twin).trials(5).seed(3),
        ];
        let batch = engine.count_batch(&requests).unwrap();
        let m = &batch.metrics;
        assert_eq!(m.unique_plans, 1);
        assert_eq!(m.plans_deduped, 2);
        assert_eq!(m.trials_per_query, vec![5, 3, 5]);
        assert_eq!(m.cells, 13);
        assert_eq!(m.dp_runs, 5, "one DP per trial serves all three twins");
        assert_eq!(m.dp_shared, 8);
        assert_eq!(m.colorings_shared, m.dp_shared);
        assert_eq!(batch.estimates[0].per_trial, batch.estimates[2].per_trial);
        // ... and every shared result is still the solo result, the prefix
        // included.
        for (estimate, trials) in batch.estimates.iter().zip([5, 3, 5]) {
            let solo = engine
                .count(&triangle)
                .trials(trials)
                .seed(3)
                .estimate()
                .unwrap();
            assert_eq!(estimate.per_trial, solo.per_trial);
            assert_eq!(
                estimate.estimated_matches.to_bits(),
                solo.estimated_matches.to_bits()
            );
            assert_eq!(estimate.variance.to_bits(), solo.variance.to_bits());
        }
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
        // plan but never a DP result: both algorithms run.
        let m = &batch.metrics;
        assert_eq!(m.unique_plans, 2);
        assert_eq!(m.plans_deduped, 1);
        assert_eq!(m.cells, 15);
        assert_eq!(m.dp_runs, 15);
        assert_eq!(m.dp_shared, 0);
        assert_eq!(m.colorings_shared, 0);
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
        // Sharded too: the single-node query resolves through its step-0
        // scalar exchange.
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
