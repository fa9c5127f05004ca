//! Integration tests of the `Engine` front door through the facade crate:
//! typed error paths (no panics on bad input), the deterministic per-trial
//! RNG contract under parallel trials, and the bind-once amortization
//! guarantee.

use subgraph_counting::core::context::prep_build_count;
use subgraph_counting::gen::erdos_renyi::gnp;
use subgraph_counting::graph::Coloring;
use subgraph_counting::query::{catalog, QueryError, QueryGraph};
use subgraph_counting::{Algorithm, Engine, SgcError};

#[test]
fn mismatched_coloring_size_is_a_typed_error() {
    let graph = gnp(12, 0.3, 1);
    let engine = Engine::new(&graph);
    let short = Coloring::random(5, 3, 0); // covers 5 of 12 vertices
    let err = engine
        .count(&catalog::triangle())
        .coloring(&short)
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        SgcError::ColoringSizeMismatch {
            graph_vertices: 12,
            coloring_vertices: 5
        }
    );
    assert!(err.to_string().contains("12"));
}

#[test]
fn wrong_color_count_is_a_typed_error() {
    let graph = gnp(12, 0.3, 2);
    let engine = Engine::new(&graph);
    let query = catalog::cycle(5);
    let coloring = Coloring::random(graph.num_vertices(), 3, 0); // needs 5
    let err = engine.count(&query).coloring(&coloring).run().unwrap_err();
    assert_eq!(
        err,
        SgcError::WrongColorCount {
            expected: 5,
            actual: 3
        }
    );
}

#[test]
fn explicit_coloring_with_estimate_is_a_typed_error() {
    let graph = gnp(12, 0.3, 10);
    let engine = Engine::new(&graph);
    let coloring = Coloring::random(graph.num_vertices(), 3, 0);
    let err = engine
        .count(&catalog::triangle())
        .coloring(&coloring)
        .trials(5)
        .estimate()
        .unwrap_err();
    assert_eq!(err, SgcError::ColoringWithEstimate);
    assert!(err.to_string().contains("run()"));
}

#[test]
fn zero_trials_is_a_typed_error() {
    let graph = gnp(12, 0.3, 3);
    let engine = Engine::new(&graph);
    let err = engine
        .count(&catalog::triangle())
        .trials(0)
        .estimate()
        .unwrap_err();
    assert_eq!(err, SgcError::ZeroTrials);
}

#[test]
fn treewidth_exceeding_queries_are_rejected_not_panicked_on() {
    let graph = gnp(12, 0.4, 5);
    let engine = Engine::new(&graph);
    // K4 has treewidth 3.
    let mut k4 = QueryGraph::new(4);
    for a in 0..4u8 {
        for b in (a + 1)..4 {
            k4.add_edge(a, b).unwrap();
        }
    }
    let err = engine.count(&k4).run().unwrap_err();
    assert_eq!(err, SgcError::Query(QueryError::TreewidthExceeded));
    let err = engine.count(&k4).trials(5).estimate().unwrap_err();
    assert_eq!(err, SgcError::Query(QueryError::TreewidthExceeded));
    // The error chains back to the query layer.
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn trial_seeds_are_deterministic_regardless_of_parallelism() {
    let graph = gnp(30, 0.25, 7);
    let engine = Engine::new(&graph);
    let query = catalog::glet1();

    let serial = engine
        .count(&query)
        .trials(12)
        .seed(99)
        .parallel(false)
        .estimate()
        .unwrap();
    // Pin explicit pool sizes so real threads are exercised even on a
    // single-CPU host (where the default pool would degenerate to serial).
    for threads in [2, 4] {
        let parallel = subgraph_counting::engine::parallel::run_with_threads(threads, || {
            engine
                .count(&query)
                .trials(12)
                .seed(99)
                .parallel(true)
                .estimate()
                .unwrap()
        });
        assert_eq!(
            serial.per_trial, parallel.per_trial,
            "serial and {threads}-thread estimation must be bit-identical"
        );
        assert_eq!(serial.estimated_matches, parallel.estimated_matches);
        assert_eq!(serial.variance, parallel.variance);
    }

    // Trial i uses seed + i: a run whose base seed is shifted by one must
    // reproduce the overlapping trials exactly.
    let shifted = engine
        .count(&query)
        .trials(11)
        .seed(100)
        .estimate()
        .unwrap();
    assert_eq!(serial.per_trial[1..], shifted.per_trial[..]);
}

#[test]
fn engine_builds_the_preprocessing_exactly_once() {
    let graph = gnp(25, 0.25, 8);
    let before = prep_build_count();
    let engine = Engine::new(&graph);
    assert_eq!(
        prep_build_count() - before,
        1,
        "binding builds the prep once"
    );

    // Sequential trials keep every (hypothetical) rebuild on this thread,
    // where the thread-local build counter would see it.
    let after_bind = prep_build_count();
    for query in [catalog::triangle(), catalog::cycle(4), catalog::glet1()] {
        for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            engine
                .count(&query)
                .algorithm(algorithm)
                .trials(10)
                .parallel(false)
                .estimate()
                .unwrap();
        }
    }
    assert_eq!(
        prep_build_count() - after_bind,
        0,
        "60 trials across 3 queries must not rebuild the preprocessing"
    );
}

#[test]
fn engine_estimates_converge_like_the_old_free_functions() {
    // End-to-end sanity: the estimate is still an unbiased estimator.
    let graph = gnp(14, 0.35, 9);
    let engine = Engine::new(&graph);
    let query = catalog::triangle();
    let exact = subgraph_counting::core::brute::count_matches(&graph, &query) as f64;
    let est = engine.count(&query).trials(300).seed(1).estimate().unwrap();
    let rel_err = (est.estimated_matches - exact).abs() / exact.max(1.0);
    assert!(
        rel_err < 0.35,
        "estimate {} too far from exact {exact} (rel err {rel_err})",
        est.estimated_matches
    );
}

#[test]
fn one_engine_survives_many_concurrent_counting_threads() {
    // The Mutex-guarded plan cache under real contention: many threads,
    // one shared engine, a mix of queries that are and are not already
    // planned, runs and estimates interleaved. Every thread must see
    // exactly the counts a single-threaded engine produces.
    let graph = gnp(28, 0.25, 4);
    let engine = Engine::new(&graph);
    let queries = [catalog::triangle(), catalog::cycle(4), catalog::glet1()];

    // Single-threaded reference results.
    let expected_runs: Vec<u64> = queries
        .iter()
        .map(|q| engine.count(q).seed(7).run().unwrap().colorful_matches)
        .collect();
    let expected_estimates: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            engine
                .count(q)
                .trials(6)
                .seed(40)
                .estimate()
                .unwrap()
                .per_trial
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..8 {
            let engine = &engine;
            let queries = &queries;
            let expected_runs = &expected_runs;
            let expected_estimates = &expected_estimates;
            scope.spawn(move || {
                for round in 0..4 {
                    // Shift the query order per worker so distinct queries
                    // race each other in the plan cache, not just the same
                    // entry.
                    let qi = (worker + round) % queries.len();
                    let run = engine
                        .count(&queries[qi])
                        .seed(7)
                        .run()
                        .unwrap()
                        .colorful_matches;
                    assert_eq!(run, expected_runs[qi], "worker {worker} round {round}");
                    let est = engine
                        .count(&queries[qi])
                        .trials(6)
                        .seed(40)
                        .estimate()
                        .unwrap();
                    assert_eq!(
                        est.per_trial, expected_estimates[qi],
                        "worker {worker} round {round}"
                    );
                }
            });
        }
    });

    // Racing planners may both plan a query, but the cache must converge to
    // exactly one entry per distinct query.
    assert_eq!(engine.cached_plans(), queries.len());
}

#[test]
fn concurrent_planning_of_the_same_query_caches_one_plan() {
    let graph = gnp(16, 0.3, 5);
    let engine = Engine::new(&graph);
    assert_eq!(engine.cached_plans(), 0);
    let plans: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let engine = &engine;
                scope.spawn(move || engine.plan(&catalog::cycle(5)).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.cached_plans(), 1);
    // Whoever won the insertion race, every thread was handed the single
    // cached plan object (the `or_insert` winner).
    let canonical = engine.plan(&catalog::cycle(5)).unwrap();
    for plan in &plans {
        assert!(std::sync::Arc::ptr_eq(plan, &canonical));
    }
}
