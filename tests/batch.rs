//! Integration tests for `Engine::count_batch`.
//!
//! The batch contract under test, end to end: `engine.count_batch` is a
//! loop over the solo path that runs structurally identical requests once,
//! and every member's result is **bit-identical** to its solo run — for the
//! full builtin registry, for text-pattern requests and for sharded
//! execution. Above the engine a batch is a loop the caller writes over
//! `Service::submit` or `Client::count`.

use subgraph_counting::core::{Algorithm, Engine};
use subgraph_counting::gen::{chung_lu, power_law_degrees};
use subgraph_counting::graph::CsrGraph;
use subgraph_counting::query::{QueryGraph, Registry};

fn bench_graph() -> CsrGraph {
    let degrees: Vec<f64> = power_law_degrees(180, 1.7)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    chung_lu(&degrees, 99)
}

fn registry_queries() -> Vec<(String, QueryGraph)> {
    Registry::builtin()
        .entries()
        .map(|e| (e.name().to_string(), e.query().clone()))
        .collect()
}

/// The acceptance contract: `count_batch` over the full builtin registry is
/// bit-identical to solo runs, for both algorithms.
#[test]
fn count_batch_over_the_full_registry_is_bit_identical_to_solo() {
    let graph = bench_graph();
    let engine = Engine::new(&graph);
    let queries = registry_queries();
    for algorithm in [Algorithm::DegreeBased, Algorithm::PathSplitting] {
        let requests: Vec<_> = queries
            .iter()
            .map(|(_, q)| engine.count(q).algorithm(algorithm).trials(3).seed(17))
            .collect();
        let batch = engine.count_batch(&requests).unwrap();
        assert_eq!(batch.estimates.len(), queries.len());
        for ((name, query), estimate) in queries.iter().zip(&batch.estimates) {
            let solo = engine
                .count(query)
                .algorithm(algorithm)
                .trials(3)
                .seed(17)
                .estimate()
                .unwrap();
            assert_eq!(estimate.per_trial, solo.per_trial, "{name} {algorithm}");
            assert_eq!(
                estimate.estimated_matches.to_bits(),
                solo.estimated_matches.to_bits(),
                "{name} {algorithm}"
            );
            assert_eq!(
                estimate.estimated_subgraphs.to_bits(),
                solo.estimated_subgraphs.to_bits(),
                "{name} {algorithm}"
            );
        }
        // The registry's structures are all distinct, so nothing dedups:
        // every cell draws its coloring and runs its DP.
        let m = &batch.metrics;
        assert_eq!(m.queries, queries.len());
        assert_eq!(m.unique_plans, queries.len());
        assert_eq!(m.plans_deduped, 0);
        assert_eq!(m.colorings_shared, 0);
        assert_eq!(m.dp_runs, m.cells, "distinct structures all run their DP");
    }
}

/// A repeat-heavy workload (several clients sweeping the registry with one
/// seed) collapses to one DP run per distinct query per trial.
#[test]
fn duplicate_sweeps_dedup_to_one_dp_run_per_query() {
    let graph = bench_graph();
    let engine = Engine::new(&graph);
    let queries = registry_queries();
    let clients = 3;
    let requests: Vec<_> = (0..clients)
        .flat_map(|_| {
            queries
                .iter()
                .map(|(_, q)| engine.count(q).trials(2).seed(5))
        })
        .collect();
    let batch = engine.count_batch(&requests).unwrap();
    let m = &batch.metrics;
    assert_eq!(m.queries, clients * queries.len());
    assert_eq!(m.unique_plans, queries.len());
    assert_eq!(m.plans_deduped, (clients - 1) * queries.len());
    assert_eq!(m.dp_runs, 2 * queries.len() as u64);
    assert_eq!(m.dp_shared, m.cells - m.dp_runs);
    // Every client's copy is identical (and identical to solo).
    for c in 1..clients {
        for (i, (name, _)) in queries.iter().enumerate() {
            assert_eq!(
                batch.estimates[i].per_trial,
                batch.estimates[c * queries.len() + i].per_trial,
                "{name} client {c}"
            );
        }
    }
}

/// Text-pattern requests batch exactly like constructor-built ones.
#[test]
fn pattern_requests_batch_identically_to_constructors() {
    let graph = bench_graph();
    let engine = Engine::new(&graph);
    let by_text = vec![
        engine.count_str("a-b, b-c, c-a").unwrap().trials(4).seed(3),
        engine.count_str("cycle(4)").unwrap().trials(4).seed(3),
        engine.count_str("glet1").unwrap().trials(4).seed(3),
    ];
    let batch_text = engine.count_batch(&by_text).unwrap();
    let queries = [
        subgraph_counting::query::catalog::triangle(),
        subgraph_counting::query::catalog::cycle(4),
        subgraph_counting::query::catalog::glet1(),
    ];
    let by_ctor: Vec<_> = queries
        .iter()
        .map(|q| engine.count(q).trials(4).seed(3))
        .collect();
    let batch_ctor = engine.count_batch(&by_ctor).unwrap();
    for (a, b) in batch_text.estimates.iter().zip(&batch_ctor.estimates) {
        assert_eq!(a.per_trial, b.per_trial);
        assert_eq!(a.estimated_matches.to_bits(), b.estimated_matches.to_bits());
    }
}

/// Sharded batches agree with serial batches and solo sharded runs on a
/// generated graph.
#[test]
fn sharded_batches_are_bit_identical_on_generated_graphs() {
    let graph = bench_graph();
    let engine = Engine::new(&graph);
    let queries = registry_queries();
    let serial = engine
        .count_batch(
            &queries
                .iter()
                .map(|(_, q)| engine.count(q).trials(2).seed(23).parallel(false))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    for shards in [2usize, 4] {
        let sharded = engine
            .count_batch(
                &queries
                    .iter()
                    .map(|(_, q)| {
                        engine
                            .count(q)
                            .trials(2)
                            .seed(23)
                            .parallel(false)
                            .sharded(shards)
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        for ((name, _), (a, b)) in queries
            .iter()
            .zip(serial.estimates.iter().zip(&sharded.estimates))
        {
            assert_eq!(a.per_trial, b.per_trial, "{name} at {shards} shards");
        }
    }
}
