//! Integration tests for the sharded rank-runtime.
//!
//! The contract under test: for any query, algorithm, coloring and shard
//! count, `engine.count(&q).sharded(s).run()` returns a count bit-identical
//! to the serial path, while reporting per-shard execution metrics. Shard
//! counts 1, 2, 4 and 8 are exercised on every catalog query, including
//! degenerate layouts (more shards than vertices, single-vertex shards).

use subgraph_counting::core::brute::count_colorful_matches;
use subgraph_counting::core::{Algorithm, Engine, SgcError};
use subgraph_counting::engine::parallel::run_with_threads;
use subgraph_counting::gen::chung_lu;
use subgraph_counting::gen::power_law_degrees;
use subgraph_counting::graph::{Coloring, CsrGraph, GraphBuilder};
use subgraph_counting::query::{catalog, QueryGraph, Registry};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn demo_graph() -> CsrGraph {
    let mut b = GraphBuilder::new(12);
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
        (9, 10),
        (10, 11),
        (11, 4),
    ]);
    b.build()
}

fn catalog_queries() -> Vec<(&'static str, QueryGraph)> {
    catalog::FIGURE8_QUERIES
        .iter()
        .map(|spec| (spec.name, (spec.build)()))
        .chain([
            ("triangle", catalog::triangle()),
            ("c4", catalog::cycle(4)),
            ("c5", catalog::cycle(5)),
            ("path4", catalog::path(4)),
        ])
        .collect()
}

#[test]
fn sharded_counts_are_bit_identical_to_serial_on_all_catalog_queries() {
    let graph = demo_graph();
    let engine = Engine::new(&graph);
    for (name, query) in catalog_queries() {
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 17);
        for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let request = || {
                engine
                    .count(&query)
                    .algorithm(algorithm)
                    .coloring(&coloring)
            };
            let serial = request().run().unwrap();
            for shards in SHARD_COUNTS {
                let sharded = request().sharded(shards).run().unwrap();
                assert_eq!(
                    sharded.colorful_matches, serial.colorful_matches,
                    "{name} with {algorithm} at {shards} shards"
                );
                let metrics = sharded.metrics.shards.expect("sharded metrics present");
                assert_eq!(metrics.num_shards(), shards);
                assert!(metrics.exchange_rounds > 0);
                // The same operations happen whatever the layout, just on
                // different workers and charged to the layout's blocks.
                assert_eq!(
                    sharded.metrics.total_ops, serial.metrics.total_ops,
                    "{name} with {algorithm} at {shards} shards"
                );
                assert_eq!(
                    sharded.metrics.load.total(),
                    serial.metrics.total_ops,
                    "{name} with {algorithm} at {shards} shards"
                );
                // The load is the layout's, not the thread count's.
                let one_thread = run_with_threads(1, || request().sharded(shards).run().unwrap());
                assert_eq!(
                    one_thread.metrics.load.per_rank(),
                    sharded.metrics.load.per_rank(),
                    "{name} with {algorithm} at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn sharded_counts_match_the_brute_force_oracle() {
    let graph = demo_graph();
    let engine = Engine::new(&graph);
    let query = catalog::triangle();
    let coloring = Coloring::random(graph.num_vertices(), 3, 23);
    let expected = count_colorful_matches(&graph, &query, &coloring);
    for shards in SHARD_COUNTS {
        let got = engine
            .count(&query)
            .coloring(&coloring)
            .sharded(shards)
            .run()
            .unwrap()
            .colorful_matches;
        assert_eq!(got, expected, "{shards} shards");
    }
}

#[test]
fn more_shards_than_vertices_still_agrees() {
    // 4 vertices, up to 16 shards: most shards own nothing, single-vertex
    // shards own exactly one vertex.
    let mut b = GraphBuilder::new(4);
    b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
    let graph = b.build();
    let engine = Engine::new(&graph);
    let query = catalog::triangle();
    let coloring = Coloring::random(graph.num_vertices(), 3, 5);
    let serial = engine
        .count(&query)
        .coloring(&coloring)
        .run()
        .unwrap()
        .colorful_matches;
    for shards in [1, 3, 4, 7, 16] {
        let sharded = engine
            .count(&query)
            .coloring(&coloring)
            .sharded(shards)
            .run()
            .unwrap()
            .colorful_matches;
        assert_eq!(sharded, serial, "{shards} shards");
    }
}

#[test]
fn sharded_single_node_and_single_edge_queries() {
    let graph = demo_graph();
    let engine = Engine::new(&graph);

    // Single-node query: every vertex matches, shards contribute their
    // owned counts through one scalar exchange.
    let one = QueryGraph::new(1);
    let coloring1 = Coloring::from_colors(vec![0; graph.num_vertices()], 1);
    for shards in SHARD_COUNTS {
        let res = engine
            .count(&one)
            .coloring(&coloring1)
            .sharded(shards)
            .run()
            .unwrap();
        assert_eq!(res.colorful_matches, graph.num_vertices() as u64);
        let metrics = res.metrics.shards.expect("sharded metrics present");
        assert_eq!(metrics.exchange_rounds, 1);
    }

    // Single-edge query: counted via a leaf-edge block.
    let edge = QueryGraph::from_edges(2, &[(0, 1)]).unwrap();
    let coloring2 = Coloring::random(graph.num_vertices(), 2, 3);
    let serial = engine
        .count(&edge)
        .coloring(&coloring2)
        .run()
        .unwrap()
        .colorful_matches;
    for shards in SHARD_COUNTS {
        let sharded = engine
            .count(&edge)
            .coloring(&coloring2)
            .sharded(shards)
            .run()
            .unwrap()
            .colorful_matches;
        assert_eq!(sharded, serial, "{shards} shards");
    }
}

#[test]
fn sharded_estimates_are_bit_identical_to_serial_estimates() {
    let degrees: Vec<f64> = power_law_degrees(200, 1.8)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    let graph = chung_lu(&degrees, 7);
    let engine = Engine::new(&graph);
    let query = catalog::glet1();
    let serial = engine
        .count(&query)
        .trials(6)
        .seed(42)
        .parallel(false)
        .estimate()
        .unwrap();
    for shards in SHARD_COUNTS {
        // Sequential trials: each trial genuinely runs through the sharded
        // runtime (shard parallelism within the trial).
        let sharded = engine
            .count(&query)
            .trials(6)
            .seed(42)
            .parallel(false)
            .sharded(shards)
            .estimate()
            .unwrap();
        assert_eq!(sharded.per_trial, serial.per_trial, "{shards} shards");
        assert_eq!(
            sharded.estimated_matches, serial.estimated_matches,
            "{shards} shards"
        );
    }
    // Parallel trials + sharding: the engine parallelises across trials
    // and skips per-trial sharding (it would only serialize the shards);
    // the result must still be bit-identical.
    let parallel_sharded = engine
        .count(&query)
        .trials(6)
        .seed(42)
        .sharded(4)
        .estimate()
        .unwrap();
    assert_eq!(parallel_sharded.per_trial, serial.per_trial);
}

#[test]
fn zero_shards_is_a_typed_error() {
    let graph = demo_graph();
    let engine = Engine::new(&graph);
    let query = catalog::triangle();
    assert_eq!(
        engine.count(&query).sharded(0).run().unwrap_err(),
        SgcError::ZeroShards
    );
    assert_eq!(
        engine.count(&query).sharded(0).estimate().unwrap_err(),
        SgcError::ZeroShards
    );
}

#[test]
fn shard_load_metrics_cover_the_work() {
    let degrees: Vec<f64> = power_law_degrees(300, 1.6)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    let graph = chung_lu(&degrees, 11);
    let engine = Engine::new(&graph);
    let query = catalog::glet1();
    let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 2);
    let res = engine
        .count(&query)
        .coloring(&coloring)
        .sharded(4)
        .run()
        .unwrap();
    let shards = res.metrics.shards.expect("sharded metrics present");
    // Every projection operation is executed by exactly one shard.
    assert_eq!(shards.ops_per_shard.total(), res.metrics.total_ops);
    assert!(shards.ops_per_shard.max() > 0);
    assert!(shards.imbalance() >= 1.0);
    // Exchange volume: one round per block, entries flowed through it.
    assert!(shards.exchange_rounds > 0);
    assert!(shards.total_entries_exchanged() > 0);
}

/// The determinism matrix, runtime axis: one seed must yield bit-identical
/// estimates across shard counts {1, 2, 4} × execution style (batch vs
/// solo), all agreeing with the serial solo baseline.
#[test]
fn determinism_matrix_shards_by_batch_vs_solo() {
    let degrees: Vec<f64> = power_law_degrees(150, 1.7)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    let graph = chung_lu(&degrees, 31);
    let engine = Engine::new(&graph);
    let queries = [catalog::triangle(), catalog::glet1(), catalog::dros()];
    let baselines: Vec<_> = queries
        .iter()
        .map(|q| {
            engine
                .count(q)
                .trials(4)
                .seed(71)
                .parallel(false)
                .estimate()
                .unwrap()
        })
        .collect();
    // Batch, unsharded.
    let batch = engine
        .count_batch(
            &queries
                .iter()
                .map(|q| engine.count(q).trials(4).seed(71).parallel(false))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    for (baseline, estimate) in baselines.iter().zip(&batch.estimates) {
        assert_eq!(estimate.per_trial, baseline.per_trial, "unsharded batch");
    }
    for shards in [1usize, 2, 4] {
        // Solo, sharded.
        for (q, baseline) in queries.iter().zip(&baselines) {
            let sharded = engine
                .count(q)
                .trials(4)
                .seed(71)
                .parallel(false)
                .sharded(shards)
                .estimate()
                .unwrap();
            assert_eq!(
                sharded.per_trial, baseline.per_trial,
                "solo at {shards} shards"
            );
            assert_eq!(
                sharded.estimated_matches.to_bits(),
                baseline.estimated_matches.to_bits(),
                "solo at {shards} shards"
            );
        }
        // Batch, sharded.
        let batch = engine
            .count_batch(
                &queries
                    .iter()
                    .map(|q| {
                        engine
                            .count(q)
                            .trials(4)
                            .seed(71)
                            .parallel(false)
                            .sharded(shards)
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        for (baseline, estimate) in baselines.iter().zip(&batch.estimates) {
            assert_eq!(
                estimate.per_trial, baseline.per_trial,
                "batch at {shards} shards"
            );
            assert_eq!(
                estimate.estimated_matches.to_bits(),
                baseline.estimated_matches.to_bits(),
                "batch at {shards} shards"
            );
        }
    }
}

/// The 600-vertex Chung–Lu graph of the two tests below. The kernel solves a
/// shard's start range in tiles of about a thousand incident edges; the
/// checks must cover ranges of several tiles.
fn skewed_graph() -> CsrGraph {
    let degrees: Vec<f64> = power_law_degrees(600, 1.6)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    let graph = chung_lu(&degrees, 5);
    assert!(2 * graph.num_edges() > 2048, "{} edges", graph.num_edges());
    graph
}

/// The shard count decides who does the work, never what work is done: on
/// every registry query and both algorithms, `None`, `sharded(1)`,
/// `sharded(2)` and `sharded(5)` report the same count and the same
/// operations, and the load is the layout's: one entry per shard summing to
/// the operations, the same vector on one thread as at the default width.
/// One shard is the serial run down to its load and table
/// metrics — a one-partial exchange round creates no table, so it must not
/// be observed as one; what still tells the two apart is that only the
/// sharded request reports shard metrics.
#[test]
fn shard_count_changes_nothing_but_the_shard_metrics() {
    let graph = skewed_graph();
    let engine = Engine::new(&graph);
    for entry in Registry::builtin().entries() {
        let (name, query) = (entry.name(), entry.query());
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 7);
        for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let request = || engine.count(query).algorithm(algorithm).coloring(&coloring);
            let serial = request().run().unwrap();
            assert!(serial.metrics.shards.is_none(), "{name} with {algorithm}");
            for shards in [1, 2, 5] {
                let what = format!("{name} with {algorithm} at {shards} shards");
                let sharded = request().sharded(shards).run().unwrap();
                let (m, s) = (&sharded.metrics, &serial.metrics);
                assert_eq!(sharded.colorful_matches, serial.colorful_matches, "{what}");
                assert_eq!(m.total_ops, s.total_ops, "{what}");
                assert_eq!(m.load.num_ranks(), shards, "{what}");
                assert_eq!(m.load.total(), s.total_ops, "{what}");
                let one_thread = run_with_threads(1, || request().sharded(shards).run().unwrap());
                assert_eq!(one_thread.metrics.load, m.load, "{what}");
                let shard_metrics = m.shards.as_ref().expect("sharded metrics present");
                assert_eq!(shard_metrics.num_shards(), shards, "{what}");
                assert_eq!(shard_metrics.ops_per_shard.total(), s.total_ops, "{what}");
                if shards == 1 {
                    assert_eq!(m.load, s.load, "{what}");
                    assert_eq!(m.entries_created, s.entries_created, "{what}");
                    assert_eq!(m.peak_table_entries, s.peak_table_entries, "{what}");
                }
            }
        }
    }
}

/// The exchange sums an owner's rows in the arena of the lane it shares its
/// index with, and partials and owner slices are written into the buffers
/// their lane retired a run ago, so the second of two identical sharded
/// trials allocates no table capacity at all — solve, export or exchange.
/// (One pool thread: lanes then check their arenas out in lane order, and
/// each gets its own back.)
#[test]
fn steady_state_sharded_trials_grow_no_arena() {
    let graph = skewed_graph();
    for entry in Registry::builtin().entries() {
        let (name, query) = (entry.name(), entry.query());
        // A pool of its own per query, so every first trial starts cold.
        let engine = Engine::new(&graph);
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 7);
        let run = || {
            let request = engine.count(query).coloring(&coloring).sharded(3);
            run_with_threads(1, || request.run().unwrap().metrics.kernel)
        };
        let first = run();
        assert!(first.arena_grown_bytes > 0, "{name}: cold arenas grow");
        let second = run();
        assert_eq!(second.arena_reuses, 3, "{name}: one warm arena per lane");
        assert_eq!(second.arena_grown_bytes, 0, "{name}");
        assert_eq!(second.arena_bytes, first.arena_bytes, "{name}");
    }
}

/// One engine serving many plans: every role's buffer ends up as large as
/// the largest plan needs it, and no plan's small (or scalar) table may evict
/// another's column — from the second round of a sweep over every registry
/// query on, nothing grows and the arenas hold what they held.
#[test]
fn a_sweep_of_queries_grows_no_arena_after_its_first_round() {
    let graph = skewed_graph();
    for shards in [None, Some(3)] {
        let engine = Engine::new(&graph);
        let round = || -> Vec<_> {
            let registry = Registry::builtin();
            let kernels = registry.entries().map(|entry| {
                let query = entry.query();
                let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 7);
                let request = engine.count(query).coloring(&coloring);
                let request = match shards {
                    Some(n) => request.sharded(n),
                    None => request,
                };
                run_with_threads(1, || request.run().unwrap().metrics.kernel)
            });
            kernels.collect()
        };
        let first = round();
        assert!(first.iter().any(|k| k.arena_grown_bytes > 0), "{shards:?}");
        let held = first.last().map(|k| k.arena_bytes);
        for kernel in round() {
            assert_eq!(kernel.arena_grown_bytes, 0, "{shards:?}");
            assert_eq!(Some(kernel.arena_bytes), held, "{shards:?}");
        }
    }
}
