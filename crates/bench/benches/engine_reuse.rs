//! Criterion benchmark: what binding the `Engine` once actually buys.
//!
//! `fresh_prep_per_trial` binds a throwaway [`Engine`] per trial: every
//! trial rebuilds the graph preprocessing (degree order plus an
//! `O(m log m)` re-sort of every adjacency list) before counting.
//! `reused_engine` runs the same trials through one bound
//! [`Engine`], paying the preprocessing once per benchmark iteration. The
//! gap between the two series is the amortization win of the bind-once API;
//! it grows with the trial count.
//!
//! `sharded_engine` runs the same trials through the sharded rank-runtime
//! (vertex-partitioned execution with partial-sum exchange) on the bound
//! engine; the per-shard load summary printed after the group comes from
//! the runtime's measured `ShardMetrics`, not the simulated-rank
//! attribution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subgraph_counting::core::{CountConfig, Engine};
use subgraph_counting::gen::{chung_lu, power_law_degrees};
use subgraph_counting::graph::Coloring;
use subgraph_counting::query::{catalog, heuristic_plan};

/// Shards used by the `sharded_engine` series.
const SHARDS: usize = 4;

fn bench_engine_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_reuse");
    group.sample_size(10);

    let degrees: Vec<f64> = power_law_degrees(4000, 1.5)
        .iter()
        .map(|d| d * 2.0)
        .collect();
    let graph = chung_lu(&degrees, 13);
    let query = catalog::triangle();
    let plan = heuristic_plan(&query).unwrap();
    let config = CountConfig::default().with_ranks(16);

    for trials in [3usize, 10, 30] {
        group.bench_with_input(
            BenchmarkId::new("fresh_prep_per_trial", trials),
            &trials,
            |b, &trials| {
                b.iter(|| {
                    let mut total = 0u64;
                    for trial in 0..trials {
                        let coloring =
                            Coloring::random(graph.num_vertices(), query.num_nodes(), trial as u64);
                        total += Engine::new(&graph)
                            .count(&query)
                            .plan(&plan)
                            .config(config)
                            .coloring(&coloring)
                            .run()
                            .unwrap()
                            .colorful_matches;
                    }
                    total
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reused_engine", trials),
            &trials,
            |b, &trials| {
                b.iter(|| {
                    let engine = Engine::new(&graph);
                    engine
                        .count(&query)
                        .config(config)
                        .trials(trials)
                        .seed(0)
                        .parallel(false) // sequential: isolate the prep amortization
                        .estimate()
                        .unwrap()
                        .per_trial
                        .iter()
                        .sum::<u64>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sharded_engine", trials),
            &trials,
            |b, &trials| {
                let engine = Engine::new(&graph);
                b.iter(|| {
                    engine
                        .count(&query)
                        .config(config)
                        .trials(trials)
                        .seed(0)
                        .parallel(false) // shard parallelism only, per trial
                        .sharded(SHARDS)
                        .estimate()
                        .unwrap()
                        .per_trial
                        .iter()
                        .sum::<u64>()
                });
            },
        );
    }
    group.finish();

    // Per-shard load summary (measured by the sharded runtime, one count):
    // the Figure 11 quantities for the real shards, replacing the old
    // simulated-rank accounting.
    let engine = Engine::new(&graph);
    let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 0);
    let result = engine
        .count(&query)
        .config(config)
        .coloring(&coloring)
        .sharded(SHARDS)
        .run()
        .unwrap();
    let shards = result
        .metrics
        .shards
        .expect("sharded run reports shard metrics");
    println!(
        "engine_reuse/sharded_engine shard loads ({SHARDS} shards): max {} ops, avg {:.0} ops, imbalance {:.2}, {} entries exchanged over {} rounds",
        shards.max_ops(),
        shards.avg_ops(),
        shards.imbalance(),
        shards.total_entries_exchanged(),
        shards.exchange_rounds,
    );
}

criterion_group!(benches, bench_engine_reuse);
criterion_main!(benches);
