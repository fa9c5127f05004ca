//! Cycle counting on a skewed social network, with load-balance metrics.
//!
//! Generates an R-MAT social network (the paper's weak-scaling generator with
//! Graph 500 parameters), counts 5-cycles and the fused-cycle `brain1` query,
//! and prints the per-rank load statistics that Figure 11 reports: the DB
//! algorithm should show both a lower total load and a lower max/avg
//! imbalance than the PS baseline.
//!
//! Run with:
//! ```text
//! cargo run --release --example social_cycles
//! ```

use subgraph_counting::gen::rmat::{rmat, RmatParams};
use subgraph_counting::graph::DegreeStats;
use subgraph_counting::query::catalog;
use subgraph_counting::{Algorithm, Engine};

fn main() {
    let graph = rmat(11, RmatParams::paper(), 3); // 2048 vertices
    let stats = DegreeStats::compute(&graph);
    println!(
        "R-MAT social network: {} vertices, {} edges, skew {:.1}",
        stats.num_vertices,
        stats.num_edges,
        stats.skew()
    );
    println!();

    let ranks = 64;
    let engine = Engine::new(&graph);
    for (name, query) in [
        ("glet2 (5-cycle)", catalog::glet2()),
        ("brain1", catalog::brain1()),
    ] {
        println!("query {name}:");
        let mut results = Vec::new();
        for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let res = engine
                .count(&query)
                .algorithm(algorithm)
                .sharded(ranks)
                .seed(17)
                .run()
                .unwrap();
            println!(
                "  {:<3} colorful={:<12} total ops={:<12} max load={:<12} avg load={:<12.0} imbalance={:.2}",
                algorithm.short_name(),
                res.colorful_matches,
                res.metrics.total_ops,
                res.metrics.max_load(),
                res.metrics.avg_load(),
                res.metrics.load.imbalance()
            );
            results.push(res);
        }
        assert_eq!(
            results[0].colorful_matches, results[1].colorful_matches,
            "PS and DB must agree"
        );
        let ops_if =
            results[0].metrics.total_ops as f64 / results[1].metrics.total_ops.max(1) as f64;
        let max_if =
            results[0].metrics.max_load() as f64 / results[1].metrics.max_load().max(1) as f64;
        println!(
            "  DB improvement: {:.2}x total ops, {:.2}x max load",
            ops_if, max_if
        );
        println!();
    }
}
