//! Count biological motifs in a synthetic protein-interaction network.
//!
//! The paper's motivating application is motif counting in biological
//! networks (Section 1). This example generates a Chung-Lu network with the
//! degree profile of a protein-interaction graph, counts the `dros`, `ecoli1`
//! and `ecoli2` motifs from the Figure 8 suite with both the PS baseline and
//! the DB algorithm, and reports the improvement factor — the per-pair
//! quantity behind Figure 10.
//!
//! Run with:
//! ```text
//! cargo run --release --example biological_motifs
//! ```

use std::time::Instant;
use subgraph_counting::gen::{chung_lu, power_law_degrees};
use subgraph_counting::graph::DegreeStats;
use subgraph_counting::query::catalog;
use subgraph_counting::{Algorithm, Engine};

fn main() {
    // A protein-interaction-like network: a few thousand proteins with a
    // heavy-tailed interaction distribution.
    let degrees: Vec<f64> = power_law_degrees(4000, 1.6)
        .into_iter()
        .map(|d| d * 2.0)
        .collect();
    let graph = chung_lu(&degrees, 7);
    let stats = DegreeStats::compute(&graph);
    println!(
        "synthetic PPI network: {} vertices, {} edges, avg degree {:.1}, max degree {}",
        stats.num_vertices, stats.num_edges, stats.avg_degree, stats.max_degree
    );
    println!();
    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>8}",
        "motif", "colorful", "PS (s)", "DB (s)", "IF"
    );

    // One engine for the whole session: the degree order and rank-sorted
    // adjacency are computed once and shared by all six runs below.
    let engine = Engine::new(&graph);

    for name in ["dros", "ecoli1", "ecoli2"] {
        let query = catalog::query_by_name(name).unwrap();

        let started = Instant::now();
        let ps = engine
            .count(&query)
            .algorithm(Algorithm::PathSplitting)
            .seed(99)
            .run()
            .unwrap();
        let ps_time = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let db = engine
            .count(&query)
            .algorithm(Algorithm::DegreeBased)
            .seed(99)
            .run()
            .unwrap();
        let db_time = started.elapsed().as_secs_f64();

        assert_eq!(ps.colorful_matches, db.colorful_matches);
        println!(
            "{:<8} {:>14} {:>12.3} {:>12.3} {:>8.2}",
            name,
            db.colorful_matches,
            ps_time,
            db_time,
            ps_time / db_time.max(1e-9)
        );
    }
    println!();
    println!("IF = improvement factor of DB over PS (paper, Figure 10).");
}
