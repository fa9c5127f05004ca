//! The paper's evaluation shapes (Section 8) as assertions on the Table 1
//! analogs.
//!
//! Each test runs all ten Figure 8 queries on their heuristic plans under
//! both algorithms, one colouring per query, and reads only deterministic
//! counters — `RunMetrics::total_ops` and the per-rank `max_load()` over 64
//! simulated ranks — never a clock, so the outcome is the same on any box.
//! What is reproduced is the *shape* of a figure (who does less work, whose
//! load is better balanced), not its absolute numbers. Every failure message
//! prints the measured rows next to the figure's claim.
//!
//! Shapes pinned elsewhere: Corollary 9.9 by
//! `theory::bounds::tests::power_law_sequences_give_polynomially_smaller_x_bound`
//! and `theory::paths::tests::skewed_graphs_have_fewer_high_starting_paths`,
//! Claim 10.1 by `theory::balanced::tests`, Table 1's skew by
//! `gen::catalog::tests::skewed_rows_are_more_skewed_than_road`. Figure 14
//! (heuristic plan within 15 % of the best) does not reproduce here and is
//! recorded as such in DESIGN.md rather than asserted either way.

use std::fmt::Write;
use subgraph_counting::core::{Algorithm, Engine};
use subgraph_counting::gen::catalog::TABLE1_ANALOGS;
use subgraph_counting::graph::Coloring;
use subgraph_counting::query::{catalog::FIGURE8_QUERIES, heuristic_plan};

/// Simulated ranks the loads are attributed to (the paper runs 32–512).
const RANKS: usize = 64;

/// One query's deterministic work counters under PS and DB.
struct Row {
    query: &'static str,
    ps_ops: u64,
    db_ops: u64,
    ps_max_load: u64,
    db_max_load: u64,
}

impl Row {
    /// PS work over DB work: the paper's improvement factor, in operations.
    fn ops_ratio(&self) -> f64 {
        self.ps_ops as f64 / self.db_ops as f64
    }

    fn max_load_ratio(&self) -> f64 {
        self.ps_max_load as f64 / self.db_max_load as f64
    }
}

/// Runs every Figure 8 query on the named Table 1 analog at `scale`.
fn measure(graph: &str, scale: f64) -> Vec<Row> {
    let spec = TABLE1_ANALOGS
        .iter()
        .find(|spec| spec.name == graph)
        .expect("a Table 1 row");
    let graph = spec.generate(scale, 0xC0FFEE);
    let engine = Engine::new(&graph);
    FIGURE8_QUERIES
        .iter()
        .map(|spec| {
            let query = (spec.build)();
            let plan = heuristic_plan(&query).expect("Figure 8 queries are treewidth 2");
            let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 42);
            let run = |algorithm| {
                let request = engine.count(&query).plan(&plan).algorithm(algorithm);
                request.ranks(RANKS).coloring(&coloring).run().unwrap()
            };
            let (ps, db) = (run(Algorithm::PathSplitting), run(Algorithm::DegreeBased));
            assert_eq!(ps.colorful_matches, db.colorful_matches, "{}", spec.name);
            Row {
                query: spec.name,
                ps_ops: ps.metrics.total_ops,
                db_ops: db.metrics.total_ops,
                ps_max_load: ps.metrics.max_load(),
                db_max_load: db.metrics.max_load(),
            }
        })
        .collect()
}

/// The measured rows as a table, for failure messages.
fn table(label: &str, rows: &[Row]) -> String {
    let mut out = format!(
        "{label}:\n{:<8} {:>12} {:>12} {:>7} {:>12} {:>12} {:>7}\n",
        "query", "PS ops", "DB ops", "PS/DB", "PS max", "DB max", "PS/DB"
    );
    for r in rows {
        writeln!(
            out,
            "{:<8} {:>12} {:>12} {:>7.2} {:>12} {:>12} {:>7.2}",
            r.query,
            r.ps_ops,
            r.db_ops,
            r.ops_ratio(),
            r.ps_max_load,
            r.db_max_load,
            r.max_load_ratio()
        )
        .unwrap();
    }
    out
}

fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0), |(sum, n), v| (sum + v.ln(), n + 1));
    (sum / n as f64).exp()
}

/// Figure 10: DB beats PS on skewed graphs (the paper: on 84–89 % of
/// graph–query pairs, by 2.4–5.0× on average) but not on the low-skew
/// roadNetCA. In operations, at these scales: enron PS/DB 0.85–1.67 (8 of
/// 10 below 1 for DB, geomean ≈ 1.22), condMat 1.11–1.68 (10 of 10,
/// geomean ≈ 1.26), roadNetCA 0.64–0.95.
#[test]
fn figure10_db_does_less_work_than_ps_on_skew_but_not_on_roads() {
    const CLAIM: &str = "paper Fig. 10: DB wins on 84–89 % of pairs on skewed graphs";
    for (graph, scale) in [("enron", 0.01), ("condMat", 0.02)] {
        let rows = measure(graph, scale);
        let label = format!("{graph}@{scale}");
        let wins = rows.iter().filter(|r| r.db_ops < r.ps_ops).count();
        let geomean = geometric_mean(rows.iter().map(Row::ops_ratio));
        assert!(
            wins >= 8,
            "{label}: DB did fewer ops on {wins} of 10 queries, want ≥ 8 ({CLAIM})\n{}",
            table(&label, &rows)
        );
        assert!(
            geomean > 1.1,
            "{label}: geometric-mean PS/DB ops {geomean:.2}, want > 1.1 ({CLAIM})\n{}",
            table(&label, &rows)
        );
    }

    let rows = measure("roadNetCA", 0.002);
    let label = "roadNetCA@0.002";
    assert!(
        rows.iter().all(|r| r.ops_ratio() < 1.0),
        "{label}: DB must do more ops than PS on every query \
         (paper Fig. 10: roadNetCA is where DB does not win)\n{}",
        table(label, &rows)
    );
}

/// Figure 11: on enron DB lowers the maximum per-rank load on every query,
/// and by more than it lowers the total work — balance improves more than
/// work. Measured: max-load ratio 1.46–5.21× against ops ratio 0.85–1.67×.
#[test]
fn figure11_db_lowers_max_rank_load_on_enron() {
    const CLAIM: &str = "paper Fig. 11: DB's max load is lower than PS's, \
                         and the time improvement follows the max-load improvement";
    let rows = measure("enron", 0.01);
    let label = "enron@0.01";
    for r in &rows {
        assert!(
            r.db_max_load < r.ps_max_load,
            "{label} {}: DB max load {} ≥ PS max load {} ({CLAIM})\n{}",
            r.query,
            r.db_max_load,
            r.ps_max_load,
            table(label, &rows)
        );
        assert!(
            r.max_load_ratio() >= r.ops_ratio(),
            "{label} {}: max-load ratio {:.2} < ops ratio {:.2} ({CLAIM})\n{}",
            r.query,
            r.max_load_ratio(),
            r.ops_ratio(),
            table(label, &rows)
        );
    }
}
