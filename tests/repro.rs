//! The paper's evaluation shapes (Section 8) as assertions on the Table 1
//! analogs.
//!
//! Figures 10 and 11 run all ten Figure 8 queries on their Section 6 plans
//! under both algorithms; Figure 14 runs every registry query on every
//! enumerated plan under DB. Each uses one colouring per query and reads
//! only deterministic counters — `RunMetrics::total_ops` and the per-rank
//! `max_load()` over 64 simulated ranks — never a clock, so the outcome is
//! the same on any box. What is reproduced is the *shape* of a figure (who
//! does less work, whose load is better balanced, how far the chosen plan is
//! from the best), not its absolute numbers. Every failure message prints
//! the measured rows next to the figure's claim.
//!
//! Shapes pinned elsewhere: Corollary 9.9 by
//! `theory::bounds::tests::power_law_sequences_give_polynomially_smaller_x_bound`
//! and `theory::paths::tests::skewed_graphs_have_fewer_high_starting_paths`,
//! Claim 10.1 by `theory::balanced::tests`, Table 1's skew by
//! `gen::catalog::tests::skewed_rows_are_more_skewed_than_road`.

use std::fmt::Write;
use subgraph_counting::core::{Algorithm, Engine};
use subgraph_counting::gen::catalog::TABLE1_ANALOGS;
use subgraph_counting::graph::{Coloring, CsrGraph};
use subgraph_counting::query::catalog::{self, FIGURE8_QUERIES};
use subgraph_counting::query::{
    enumerate_plans, heuristic_plan, DecompositionTree, PlanCost, QueryGraph,
};

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

/// The named Table 1 analog at `scale`.
fn analog(graph: &str, scale: f64) -> CsrGraph {
    TABLE1_ANALOGS
        .iter()
        .find(|spec| spec.name == graph)
        .expect("a Table 1 row")
        .generate(scale, 0xC0FFEE)
}

/// The colouring every figure runs `query` with.
fn coloring_for(graph: &CsrGraph, query: &QueryGraph) -> Coloring {
    Coloring::random(graph.num_vertices(), query.num_nodes(), 42)
}

/// The plan the paper's Section 6 rule picks: the smallest (longest cycle,
/// boundary nodes, annotations), ties broken by signature. Figures 10 and 11
/// were measured on these plans, so they keep them whatever
/// `heuristic_plan` ranks first.
fn section6_plan(query: &QueryGraph) -> DecompositionTree {
    enumerate_plans(query)
        .expect("Figure 8 queries are treewidth 2")
        .into_iter()
        .min_by_key(|tree| {
            let cost = PlanCost::of(tree);
            let key = (cost.longest_cycle, cost.boundary_nodes, cost.annotations);
            (key, tree.signature())
        })
        .expect("enumerate_plans returns at least one plan")
}

/// Runs every Figure 8 query on its Section 6 plan on the named Table 1
/// analog at `scale`.
fn measure(graph: &str, scale: f64) -> Vec<Row> {
    let graph = analog(graph, scale);
    let engine = Engine::new(&graph);
    FIGURE8_QUERIES
        .iter()
        .map(|spec| {
            let query = (spec.build)();
            let plan = section6_plan(&query);
            let coloring = coloring_for(&graph, &query);
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

/// One query's DB work on the planner's plan against every enumerated plan.
struct PlanRow {
    query: &'static str,
    plans: usize,
    chosen_ops: u64,
    best_ops: u64,
    worst_ops: u64,
}

impl PlanRow {
    /// The chosen plan's work over the cheapest plan's: Figure 14's quantity.
    fn over_best(&self) -> f64 {
        self.chosen_ops as f64 / self.best_ops as f64
    }
}

/// Runs every registry query under DB on each of its enumerated plans on
/// the named Table 1 analog at `scale`.
fn measure_plans(graph: &str, scale: f64) -> Vec<PlanRow> {
    let graph = analog(graph, scale);
    let engine = Engine::new(&graph);
    catalog::names()
        .into_iter()
        .map(|name| {
            let query = catalog::query_by_name(name).expect("a registry name");
            let coloring = coloring_for(&graph, &query);
            let ops = |plan: &DecompositionTree| {
                let request = engine.count(&query).plan(plan).coloring(&coloring);
                let run = request.algorithm(Algorithm::DegreeBased).run().unwrap();
                run.metrics.total_ops
            };
            let plans = enumerate_plans(&query).expect("registry queries are treewidth 2");
            let chosen = heuristic_plan(&query).unwrap().signature();
            let chosen = plans.iter().position(|p| p.signature() == chosen);
            let all: Vec<u64> = plans.iter().map(ops).collect();
            PlanRow {
                query: name,
                plans: all.len(),
                chosen_ops: all[chosen.expect("the chosen plan is an enumerated plan")],
                best_ops: *all.iter().min().unwrap(),
                worst_ops: *all.iter().max().unwrap(),
            }
        })
        .collect()
}

fn plan_table(label: &str, rows: &[PlanRow]) -> String {
    let mut out = format!(
        "{label}:\n{:<9} {:>5} {:>12} {:>12} {:>12} {:>10}\n",
        "query", "plans", "chosen ops", "best ops", "worst ops", "chosen/best"
    );
    for r in rows {
        writeln!(
            out,
            "{:<9} {:>5} {:>12} {:>12} {:>12} {:>10.2}",
            r.query,
            r.plans,
            r.chosen_ops,
            r.best_ops,
            r.worst_ops,
            r.over_best()
        )
        .unwrap();
    }
    out
}

/// Figure 14: the query-only planner picks a plan close to the best one
/// (the paper: optimal or within 15 % of it). The paper's Section 6 rule
/// alone does not reproduce this here (geomean chosen/best 1.50 / 1.49 /
/// 1.23 on these analogs, worst 2.55); ranking plans by the nodes they fold
/// into cycles does (1.02 / 1.02 / 1.03, worst 1.16 on the skewed analogs).
/// On roads the worst single query, brain2, stays at 1.38, so only the
/// geomean is bounded there.
#[test]
fn figure14_planner_stays_near_the_best_enumerated_plan() {
    const CLAIM: &str = "paper Fig. 14: the heuristic plan is optimal or within 15 % of it";
    for (graph, scale, worst_bound) in [
        ("enron", 0.01, Some(1.20)),
        ("condMat", 0.02, Some(1.20)),
        ("roadNetCA", 0.002, None),
    ] {
        let rows = measure_plans(graph, scale);
        let label = format!("{graph}@{scale}");
        let geomean = geometric_mean(rows.iter().map(PlanRow::over_best));
        assert!(
            geomean <= 1.05,
            "{label}: geometric-mean chosen/best DB ops {geomean:.3}, want ≤ 1.05 ({CLAIM})\n{}",
            plan_table(&label, &rows)
        );
        if let Some(bound) = worst_bound {
            let by_ratio = |a: &&PlanRow, b: &&PlanRow| a.over_best().total_cmp(&b.over_best());
            let worst = rows
                .iter()
                .max_by(by_ratio)
                .expect("the registry is not empty");
            assert!(
                worst.over_best() <= bound,
                "{label} {}: chosen/best DB ops {:.3}, want ≤ {bound} ({CLAIM})\n{}",
                worst.query,
                worst.over_best(),
                plan_table(&label, &rows)
            );
        }
    }
}
