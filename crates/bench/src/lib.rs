//! # sgc-bench — experiment harness
//!
//! Shared helpers for the experiment binaries that regenerate every table and
//! figure of the paper's evaluation (Section 8) and for the Criterion
//! microbenchmarks. Each binary prints the rows/series of the corresponding
//! paper artifact; see `EXPERIMENTS.md` at the repository root for the
//! mapping and for the recorded results.
//!
//! All experiments run at a configurable fraction of the paper's graph sizes
//! (the `SGC_SCALE` environment variable, default `0.02`), because the paper
//! used up to 512 Blue Gene/Q cores and this harness targets a laptop. The
//! *shape* of the results (who wins, by what factor, how scaling behaves) is
//! what is being reproduced, not the absolute numbers.

use std::time::Instant;
use subgraph_counting::core::{Algorithm, CountResult, Engine};
use subgraph_counting::engine::parallel::run_with_threads;
use subgraph_counting::gen::catalog::{GraphSpec, TABLE1_ANALOGS};
use subgraph_counting::graph::{Coloring, CsrGraph};
use subgraph_counting::query::{catalog, heuristic_plan, DecompositionTree, QueryGraph, Registry};

/// The default fraction of the paper's graph sizes used by the experiments.
pub const DEFAULT_SCALE: f64 = 0.02;

/// Reads the experiment scale from `SGC_SCALE` (fraction of the paper's graph
/// sizes), falling back to [`DEFAULT_SCALE`].
pub fn experiment_scale() -> f64 {
    std::env::var("SGC_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0 && s <= 1.0)
        .unwrap_or(DEFAULT_SCALE)
}

/// Whether the full 10×10 graph-query cross product should be run
/// (`SGC_FULL=1`); the default is a representative quick subset so that every
/// experiment binary finishes in minutes on a laptop.
pub fn full_suite() -> bool {
    std::env::var("SGC_FULL").map(|v| v == "1").unwrap_or(false)
}

/// The graph subset selected by [`full_suite`].
pub fn graph_subset() -> &'static [&'static str] {
    if full_suite() {
        &[]
    } else {
        QUICK_GRAPHS
    }
}

/// The query subset selected by [`full_suite`].
pub fn query_subset() -> &'static [&'static str] {
    if full_suite() {
        &[]
    } else {
        QUICK_QUERIES
    }
}

/// Reads a positive integer from the environment, falling back to
/// `default` when the variable is unset, unparsable or zero — the shared
/// parse policy of every experiment knob (`SGC_RANKS`, `SGC_SHARDS`, the
/// `SGC_SERVICE_*` family).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Reads the number of simulated ranks from `SGC_RANKS` (default 64).
pub fn simulated_ranks() -> usize {
    env_usize("SGC_RANKS", 64)
}

/// Reads the shard count for sharded-runtime experiments from `SGC_SHARDS`
/// (default: the hardware thread count, one shard per worker).
pub fn shard_count() -> usize {
    env_usize("SGC_SHARDS", max_threads())
}

/// A named, generated benchmark graph.
pub struct BenchGraph {
    /// Table 1 name.
    pub name: &'static str,
    /// The generating spec.
    pub spec: &'static GraphSpec,
    /// The generated analog.
    pub graph: CsrGraph,
}

/// Generates the Table 1 analog suite at the given scale.
///
/// `subset` limits the suite to the named graphs (empty = all ten).
pub fn benchmark_graphs(scale: f64, subset: &[&str]) -> Vec<BenchGraph> {
    TABLE1_ANALOGS
        .iter()
        .filter(|spec| subset.is_empty() || subset.contains(&spec.name))
        .map(|spec| BenchGraph {
            name: spec.name,
            spec,
            graph: spec.generate(scale, 0xC0FFEE),
        })
        .collect()
}

/// The graphs used by the quick experiment suite (a representative subset
/// covering high skew, moderate skew and low skew).
pub const QUICK_GRAPHS: &[&str] = &["condMat", "enron", "astroph", "roadNetCA"];

/// A named benchmark query.
pub struct BenchQuery {
    /// Figure 8 name.
    pub name: &'static str,
    /// The query graph.
    pub query: QueryGraph,
    /// The heuristic decomposition plan.
    pub plan: DecompositionTree,
}

/// The benchmark query suite with heuristic plans.
///
/// An empty `subset` is the ten-query Figure 8 suite (the paper's 10×10
/// cross product); a non-empty subset resolves each name through the
/// built-in [`Registry`] — the same case-insensitive path the pattern
/// parser and the service use, so `satellite` and mixed-case names work —
/// and a name the registry does not know panics loudly instead of silently
/// shrinking the experiment.
///
/// # Panics
/// If `subset` contains a name the catalog does not register.
pub fn benchmark_queries(subset: &[&str]) -> Vec<BenchQuery> {
    let registry = Registry::builtin();
    let names: Vec<&'static str> = if subset.is_empty() {
        catalog::FIGURE8_QUERIES.iter().map(|s| s.name).collect()
    } else {
        subset
            .iter()
            .map(|name| {
                registry
                    .get(name)
                    .unwrap_or_else(|| {
                        panic!(
                            "unknown query `{name}` in experiment subset; registered names: {}",
                            catalog::names().join(", ")
                        )
                    })
                    .name()
            })
            .collect()
    };
    names
        .into_iter()
        .map(|name| {
            let query = registry.build(name).expect("name resolved above");
            let plan = heuristic_plan(&query).expect("registered queries are treewidth-2");
            BenchQuery { name, query, plan }
        })
        .collect()
}

/// The queries used by the quick experiment suite.
pub const QUICK_QUERIES: &[&str] = &["youtube", "glet1", "glet2", "wiki", "dros", "ecoli1"];

/// Runs one colorful count and returns the result together with the
/// wall-clock seconds it took.
///
/// The engine is bound inside the timed region, so the measurement includes
/// the per-run preprocessing — the same quantity the pre-`Engine` harness
/// measured. Use [`timed_count_with_engine`] to measure amortized counting.
pub fn timed_count(
    graph: &CsrGraph,
    plan: &DecompositionTree,
    algorithm: Algorithm,
    threads: usize,
    seed: u64,
) -> (CountResult, f64) {
    // The coloring is drawn outside the timed region, as the pre-`Engine`
    // harness did; binding the engine (the preprocessing) stays inside it.
    let coloring = Coloring::random(graph.num_vertices(), plan.query.num_nodes(), seed);
    let started = Instant::now();
    let result = run_with_threads(threads, || {
        Engine::new(graph)
            .count(&plan.query)
            .plan(plan)
            .algorithm(algorithm)
            .ranks(simulated_ranks())
            .coloring(&coloring)
            .run()
            .expect("benchmark graphs and catalog plans are always valid")
    });
    (result, started.elapsed().as_secs_f64())
}

/// Runs one colorful count on an already-bound [`Engine`], timing only the
/// counting itself (the preprocessing is amortized across calls).
pub fn timed_count_with_engine(
    engine: &Engine<'_>,
    plan: &DecompositionTree,
    algorithm: Algorithm,
    threads: usize,
    seed: u64,
) -> (CountResult, f64) {
    let graph = engine.graph();
    let coloring = Coloring::random(graph.num_vertices(), plan.query.num_nodes(), seed);
    let started = Instant::now();
    let result = run_with_threads(threads, || {
        engine
            .count(&plan.query)
            .plan(plan)
            .algorithm(algorithm)
            .ranks(simulated_ranks())
            .coloring(&coloring)
            .run()
            .expect("benchmark graphs and catalog plans are always valid")
    });
    (result, started.elapsed().as_secs_f64())
}

/// Runs one colorful count through the sharded rank-runtime with
/// `num_shards` shards on a pool of `num_shards` worker threads, timing only
/// the counting (the engine is bound by the caller and amortized).
///
/// This is what the Figure 13 scaling experiments measure since the sharded
/// runtime landed: real vertex-partitioned execution with partial-sum
/// exchange, not simulated ranks. The returned metrics carry
/// `RunMetrics::shards` with the per-shard load and exchange accounting.
pub fn timed_count_sharded(
    engine: &Engine<'_>,
    plan: &DecompositionTree,
    algorithm: Algorithm,
    num_shards: usize,
    seed: u64,
) -> (CountResult, f64) {
    let graph = engine.graph();
    let coloring = Coloring::random(graph.num_vertices(), plan.query.num_nodes(), seed);
    let started = Instant::now();
    let result = run_with_threads(num_shards, || {
        engine
            .count(&plan.query)
            .plan(plan)
            .algorithm(algorithm)
            .ranks(simulated_ranks())
            .coloring(&coloring)
            .sharded(num_shards)
            .run()
            .expect("benchmark graphs and catalog plans are always valid")
    });
    (result, started.elapsed().as_secs_f64())
}

/// The number of hardware threads used as the "high parallelism" setting.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Geometric mean of a slice of positive numbers.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints the standard experiment header (scale, thread counts, ranks).
pub fn print_header(title: &str) {
    println!("==== {title} ====");
    println!(
        "scale = {} of the paper's graph sizes, threads = {}, simulated ranks = {}",
        experiment_scale(),
        max_threads(),
        simulated_ranks()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_and_parses() {
        // The environment is not modified here; just check the default range.
        let s = experiment_scale();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn benchmark_suites_are_nonempty() {
        let graphs = benchmark_graphs(0.005, QUICK_GRAPHS);
        assert_eq!(graphs.len(), QUICK_GRAPHS.len());
        let queries = benchmark_queries(QUICK_QUERIES);
        assert_eq!(queries.len(), QUICK_QUERIES.len());
        let all_queries = benchmark_queries(&[]);
        assert_eq!(all_queries.len(), 10);
        // Every bench query name is a registered catalog name.
        for q in &all_queries {
            assert!(catalog::names().contains(&q.name));
        }
        // Subsets resolve case-insensitively and beyond Figure 8: the same
        // registry path the pattern parser uses.
        let cased = benchmark_queries(&["DROS", "satellite"]);
        assert_eq!(cased.len(), 2);
        assert_eq!(cased[0].name, "dros");
        assert_eq!(cased[1].name, "satellite");
        assert_eq!(cased[1].query.num_nodes(), 11);
    }

    #[test]
    #[should_panic(expected = "unknown query `tirangle`")]
    fn misspelled_subset_names_panic_loudly() {
        benchmark_queries(&["tirangle"]);
    }

    #[test]
    fn timed_count_agrees_across_algorithms() {
        let graphs = benchmark_graphs(0.003, &["condMat"]);
        let queries = benchmark_queries(&["youtube"]);
        let (ps, _) = timed_count(
            &graphs[0].graph,
            &queries[0].plan,
            Algorithm::PathSplitting,
            2,
            1,
        );
        let (db, _) = timed_count(
            &graphs[0].graph,
            &queries[0].plan,
            Algorithm::DegreeBased,
            2,
            1,
        );
        assert_eq!(ps.colorful_matches, db.colorful_matches);

        // The amortized variant counts the same thing on a shared engine.
        let engine = Engine::new(&graphs[0].graph);
        for _ in 0..2 {
            let (amortized, _) =
                timed_count_with_engine(&engine, &queries[0].plan, Algorithm::DegreeBased, 2, 1);
            assert_eq!(amortized.colorful_matches, db.colorful_matches);
        }

        // The sharded runtime returns the same count for every shard count
        // and reports per-shard metrics.
        for shards in [1usize, 2, 4] {
            let (sharded, _) =
                timed_count_sharded(&engine, &queries[0].plan, Algorithm::DegreeBased, shards, 1);
            assert_eq!(sharded.colorful_matches, db.colorful_matches);
            let metrics = sharded.metrics.shards.expect("sharded metrics present");
            assert_eq!(metrics.num_shards(), shards);
        }
    }

    #[test]
    fn shard_count_is_positive() {
        assert!(shard_count() >= 1);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
