//! Integration tests of the `sgc-obs` observability layer end to end:
//! the differential guarantee (obs-on ≡ obs-off bit identity — spans and
//! counters read the DP, they never branch it), the text exposition
//! contract (`name value` lines, names unique, sorted, and pinned against
//! a checked-in snapshot), and the `stats`/`trace` wire verbs over a
//! loopback server.
//!
//! These tests share one process, so they toggle observability only at
//! request/config granularity and only ever publish the standard metric names. Each holds [`serial`] so that
//! one test can read an exact counter delta off the shared registry.

use std::sync::{Arc, Mutex, MutexGuard};
use subgraph_counting::engine::parallel::run_with_threads;
use subgraph_counting::gen::erdos_renyi::gnp;
use subgraph_counting::graph::Coloring;
use subgraph_counting::graph::{CsrGraph, GraphBuilder};
use subgraph_counting::net::{Server, ServerConfig};
use subgraph_counting::obs::{global, span, Stage};
use subgraph_counting::query::{catalog, Registry};
use subgraph_counting::{
    Algorithm, CountJob, EdgeDelta, Engine, Precision, Service, ServiceConfig,
};

fn obs_graph() -> CsrGraph {
    gnp(80, 0.1, 0x0B5)
}

/// Serializes this file's tests: all of them publish into the one
/// process-wide registry.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// The one invariant everything else leans on: enabling or disabling
/// observability changes no counted bit, across the registry, both
/// algorithms, and solo vs sharded execution.
#[test]
fn observability_never_perturbs_the_count() {
    let _serial = serial();
    let graph = obs_graph();
    let engine = Engine::new(&graph);
    let registry = Registry::builtin();
    for name in registry.names() {
        let query = registry.build(name).unwrap();
        for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            for shards in [None, Some(1usize), Some(4)] {
                let run = |obs: bool| {
                    let mut request = engine
                        .count(&query)
                        .algorithm(algorithm)
                        .trials(3)
                        .seed(0xD1FF)
                        .obs(obs);
                    if let Some(shards) = shards {
                        request = request.parallel(false).sharded(shards);
                    }
                    request.estimate().unwrap()
                };
                let on = run(true);
                let off = run(false);
                assert_eq!(
                    on.per_trial, off.per_trial,
                    "{name}/{algorithm}/shards {shards:?}: per-trial counts diverged"
                );
                assert_eq!(
                    on.estimated_matches.to_bits(),
                    off.estimated_matches.to_bits(),
                    "{name}/{algorithm}/shards {shards:?}: estimate bits diverged"
                );
                assert_eq!(
                    on.estimated_subgraphs.to_bits(),
                    off.estimated_subgraphs.to_bits(),
                    "{name}/{algorithm}/shards {shards:?}: subgraph bits diverged"
                );
            }
        }
    }
}

/// The trace of a sharded run, block step by block step: the step's shard
/// solves, then exactly one `exchange` span. That span opens where the
/// step's last solve returns and closes where the next step's solves fan out
/// (or the run ends), so in a thread's completion order nothing but it lies
/// between two steps' `dp.block.columnar` spans, and no solve completes
/// inside it. One pool thread on a fresh OS thread: every span of the run,
/// and nothing else, lands in one ring.
#[test]
fn one_exchange_span_fills_each_gap_between_block_steps() {
    let _serial = serial();
    const SHARDS: usize = 3;
    let graph = obs_graph();
    for name in ["glet1", "wiki", "brain1"] {
        let query = Registry::builtin().build(name).unwrap();
        let engine = Engine::new(&graph);
        let steps = engine.plan(&query).unwrap().blocks.len();
        assert!(steps > 1, "{name} has several blocks");
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 3);
        let stages: Vec<Stage> = std::thread::scope(|scope| {
            let run = || {
                let request = engine.count(&query).coloring(&coloring).sharded(SHARDS);
                run_with_threads(1, || request.run().unwrap());
                span::recent()
            };
            scope.spawn(run).join().unwrap()
        })
        .into_iter()
        .map(|(stage, _)| stage)
        .filter(|stage| matches!(stage, Stage::DpBlockColumnar | Stage::Exchange))
        .collect();
        let mut one_step = vec![Stage::DpBlockColumnar; SHARDS];
        one_step.push(Stage::Exchange);
        assert_eq!(stages, one_step.repeat(steps), "{name}");
    }
}

/// A trial run at a graph version (the delta-aware runtime behind
/// `count_at` and `watch`) publishes its run metrics like an engine trial:
/// four trials, four `engine_runs`.
#[test]
fn versioned_trials_publish_their_run_metrics() {
    let _serial = serial();
    let graph = obs_graph();
    let (u, v) = graph
        .vertices()
        .flat_map(|u| graph.vertices().map(move |v| (u, v)))
        .find(|&(u, v)| u < v && !graph.has_edge(u, v))
        .expect("a sparse graph has a non-edge");
    let service = Service::new(Arc::new(graph));
    let v1 = service
        .apply_delta(&EdgeDelta::new(vec![(u, v)], vec![]).unwrap())
        .unwrap();
    let runs = || global().get("engine_runs").unwrap_or(0);
    let before = runs();
    let job = CountJob::new(catalog::triangle());
    let output = service.count_at(v1, job.seed(5).budget(4)).unwrap();
    assert_eq!(output.trials_run, 4);
    assert_eq!(runs() - before, 4, "one published run per versioned trial");
}

/// A versioned service job counts the change, not the graph: after a corner
/// delta on a grid, `count_at` the child recounts each trial its parent ran
/// from the small ball around the delta — a sliver of the DP operations a
/// from-scratch count of the child takes, without binding the child's graph
/// — and still counts exactly what a fresh build of the child's edge list
/// counts. Read off the process-wide registry and `bind` stage, so they see
/// the worker threads.
#[test]
fn versioned_jobs_recount_only_the_ball_around_their_delta() {
    let _serial = serial();
    let side = 24u32;
    let mut b = GraphBuilder::new((side * side) as usize);
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                b.add_edge(r * side + c, r * side + c + 1);
            }
            if r + 1 < side {
                b.add_edge(r * side + c, (r + 1) * side + c);
            }
        }
    }
    let graph = b.build();
    let service = Service::new(Arc::new(graph.clone()));
    let job = |seed| CountJob::new(catalog::triangle()).seed(seed).budget(4);
    service.count_at(service.root_version(), job(5)).unwrap();
    // Close the top-left unit square's diagonal.
    let corner = (0, side + 1);
    let v1 = service
        .apply_delta(&EdgeDelta::new(vec![corner], vec![]).unwrap())
        .unwrap();
    let ops = || global().get("engine_total_ops").unwrap_or(0);
    let binds = || Stage::Bind.histogram().snapshot().count;
    let (ops_before, binds_before) = (ops(), binds());
    let output = service.count_at(v1, job(5)).unwrap();
    let recount_ops = ops() - ops_before;
    assert_eq!(binds(), binds_before, "the recount bound the child's graph");
    // The same job under another seed has no parent counts at the root: it
    // binds the child and counts it whole.
    let ops_before = ops();
    service.count_at(v1, job(6)).unwrap();
    let scratch_ops = ops() - ops_before;
    assert_eq!(binds(), binds_before + 1);
    assert!(
        recount_ops > 0 && 20 * recount_ops < scratch_ops,
        "recount {recount_ops} ops, scratch {scratch_ops}"
    );

    let mut fresh = GraphBuilder::new(graph.num_vertices());
    fresh.extend_edges(graph.edges());
    fresh.add_edge(corner.0, corner.1);
    let reference = Engine::new(&fresh.build())
        .count(&catalog::triangle())
        .seed(5)
        .trials(4)
        .estimate()
        .unwrap();
    assert_eq!(output.estimate.per_trial, reference.per_trial);
}

/// The root version is the service's own engine: a watch at the root and a
/// `count_at` the root, both run by a worker, bind no second copy of the
/// graph. Read off the process-wide `bind` stage, so it sees every thread.
#[test]
fn a_watch_at_the_root_binds_no_second_engine() {
    let _serial = serial();
    let service = Service::with_config(
        Arc::new(obs_graph()),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let binds = || Stage::Bind.histogram().snapshot().count;
    let before = binds();
    let job = || CountJob::new(catalog::triangle()).seed(5).budget(4);
    let handle = service.watch(job(), Arc::new(|_, _| {})).unwrap();
    service
        .count_at(service.root_version(), job().seed(6))
        .unwrap();
    assert_eq!(
        binds(),
        before,
        "counting at the root bound the root's graph again"
    );
    handle.cancel();
}

/// Splits an exposition into its names, asserting the line format on the
/// way: exactly `name value` with a u64 value, names strictly ascending
/// (hence unique).
fn parse_exposition(exposition: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in exposition.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 2, "not a `name value` line: {line:?}");
        fields[1]
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("value is not a u64: {line:?}"));
        if let Some(previous) = names.last() {
            assert!(
                previous.as_str() < fields[0],
                "names not strictly sorted: {previous} before {}",
                fields[0]
            );
        }
        names.push(fields[0].to_string());
    }
    names
}

/// After a workload touching every layer — solo and sharded engine runs,
/// service jobs over loopback including a cache hit, and the
/// wire verbs themselves — the exposition is well formed and its name set
/// matches the checked-in snapshot exactly. A new metric must be added to
/// `tests/fixtures/metrics_names.txt` (append-only: renames break scrapers).
#[test]
fn exposition_names_match_the_checked_in_snapshot() {
    let _serial = serial();
    let graph = obs_graph();
    // Engine layer: sharded + solo runs populate the engine_*, kernel_*,
    // and shard_* metrics and the DP/exchange spans.
    {
        let engine = Engine::new(&graph);
        let query = catalog::triangle();
        engine.count(&query).trials(2).seed(1).estimate().unwrap();
        engine
            .count(&query)
            .parallel(false)
            .sharded(2)
            .trials(2)
            .seed(1)
            .estimate()
            .unwrap();
    }
    // Service + net layers over loopback: a computed job (with precision,
    // so the estimator chunks), its cache-hit repeat, and the verbs.
    let mut server = Server::bind("127.0.0.1:0", Arc::new(graph), ServerConfig::default())
        .expect("loopback bind");
    let mut client =
        subgraph_counting::net::Client::connect(server.local_addr()).expect("loopback connect");
    for _ in 0..2 {
        let output = client
            .count("cycle(3)")
            .seed(9)
            .budget(16)
            .precision(Precision::within(0.5))
            .run()
            .expect("triangle counts");
        assert!(output.trials_run >= 1);
    }
    let exposition = client.stats().expect("stats verb");
    client.bye().expect("clean goodbye");
    server.shutdown();

    let names = parse_exposition(&exposition);
    let expected: Vec<&str> = include_str!("fixtures/metrics_names.txt").lines().collect();
    assert_eq!(
        names, expected,
        "exposition names drifted from tests/fixtures/metrics_names.txt \
         (the name set is an append-only contract)"
    );
}

/// The `stats` verb (the metrics exposition) and the `trace` verb
/// round-trip well-formed payloads over a live connection, and a client-stamped trace ID surfaces in the log.
#[test]
fn metrics_and_trace_verbs_work_over_loopback() {
    let _serial = serial();
    let mut server = Server::bind(
        "127.0.0.1:0",
        Arc::new(obs_graph()),
        ServerConfig::default(),
    )
    .expect("loopback bind");
    let mut client =
        subgraph_counting::net::Client::connect(server.local_addr()).expect("loopback connect");

    // Before any job: both verbs answer (the trace log just says so).
    let report = client.trace_log().expect("trace verb on idle server");
    assert!(report.contains("no traces recorded"), "report: {report}");

    let output = client
        .count("cycle(4)")
        .seed(3)
        .budget(8)
        .trace(0xFACE)
        .run()
        .expect("cycle(4) counts");
    assert_eq!(output.trials_run, 8);

    let exposition = client.stats().expect("stats verb");
    let names = parse_exposition(&exposition);
    assert!(!names.is_empty());
    // The job left footprints in every layer the exposition covers.
    let value = |name: &str| {
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .parse::<u64>()
            .unwrap()
    };
    assert!(value("engine_runs") >= 1);
    assert!(value("service_jobs_completed") >= 1);
    assert!(value("net_frames_written") >= 1);
    assert!(value("span_coloring_count") >= 1);
    // Kept under the append-only name contract; nothing submits batches.
    assert_eq!(value("service_batches_submitted"), 0);

    let report = client.trace_log().expect("trace verb");
    assert!(
        report.contains("trace_id=64206"), // 0xFACE: the client-stamped ID
        "client trace ID missing from the log:\n{report}"
    );
    assert!(
        report.contains("outcome=budget_exhausted"),
        "report: {report}"
    );
    client.bye().expect("clean goodbye");
    server.shutdown();
}
