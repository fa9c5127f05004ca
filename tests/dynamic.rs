//! Dynamic-graph suite: versioned snapshots, the delta ball recount, and
//! live watch subscriptions.
//!
//! The one hard contract under test is **bit-identity**: counting at a
//! version — whether from scratch or recounted from the parent version's
//! per-trial counts and the ball around the delta — returns per-trial
//! counts bit-for-bit equal to a from-scratch run of the engine on a
//! *freshly built* graph with the same edge list. It is checked three ways:
//!
//! * differentially under proptest: random delta chains over ER/Chung-Lu
//!   graphs × registry queries × shard counts {1, 4}, recounted from a
//!   random ancestor,
//! * against a checked-in golden fixture
//!   (`tests/fixtures/dynamic_chain.tsv`): a fixed chain of deltas whose
//!   per-version exact counts were computed once and committed,
//! * end-to-end through `Service::{apply_delta, count_at, watch}` and the
//!   protocol-v3 `delta` / `watch` verbs over a loopback TCP connection.
//!
//! Every test holds [`serial`]: one of them reads the process-wide `bind`
//! stage, which any other test's engine would move.

use proptest::prelude::*;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use subgraph_counting::core::{Algorithm, Engine, Estimate};
use subgraph_counting::dynamic::VersionedGraph;
use subgraph_counting::engine::Count;
use subgraph_counting::gen::{chung_lu, gnm, power_law_degrees};
use subgraph_counting::graph::{CsrGraph, EdgeDelta, GraphBuilder};
use subgraph_counting::net::{Client, Server, ServerConfig};
use subgraph_counting::obs::Stage;
use subgraph_counting::query::{catalog, QueryGraph, Registry};
use subgraph_counting::service::{CountJob, Service, ServiceConfig, ServiceError, WatchFn};
use subgraph_counting::VersionId;

/// Serializes this file's tests (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A small ER or Chung-Lu graph — the two families the incremental-recount
/// satellite names.
fn generated_graph(family: u8, n: usize, seed: u64) -> CsrGraph {
    match family % 2 {
        0 => gnm(n, 2 * n, seed),
        _ => {
            let degrees: Vec<f64> = power_law_degrees(n, 1.8).iter().map(|d| d * 1.5).collect();
            chung_lu(&degrees, seed)
        }
    }
}

/// Every query of the builtin registry.
fn registry_queries() -> Vec<(String, QueryGraph)> {
    Registry::builtin()
        .entries()
        .map(|e| (e.name().to_string(), e.query().clone()))
        .collect()
}

/// A fresh `CsrGraph` from a graph's edge list — the "fresh build" side of
/// the bit-identity contract (no shared CSR segments, no snapshot
/// machinery).
fn rebuild(graph: &CsrGraph) -> CsrGraph {
    let mut b = GraphBuilder::new(graph.num_vertices());
    b.extend_edges(graph.edges());
    b.build()
}

/// A deterministic valid delta batch for `graph`: up to `max_deletes`
/// existing edges removed and up to `max_inserts` absent edges added, with
/// no overlap in either direction. May be empty on tiny dense graphs.
fn random_delta(graph: &CsrGraph, seed: u64, max_inserts: usize, max_deletes: usize) -> EdgeDelta {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = graph.num_vertices() as u64;
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let mut deletes: Vec<(u32, u32)> = Vec::new();
    if !edges.is_empty() {
        for _ in 0..max_deletes {
            let edge = edges[(next() % edges.len() as u64) as usize];
            if !deletes.contains(&edge) {
                deletes.push(edge);
            }
        }
    }
    let mut inserts: Vec<(u32, u32)> = Vec::new();
    if n >= 2 {
        // Bounded rejection sampling; a dense graph may yield fewer (or no)
        // inserts, which is fine.
        for _ in 0..8 * max_inserts {
            if inserts.len() == max_inserts {
                break;
            }
            let u = (next() % n) as u32;
            let v = (next() % n) as u32;
            let (u, v) = (u.min(v), u.max(v));
            if u == v || graph.has_edge(u, v) || inserts.contains(&(u, v)) {
                continue;
            }
            inserts.push((u, v));
        }
    }
    EdgeDelta::new(inserts, deletes).expect("generated delta is valid by construction")
}

/// DB trials `0..trials` of `query` at `version` through the engine bound to
/// it, over `shards` shards. With `ancestor` — an ancestor of the version
/// and the same request's counts there — each trial it holds is recounted
/// from the ball around every edge changed since, however large that ball
/// is.
fn count_at(
    versions: &VersionedGraph,
    version: VersionId,
    query: &QueryGraph,
    (seed, trials, shards): (u64, usize, usize),
    ancestor: Option<(VersionId, &[Count])>,
) -> Estimate {
    let engine = versions.data_at(version).unwrap();
    let mut request = engine
        .count(query)
        .algorithm(Algorithm::DegreeBased)
        .seed(seed)
        .trials(trials)
        .parallel(false)
        .sharded(shards);
    let ball = ancestor.map(|(ancestor, counts)| {
        let ball = versions.ball(version, ancestor, query.num_nodes());
        (counts, ball.unwrap().expect("an ancestor of the version"))
    });
    if let Some((counts, ball)) = &ball {
        request = request.recount(counts, ball);
    }
    request.estimate().unwrap()
}

/// The first `count` vertex pairs absent from `graph`, in lexicographic
/// order — guaranteed-valid inserts for the fixed-scenario tests below.
fn absent_edges(graph: &CsrGraph, count: usize) -> Vec<(u32, u32)> {
    let n = graph.num_vertices() as u32;
    let mut found = Vec::new();
    'outer: for u in 0..n {
        for v in (u + 1)..n {
            if !graph.has_edge(u, v) {
                found.push((u, v));
                if found.len() == count {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(found.len(), count, "graph too dense for the test scenario");
    found
}

// ---------------------------------------------------------------------------
// Differential property: ball recount ≡ scratch ≡ fresh build.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The identity `count(G′) = count(G) − count(G[B]) + count(G′[B])`
    /// itself, over random chains of one to three delta batches on
    /// ER/Chung-Lu graphs × registry queries × shard counts {1, 4}: the
    /// recount of the chain's head from a random ancestor's per-trial
    /// counts (its ball, around every edge changed since, anything from a
    /// sliver to the whole graph, and one trial past the ancestor's counted
    /// on the whole graph), a scratch run, and the engine on a fresh build
    /// of the head's edge list all agree bit-for-bit, trial by trial.
    #[test]
    fn incremental_recount_is_bit_identical_differentially(
        family in 0u8..2,
        graph_seed in 0u64..1_000_000,
        query_idx in 0usize..64,
        shard_sel in 0u8..2,
        chain_sel in 0usize..9,
    ) {
        let _serial = serial();
        let shards = if shard_sel == 0 { 1usize } else { 4 };
        let n = 12 + (graph_seed as usize % 32);
        let graph = generated_graph(family, n, graph_seed);
        let queries = registry_queries();
        let (_, query) = &queries[query_idx % queries.len()];
        let seed = 0x5eed ^ graph_seed;
        let trials = 3;
        let (depth, pick) = (1 + chain_sel / 3, chain_sel % 3);

        let mut versions = VersionedGraph::new(&graph);
        let mut chain = vec![versions.root()];
        let mut current = rebuild(&graph);
        for step in 0..depth as u64 {
            let delta = random_delta(&current, graph_seed ^ 0x9e37_79b9 ^ step, 3, 2);
            let head = versions.apply_to_head(&delta).unwrap();
            current = rebuild(versions.data_at(head).unwrap().graph());
            chain.push(head);
        }
        let head = versions.head();
        let ancestor = chain[pick % (chain.len() - 1)];
        let counts = count_at(&versions, ancestor, query, (seed, trials - 1, shards), None);

        let incremental = count_at(
            &versions,
            head,
            query,
            (seed, trials, shards),
            Some((ancestor, &counts.per_trial)),
        );
        let scratch = count_at(&versions, head, query, (seed, trials, shards), None);
        prop_assert_eq!(&incremental.per_trial, &scratch.per_trial);

        // The engine on a freshly built graph with the same edge list.
        let reference = Engine::new(&current)
            .count(query)
            .seed(seed)
            .trials(trials)
            .estimate()
            .unwrap();
        prop_assert_eq!(&incremental.per_trial, &reference.per_trial);
        prop_assert_eq!(incremental.estimated_subgraphs, reference.estimated_subgraphs);
    }
}

// ---------------------------------------------------------------------------
// Golden fixture: a fixed delta chain against committed exact counts.
// ---------------------------------------------------------------------------

const CHAIN_FIXTURE: &str = include_str!("fixtures/dynamic_chain.tsv");

/// The fixed scenario behind `fixtures/dynamic_chain.tsv`: `gnm(24, 48, 7)`
/// mutated by three delta batches, counted with two registry queries after
/// every batch.
fn chain_scenario() -> (CsrGraph, Vec<EdgeDelta>, Vec<(String, QueryGraph)>) {
    let graph = gnm(24, 48, 7);
    let mut deltas = Vec::new();
    let mut current = rebuild(&graph);
    for round in 0..3u64 {
        let delta = random_delta(&current, 0xc4a1_0000 + round, 4, 3);
        assert!(!delta.is_empty(), "chain fixture deltas must be non-empty");
        let mut versions = VersionedGraph::new(&current);
        let v = versions.apply_to_head(&delta).unwrap();
        current = rebuild(versions.data_at(v).unwrap().graph());
        deltas.push(delta);
    }
    let queries = vec![
        ("triangle".to_string(), catalog::triangle()),
        ("path4".to_string(), catalog::path(4)),
    ];
    (graph, deltas, queries)
}

/// Runs the chain scenario and renders one fixture row per
/// `(version index, query)`: `step query edge_count per_trial...`.
fn chain_rows() -> Vec<String> {
    let (graph, deltas, queries) = chain_scenario();
    let mut versions = VersionedGraph::new(&graph);
    let mut version = versions.root();
    let mut rows = Vec::new();
    // Each query's counts at the previous version: none at the root, which
    // the chain never counts.
    let mut parents: Vec<Option<Vec<Count>>> = vec![None; queries.len()];
    for (step, delta) in deltas.iter().enumerate() {
        let previous = version;
        version = versions.apply_delta(version, delta).unwrap();
        let data = versions.data_at(version).unwrap();
        for ((name, query), parent) in queries.iter().zip(&mut parents) {
            let from = parent.as_deref().map(|counts| (previous, counts));
            let estimate = count_at(&versions, version, query, (11, 4, 4), from);
            *parent = Some(estimate.per_trial.clone());
            let counts: Vec<String> = estimate.per_trial.iter().map(|c| c.to_string()).collect();
            rows.push(format!(
                "{}\t{}\t{}\t{}",
                step + 1,
                name,
                data.graph().num_edges(),
                counts.join(",")
            ));
        }
    }
    rows
}

/// The chain's incremental counts match the committed fixture row for row —
/// and the final version is bit-identical to the engine on a fresh build of
/// the final edge list.
#[test]
fn delta_chain_matches_golden_fixture_and_fresh_build() {
    let _serial = serial();
    let expected: Vec<&str> = CHAIN_FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = chain_rows();
    assert_eq!(
        actual.len(),
        expected.len(),
        "fixture row count diverged; regenerate with \
         `cargo test --test dynamic regenerate_chain_fixture -- --ignored --nocapture`"
    );
    for (row, want) in actual.iter().zip(&expected) {
        assert_eq!(row, want, "chain fixture row diverged");
    }

    // Fresh-build cross-check at the chain tip.
    let (graph, deltas, queries) = chain_scenario();
    let mut versions = VersionedGraph::new(&graph);
    let mut version = versions.root();
    for delta in &deltas {
        version = versions.apply_delta(version, delta).unwrap();
    }
    let fresh = rebuild(versions.data_at(version).unwrap().graph());
    for (_, query) in &queries {
        let estimate = count_at(&versions, version, query, (11, 4, 4), None);
        let reference = Engine::new(&fresh)
            .count(query)
            .seed(11)
            .trials(4)
            .estimate()
            .unwrap();
        assert_eq!(estimate.per_trial, reference.per_trial);
    }
}

/// Prints a fresh fixture table. Run with
/// `cargo test --test dynamic regenerate_chain_fixture -- --ignored --nocapture`
/// and replace `tests/fixtures/dynamic_chain.tsv` after an *intentional*
/// change to the generators, the delta digest, or the DP.
#[test]
#[ignore = "regeneration helper, not a test"]
fn regenerate_chain_fixture() {
    println!("# step\tquery\tedges\tper_trial (seed 11, 4 trials, 4 shards)");
    for row in chain_rows() {
        println!("{row}");
    }
}

// ---------------------------------------------------------------------------
// Service: apply_delta / count_at / watch / eviction accounting.
// ---------------------------------------------------------------------------

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        chunk_trials: 4,
        ..ServiceConfig::default()
    }
}

#[test]
fn service_count_at_is_bit_identical_to_fresh_build() {
    let _serial = serial();
    let graph = Arc::new(gnm(20, 40, 3));
    let service = Service::with_config(Arc::clone(&graph), service_config());
    let root = service.root_version();
    assert_eq!(service.head_version(), root);

    let inserts = absent_edges(&graph, 2);
    let delta = EdgeDelta::new(inserts.clone(), vec![]).unwrap();
    let v1 = service.apply_delta(&delta).unwrap();
    assert_ne!(v1, root);
    assert_eq!(service.head_version(), v1);
    assert!(service.has_version(root) && service.has_version(v1));

    let job = || CountJob::new(catalog::triangle()).seed(21).budget(8);
    let at_v1 = service.count_at(v1, job()).unwrap();

    // Fresh build of the new edge list, counted by the engine.
    let mut b = GraphBuilder::new(graph.num_vertices());
    b.extend_edges(graph.edges());
    b.extend_edges(inserts);
    let reference = Engine::new(&b.build())
        .count(&catalog::triangle())
        .seed(21)
        .trials(8)
        .estimate()
        .unwrap();
    assert_eq!(at_v1.estimate.per_trial, reference.per_trial);

    // Counting at the root still sees the pre-delta graph.
    let at_root = service.count_at(root, job()).unwrap();
    let pre = Engine::new(&graph)
        .count(&catalog::triangle())
        .seed(21)
        .trials(8)
        .estimate()
        .unwrap();
    assert_eq!(at_root.estimate.per_trial, pre.per_trial);
    // Versioned jobs plan through the engine's cache: the two `count_at`
    // jobs of one query left one plan behind.
    assert_eq!(service.engine().cached_plans(), 1);

    // Unknown versions are a typed error, not a panic.
    let err = service
        .count_at(VersionId::from_u64(0xdead_beef), job())
        .unwrap_err();
    assert!(matches!(err, ServiceError::UnknownVersion { .. }));
    service.shutdown();
}

#[test]
fn service_rejects_invalid_deltas() {
    let _serial = serial();
    let graph = Arc::new(gnm(12, 24, 5));
    let service = Service::with_config(Arc::clone(&graph), service_config());
    let existing = graph.edges().next().unwrap();
    let delta = EdgeDelta::new(vec![existing], vec![]).unwrap();
    let err = service.apply_delta(&delta).unwrap_err();
    assert!(matches!(err, ServiceError::Delta { .. }));
    assert_eq!(service.head_version(), service.root_version());

    // Re-applying a just-applied insert is also rejected — its XOR digest
    // would land back on the root id, and the head must not walk back.
    let fresh = absent_edges(&graph, 1);
    let delta = EdgeDelta::new(fresh, vec![]).unwrap();
    let v1 = service.apply_delta(&delta).unwrap();
    let err = service.apply_delta(&delta).unwrap_err();
    assert!(matches!(err, ServiceError::Delta { .. }));
    assert_eq!(service.head_version(), v1);
    service.shutdown();
}

#[test]
fn result_cache_evictions_are_bounded_and_counted() {
    let _serial = serial();
    let graph = Arc::new(gnm(16, 32, 9));
    let service = Service::with_config(
        graph,
        ServiceConfig {
            cache_capacity: 2,
            ..service_config()
        },
    );
    for seed in 0..6u64 {
        service
            .run(CountJob::new(catalog::triangle()).seed(seed).budget(4))
            .unwrap();
    }
    let metrics = service.metrics();
    assert!(
        metrics.cache_evictions >= 4,
        "6 distinct jobs through a 2-entry cache must evict at least 4, saw {}",
        metrics.cache_evictions
    );
    assert!(metrics.cached_results <= 2);
    assert!(service.exposition().contains("service_cache_evictions"));
    service.shutdown();
}

/// What the watchers of a test delivered: `(watcher, version, per-trial
/// counts)`, in arrival order.
type Emissions = Arc<Mutex<Vec<(usize, u64, Vec<u64>)>>>;

/// A callback recording watcher `who`'s emissions into `emissions`.
fn recorder(emissions: &Emissions, who: usize) -> WatchFn {
    let sink = Arc::clone(emissions);
    Arc::new(move |version, update| {
        sink.lock()
            .unwrap()
            .push((who, version.as_u64(), update.estimate.per_trial.clone()));
    })
}

/// Waits, up to 10 s, until `emissions` holds at least `count` entries, and
/// returns them.
fn delivered(emissions: &Emissions, count: usize) -> Vec<(usize, u64, Vec<u64>)> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let seen = emissions.lock().unwrap().clone();
        if seen.len() >= count {
            return seen;
        }
        assert!(
            Instant::now() < deadline,
            "{} of {count} emissions delivered in 10 s",
            seen.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The `(watcher, version)` pairs of `emissions`, sorted: watchers deliver
/// side by side, in no fixed order among themselves.
fn who_and_when(emissions: &[(usize, u64, Vec<u64>)]) -> Vec<(usize, u64)> {
    let mut pairs: Vec<(usize, u64)> = emissions.iter().map(|e| (e.0, e.1)).collect();
    pairs.sort_unstable();
    pairs
}

/// How many trace-log entries carry `trace_id`.
fn traced(service: &Service, trace_id: u64) -> usize {
    let header = format!("trace_id={trace_id} ");
    service
        .trace_report()
        .lines()
        .filter(|line| line.starts_with(&header))
        .count()
}

#[test]
fn watch_reemits_a_version_tagged_estimate_per_delta() {
    let _serial = serial();
    let graph = Arc::new(gnm(20, 40, 13));
    let inserts = absent_edges(&graph, 2);
    let service = Service::with_config(graph, service_config());
    let emissions: Emissions = Arc::default();

    // Two distinct watchers: the first carries a client-propagated trace
    // ID, the second has one minted at subscription.
    let jobs = [
        CountJob::new(catalog::path(4))
            .seed(3)
            .budget(6)
            .trace(0x3A7C),
        CountJob::new(catalog::triangle()).seed(3).budget(6),
    ];
    let handles: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(who, job)| service.watch(job.clone(), recorder(&emissions, who)))
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(service.watch_count(), 2);
    // The initial estimates (at the head at subscription time) are
    // delivered by `watch` itself, before it returns.
    let root = service.head_version().as_u64();
    let initial: Vec<(usize, u64)> = emissions
        .lock()
        .unwrap()
        .iter()
        .map(|e| (e.0, e.1))
        .collect();
    assert_eq!(initial, vec![(0, root), (1, root)]);
    // Each initial emission was admitted like any job, and traced.
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_submitted, 2);
    assert_eq!(metrics.jobs_completed, metrics.jobs_submitted);
    assert_eq!(traced(&service, 0x3A7C), 1);
    let report = service.trace_report();
    let minted: u64 = report
        .lines()
        .filter_map(|line| line.strip_prefix("trace_id="))
        .filter_map(|rest| rest.split(' ').next()?.parse().ok())
        .find(|&id| id != 0x3A7C)
        .expect("the second watcher's initial emission is traced");

    let delta = EdgeDelta::new(vec![inserts[0]], vec![]).unwrap();
    let v1 = service.apply_delta(&delta).unwrap();
    // Delivered after `apply_delta` returned, by the workers, each tagged
    // with the new version.
    let seen = delivered(&emissions, 4);
    assert_eq!(seen.len(), 4, "apply_delta must re-emit to live watchers");
    assert_eq!(
        who_and_when(&seen[2..]),
        vec![(0, v1.as_u64()), (1, v1.as_u64())]
    );
    // One admitted job per live watcher, all completed by their delivery,
    // each traced under its subscription's ID.
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_submitted, 4);
    assert_eq!(metrics.jobs_completed, metrics.jobs_submitted);
    assert_eq!(traced(&service, 0x3A7C), 2);
    assert_eq!(traced(&service, minted), 2);
    // The re-emitted estimates are the version's exact per-trial counts.
    for (who, job) in jobs.iter().enumerate() {
        let direct = service.count_at(v1, job.clone()).unwrap();
        let emitted = seen[2..].iter().find(|e| e.0 == who).unwrap();
        assert_eq!(emitted.2, direct.estimate.per_trial);
    }

    // After unwatch, that watcher's emissions stop; the other's go on.
    service.unwatch(handles[0].id());
    assert_eq!(service.watch_count(), 1);
    let submitted = service.metrics().jobs_submitted;
    let delta2 = EdgeDelta::new(vec![inserts[1]], vec![]).unwrap();
    let v2 = service.apply_delta(&delta2).unwrap();
    let seen = delivered(&emissions, 5);
    assert_eq!(seen.len(), 5);
    assert_eq!((seen[4].0, seen[4].1), (1, v2.as_u64()));
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_submitted, submitted + 1);
    assert_eq!(metrics.jobs_completed, metrics.jobs_submitted);
    service.shutdown();
}

/// Coalesce, never refuse: a watcher has at most one emission queued or
/// running, so re-emissions are not held to the queue capacity. A delta
/// with more live watchers than the queue has room for applies, rejects
/// nothing, and reaches every watcher.
#[test]
fn a_watched_delta_is_never_refused_for_a_full_queue() {
    let _serial = serial();
    let graph = Arc::new(gnm(20, 40, 19));
    let inserts = absent_edges(&graph, 1);
    let service = Service::with_config(
        graph,
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..service_config()
        },
    );
    let emissions: Emissions = Arc::default();
    let handles: Vec<_> = [catalog::path(4), catalog::triangle()]
        .into_iter()
        .enumerate()
        .map(|(who, query)| {
            let job = CountJob::new(query).seed(5).budget(4);
            service.watch(job, recorder(&emissions, who)).unwrap()
        })
        .collect();
    assert_eq!(emissions.lock().unwrap().len(), 2);

    let rejected = service.metrics().jobs_rejected;
    let v1 = service
        .apply_delta(&EdgeDelta::new(inserts, vec![]).unwrap())
        .unwrap();
    assert_ne!(v1, service.root_version());
    assert_eq!(service.head_version(), v1);
    let seen = delivered(&emissions, 4);
    assert_eq!(
        who_and_when(&seen[2..]),
        vec![(0, v1.as_u64()), (1, v1.as_u64())]
    );
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_rejected, rejected);
    assert_eq!(metrics.jobs_completed, metrics.jobs_submitted);
    handles.iter().for_each(|handle| handle.cancel());
    service.shutdown();
}

/// A `side × side` lattice: the graph on which a delta's ball is small.
fn grid(side: u32) -> CsrGraph {
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
    b.build()
}

/// A mutator's latency does not depend on how many clients are watching,
/// nor on how slow they are: with one watcher's callback blocked, three
/// deltas each return. Released, the watcher receives its pending version
/// and then only the head (latest-version-wins), which it recounts from the
/// pending version's counts — the nearest counted ancestor, its parent
/// never having been counted — without binding the head's graph. The
/// delivered head's counts are the head's exact ones.
#[test]
fn a_blocked_watcher_never_holds_the_mutator() {
    let _serial = serial();
    let side = 20;
    let graph = Arc::new(grid(side));
    let service = Arc::new(Service::with_config(Arc::clone(&graph), service_config()));
    let root = service.root_version();
    let emissions: Emissions = Arc::default();
    let (release, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    let sink = recorder(&emissions, 0);
    let callback: WatchFn = Arc::new(move |version, update| {
        if version != root {
            let _ = gate.lock().unwrap().recv_timeout(Duration::from_secs(10));
        }
        sink(version, update);
    });
    let job = CountJob::new(catalog::cycle(4)).seed(7).budget(4);
    let _handle = service.watch(job.clone(), callback).unwrap();
    let binds = || Stage::Bind.histogram().snapshot().count;
    let binds_before = binds();

    // On a helper thread, so that a mutator held by the watcher fails the
    // bounded wait below instead of hanging the test.
    let diagonals = [
        (0, side + 1),
        (5 * side + 5, 6 * side + 6),
        (12 * side + 3, 13 * side + 4),
    ];
    let (minted, versions) = mpsc::channel();
    let shared = Arc::clone(&service);
    let mutator = std::thread::spawn(move || {
        for edge in diagonals {
            let delta = EdgeDelta::new(vec![edge], vec![]).unwrap();
            let _ = minted.send(shared.apply_delta(&delta).unwrap());
        }
    });
    let versions: Vec<VersionId> = (1..=3)
        .map(|i| {
            versions
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("delta {i} waited for a blocked watcher"))
        })
        .collect();
    mutator.join().unwrap();
    assert_eq!(
        emissions.lock().unwrap().len(),
        1,
        "the callback is blocked"
    );
    assert_eq!(service.head_version(), versions[2]);
    let metrics = service.metrics();
    assert_eq!(metrics.watchers, 1);
    assert_eq!(
        metrics.watch_emissions_coalesced, 1,
        "the second delta's version was superseded before it ran"
    );
    let exposition = service.exposition();
    assert!(exposition.lines().any(|l| l == "service_watchers 1"));
    assert!(exposition
        .lines()
        .any(|l| l == "service_watch_emissions_coalesced 1"));

    release.send(()).unwrap();
    release.send(()).unwrap();
    let seen = delivered(&emissions, 3);
    let order: Vec<u64> = seen.iter().map(|e| e.1).collect();
    assert_eq!(
        order,
        vec![root.as_u64(), versions[0].as_u64(), versions[2].as_u64()]
    );
    assert_eq!(binds(), binds_before, "an emission bound a version's graph");
    assert_eq!(
        service.metrics().jobs_submitted,
        3,
        "one emission each at the root, the first delta's version and the head"
    );
    let head_counts = &seen[2].2;
    let at_head = service.count_at(versions[2], job).unwrap();
    assert_eq!(&at_head.estimate.per_trial, head_counts);
    let mut fresh = GraphBuilder::new(graph.num_vertices());
    fresh.extend_edges(graph.edges());
    fresh.extend_edges(diagonals);
    let reference = Engine::new(&fresh.build())
        .count(&catalog::cycle(4))
        .seed(7)
        .trials(4)
        .estimate()
        .unwrap();
    assert_eq!(&reference.per_trial, head_counts);
    let metrics = service.metrics();
    assert_eq!(metrics.jobs_completed, metrics.jobs_submitted);
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Protocol v3 over loopback TCP: delta and watch verbs.
// ---------------------------------------------------------------------------

#[test]
fn net_watch_streams_version_tagged_chunks_across_deltas() {
    let _serial = serial();
    let graph = Arc::new(gnm(20, 40, 17));
    let mut server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&graph),
        ServerConfig {
            service: service_config(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut watcher = Client::connect(addr).unwrap();
    let mut mutator = Client::connect(addr).unwrap();

    let mut stream = watcher
        .count("a-b, b-c, c-a")
        .seed(29)
        .budget(8)
        .watch()
        .unwrap();
    let first = stream.next().unwrap().unwrap();
    assert!(first.trials_run > 0);

    // An invalid delta is rejected with a typed error and no new version.
    let existing = graph.edges().next().unwrap();
    let err = mutator.apply_delta(&[existing], &[]).unwrap_err();
    match err {
        subgraph_counting::net::ClientError::Remote(frame) => {
            assert_eq!(frame.kind, subgraph_counting::net::ErrorKind::Delta);
        }
        other => panic!("expected a remote delta error, got {other}"),
    }

    // A valid delta lands a new version; the watcher's next frame carries
    // it. The server acknowledges the delta once the re-emission is queued
    // and writes the frame when it completes, so the read below waits for
    // it.
    let inserts = absent_edges(&graph, 2);
    let version = mutator.apply_delta(&inserts, &[existing]).unwrap();
    let second = stream.next().unwrap().unwrap();
    assert_eq!(second.version, version);
    assert_ne!(first.version, second.version);
    assert_eq!(first.id, second.id);

    // Cancel unsubscribes: the stream ends cleanly.
    stream.cancel().unwrap();
    assert!(stream.next().is_none());

    // Stats now travel the eviction counter (protocol v3 field).
    let stats = mutator.stats().unwrap();
    assert_eq!(stats.service.cache_evictions, 0);

    mutator.bye().unwrap();
    watcher.bye().unwrap();
    server.shutdown();
}
