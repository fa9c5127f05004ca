//! Dynamic-graph suite: versioned snapshots, delta-aware incremental
//! recount, and live watch subscriptions.
//!
//! The one hard contract under test is **bit-identity**: counting at a
//! version — whether from scratch, replayed from the partial store, or
//! recounted incrementally from a parent version's partials — returns
//! per-trial counts bit-for-bit equal to a from-scratch run of the engine
//! on a *freshly built* graph with the same edge list. It is checked three
//! ways:
//!
//! * differentially under proptest: random delta batches over ER/Chung-Lu
//!   graphs × registry queries × shard counts {1, 4},
//! * against a checked-in golden fixture
//!   (`tests/fixtures/dynamic_chain.tsv`): a fixed chain of deltas whose
//!   per-version exact counts were computed once and committed,
//! * end-to-end through `Service::{apply_delta, count_at, watch}` and the
//!   protocol-v3 `delta` / `watch` verbs over a loopback TCP connection.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use subgraph_counting::core::{Algorithm, Engine};
use subgraph_counting::dynamic::{estimate_at, PartialStore, VersionedGraph};
use subgraph_counting::gen::{chung_lu, gnm, power_law_degrees};
use subgraph_counting::graph::{CsrGraph, EdgeDelta, GraphBuilder};
use subgraph_counting::net::{Client, Server, ServerConfig};
use subgraph_counting::query::{catalog, QueryGraph, Registry};
use subgraph_counting::service::{CountJob, Service, ServiceConfig, ServiceError, WatchFn};
use subgraph_counting::VersionId;

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
// Differential property: incremental ≡ store replay ≡ scratch ≡ fresh build.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random delta batches over ER/Chung-Lu graphs × registry queries ×
    /// shard counts {1, 4}: the incremental recount (parent partials in
    /// store), a pure-scratch run (empty store), and the engine on a fresh
    /// build of the new edge list all agree bit-for-bit, trial by trial.
    #[test]
    fn incremental_recount_is_bit_identical_differentially(
        family in 0u8..2,
        graph_seed in 0u64..1_000_000,
        query_idx in 0usize..64,
        shard_sel in 0u8..2,
    ) {
        let shards = if shard_sel == 0 { 1usize } else { 4 };
        let n = 12 + (graph_seed as usize % 8);
        let graph = generated_graph(family, n, graph_seed);
        let queries = registry_queries();
        let (_, query) = &queries[query_idx % queries.len()];
        let seed = 0x5eed ^ graph_seed;
        let trials = 3;

        let mut versions = VersionedGraph::new(&graph);
        let store = PartialStore::default();
        let root = versions.root();
        // Populate the store at the root so the post-delta run has parent
        // partials to recount from.
        estimate_at(&versions, &store, root, query, Algorithm::DegreeBased, seed, trials, shards)
            .unwrap();

        let delta = random_delta(&graph, graph_seed ^ 0x9e37_79b9, 3, 2);
        if delta.is_empty() {
            // Degenerate (e.g. an edgeless Chung-Lu draw): nothing to test.
            return Ok(());
        }
        let v1 = versions.apply_to_head(&delta).unwrap();

        let (incremental, outcome) =
            estimate_at(&versions, &store, v1, query, Algorithm::DegreeBased, seed, trials, shards)
                .unwrap();
        prop_assert_eq!(outcome.trials_incremental, trials);

        // Scratch on an empty store (no replay possible).
        let (scratch, scratch_outcome) = estimate_at(
            &versions, &PartialStore::default(), v1, query,
            Algorithm::DegreeBased, seed, trials, shards,
        ).unwrap();
        prop_assert_eq!(scratch_outcome.trials_scratch, trials);
        prop_assert_eq!(&incremental.per_trial, &scratch.per_trial);

        // The engine on a freshly built graph with the same edge list.
        let data = versions.data_at(v1).unwrap();
        let reference = Engine::new(&rebuild(&data.graph))
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
        current = rebuild(&versions.data_at(v).unwrap().graph);
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
    let store = PartialStore::default();
    let mut version = versions.root();
    let mut rows = Vec::new();
    for (step, delta) in deltas.iter().enumerate() {
        version = versions.apply_delta(version, delta).unwrap();
        let data = versions.data_at(version).unwrap();
        for (name, query) in &queries {
            let (estimate, _) = estimate_at(
                &versions,
                &store,
                version,
                query,
                Algorithm::DegreeBased,
                11,
                4,
                4,
            )
            .unwrap();
            let counts: Vec<String> = estimate.per_trial.iter().map(|c| c.to_string()).collect();
            rows.push(format!(
                "{}\t{}\t{}\t{}",
                step + 1,
                name,
                data.graph.num_edges(),
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
    let fresh = rebuild(&versions.data_at(version).unwrap().graph);
    let store = PartialStore::default();
    for (_, query) in &queries {
        let (estimate, _) = estimate_at(
            &versions,
            &store,
            version,
            query,
            Algorithm::DegreeBased,
            11,
            4,
            4,
        )
        .unwrap();
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
        obs: true,
        ..ServiceConfig::default()
    }
}

#[test]
fn service_count_at_is_bit_identical_to_fresh_build() {
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

#[test]
fn watch_reemits_a_version_tagged_estimate_per_delta() {
    let graph = Arc::new(gnm(20, 40, 13));
    let inserts = absent_edges(&graph, 2);
    let service = Service::with_config(graph, service_config());
    type Emissions = Arc<Mutex<Vec<(u64, Vec<u64>)>>>;
    let emissions: Emissions = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&emissions);
    let callback: WatchFn = Arc::new(move |version, update| {
        sink.lock()
            .unwrap()
            .push((version.as_u64(), update.estimate.per_trial.clone()));
    });

    let job = CountJob::new(catalog::path(4)).seed(3).budget(6);
    let handle = service.watch(job.clone(), callback).unwrap();
    assert_eq!(service.watch_count(), 1);
    // The initial estimate (at the head at subscription time) is emitted
    // synchronously by `watch` itself.
    assert_eq!(emissions.lock().unwrap().len(), 1);
    assert_eq!(
        emissions.lock().unwrap()[0].0,
        service.head_version().as_u64()
    );

    let delta = EdgeDelta::new(vec![inserts[0]], vec![]).unwrap();
    let v1 = service.apply_delta(&delta).unwrap();
    {
        let seen = emissions.lock().unwrap();
        assert_eq!(seen.len(), 2, "apply_delta must re-emit to live watchers");
        assert_eq!(seen[1].0, v1.as_u64());
        // The re-emitted estimate is the version's exact per-trial counts.
        let direct = service.count_at(v1, job.clone()).unwrap();
        assert_eq!(seen[1].1, direct.estimate.per_trial);
    }

    // After unwatch, further deltas stop re-emitting.
    service.unwatch(handle.id());
    assert_eq!(service.watch_count(), 0);
    let delta2 = EdgeDelta::new(vec![inserts[1]], vec![]).unwrap();
    service.apply_delta(&delta2).unwrap();
    assert_eq!(emissions.lock().unwrap().len(), 2);
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Protocol v3 over loopback TCP: delta and watch verbs.
// ---------------------------------------------------------------------------

#[test]
fn net_watch_streams_version_tagged_chunks_across_deltas() {
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
    // it. The server re-emits before acknowledging the delta, so reading
    // after `apply_delta` returned cannot hang.
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
