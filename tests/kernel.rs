//! Kernel suite: the DP kernel's sharded ≡ serial contract, its columnar
//! storage primitives, and its arena-reuse contract.
//!
//! The differential suite runs random graphs from the real generator
//! families (Erdős–Rényi / Chung-Lu / R-MAT, n ≤ 12) through the full
//! builtin registry and pins sharded execution ({1, 2, 4} shards) to serial
//! execution (`tests/property.rs` runs the same grid against the
//! brute-force oracle). Deterministic tests cover the columnar storage
//! primitives at u64-lane granularity and the arena-reuse contract
//! (steady-state trials allocate no new table capacity).

use proptest::prelude::*;
use subgraph_counting::core::{Algorithm, Engine};
use subgraph_counting::engine::columnar::{path_key, ColumnarTable, EndpointGroups};
use subgraph_counting::engine::Signature;
use subgraph_counting::gen::{chung_lu, gnm, power_law_degrees, rmat, RmatParams};
use subgraph_counting::graph::{Coloring, CsrGraph};
use subgraph_counting::query::{QueryGraph, Registry};

/// A small graph from one of the real generator families, mirroring
/// `tests/property.rs`: Erdős–Rényi, Chung-Lu over a truncated power-law
/// degree sequence, or R-MAT.
fn generated_graph(family: u8, n: usize, seed: u64) -> CsrGraph {
    debug_assert!(n <= 12);
    match family % 3 {
        0 => gnm(n, 2 * n, seed),
        1 => {
            let degrees: Vec<f64> = power_law_degrees(n, 1.8).iter().map(|d| d * 1.5).collect();
            chung_lu(&degrees, seed)
        }
        _ => {
            let params = RmatParams {
                edge_factor: 3,
                ..RmatParams::paper()
            };
            rmat(3, params, seed)
        }
    }
}

/// Every query of the builtin registry (the ten Figure 8 analogs plus the
/// 11-node satellite worked example).
fn registry_queries() -> Vec<(String, QueryGraph)> {
    Registry::builtin()
        .entries()
        .map(|e| (e.name().to_string(), e.query().clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Columnar sharded execution at {1, 2, 4} shards is bit-identical to
    /// columnar serial execution for every registry query and algorithm.
    #[test]
    fn columnar_sharded_equals_columnar_serial(
        family in 0u8..3,
        n in 6usize..13,
        graph_seed in 0u64..10_000,
        coloring_seed in 0u64..1000,
        algorithm_selector in 0u8..2,
    ) {
        let graph = generated_graph(family, n, graph_seed);
        let engine = Engine::new(&graph);
        let algorithm = if algorithm_selector == 0 {
            Algorithm::PathSplitting
        } else {
            Algorithm::DegreeBased
        };
        for (name, query) in registry_queries() {
            let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), coloring_seed);
            let serial = engine
                .count(&query)
                .algorithm(algorithm)
                .coloring(&coloring)
                .run()
                .unwrap()
                .colorful_matches;
            for shards in [1usize, 2, 4] {
                let sharded = engine
                    .count(&query)
                    .algorithm(algorithm)
                        .coloring(&coloring)
                    .sharded(shards)
                    .run()
                    .unwrap()
                    .colorful_matches;
                prop_assert_eq!(sharded, serial, "{} at {} shards", name, shards);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bitset lane primitives: the u64-word behaviours the columnar kernel leans
// on, exercised at table granularity.
// ---------------------------------------------------------------------------

#[test]
fn empty_signature_and_full_word_rows_are_distinct_keys() {
    // The empty set, a full low word and a full high word must hash and
    // compare as three different rows under the same vertex key.
    let mut t = ColumnarTable::new();
    let key = path_key(3, 9);
    let empty = Signature::empty();
    let low_full = Signature::from_words([u64::MAX, 0]);
    let high_full = Signature::from_words([0, u64::MAX]);
    t.add(key, empty, 1);
    t.add(key, low_full, 2);
    t.add(key, high_full, 4);
    assert_eq!(t.len(), 3);
    assert_eq!(t.get(key, empty), 1);
    assert_eq!(t.get(key, low_full), 2);
    assert_eq!(t.get(key, high_full), 4);
    assert_eq!(t.total(), 7);
}

#[test]
fn word_boundary_bits_do_not_alias() {
    // Bit 63 (top of lane 0) and bit 64 (bottom of lane 1) are adjacent
    // colors but live in different u64 words; a lane mixup would alias them.
    let mut t = ColumnarTable::new();
    let key = path_key(0, 1);
    t.add(key, Signature::singleton(63), 10);
    t.add(key, Signature::singleton(64), 20);
    assert_eq!(t.len(), 2);
    assert_eq!(t.get(key, Signature::singleton(63)), 10);
    assert_eq!(t.get(key, Signature::singleton(64)), 20);
    assert_eq!(t.get(key, Signature::pair(63, 64)), 0);
}

#[test]
fn popcount_driven_merge_accumulates_same_lane_rows() {
    // Rows with equal (key, signature-words) merge by count addition — the
    // popcount (signature length) of the merged row never changes, and
    // insertion order is irrelevant to the stored sum.
    let sig = Signature::empty().with(5).with(63).with(64).with(127);
    assert_eq!(sig.len(), 4);
    let mut ab = ColumnarTable::new();
    let key = path_key(2, 7);
    ab.add(key, sig, 3);
    ab.add(key, sig, 4);
    let mut ba = ColumnarTable::new();
    ba.add(key, sig, 4);
    ba.add(key, sig, 3);
    assert_eq!(ab.len(), 1);
    assert_eq!(ab.get(key, sig), 7);
    assert_eq!(ab.get(key, sig), ba.get(key, sig));
    let (_, stored, _) = ab.row(0);
    assert_eq!(stored.len(), 4);
}

#[test]
fn subset_enumeration_at_word_boundary_fills_distinct_rows() {
    // Enumerate the power set of a boundary-straddling signature into a
    // table: all 2^3 subsets must land in distinct rows whose popcounts
    // sum to the binomial expectation (0+1+1+1+2+2+2+3 = 12).
    let s = Signature::empty().with(62).with(63).with(64);
    let mut t = ColumnarTable::new();
    let key = path_key(1, 2);
    for sub in s.subsets() {
        t.add(key, sub, 1 + sub.len() as u64);
    }
    assert_eq!(t.len(), 8);
    let popcount_sum: u32 = t.rows().map(|(_, sig, _)| sig.len()).sum();
    assert_eq!(popcount_sum, 12);
    assert_eq!(t.get(key, s), 4);
    assert_eq!(t.get(key, Signature::empty()), 1);
}

#[test]
fn endpoint_groups_partition_rows_by_packed_key() {
    // Starts ascend, as in every path table.
    let mut t = ColumnarTable::new();
    t.add(path_key(1, 2), Signature::singleton(0), 1);
    t.add(path_key(1, 2), Signature::singleton(1), 2);
    t.add(path_key(1, 3), Signature::singleton(3), 4);
    t.add(path_key(2, 1), Signature::singleton(2), 3);
    let mut g = EndpointGroups::new();
    g.build(&t);
    let mut chain = |start, end| {
        let first = g.first(&t, start, end);
        std::iter::successors(first, |&r| g.next(r)).collect::<Vec<_>>()
    };
    // Each chained row is one row of the pair: its key is `(1, 2)`, never
    // the `(2, 1)` row's.
    let group = chain(1, 2);
    assert_eq!(group.len(), 2);
    for &r in &group {
        let (key, _, _) = t.row(r);
        assert_eq!((key[0], key[1]), (1, 2));
    }
    assert_eq!(chain(2, 1).len(), 1);
    assert_eq!(chain(3, 1).len(), 0);
}

// ---------------------------------------------------------------------------
// Arena reuse: steady-state trials allocate no new table capacity.
// ---------------------------------------------------------------------------

#[test]
fn steady_state_runs_reuse_arenas_without_growth() {
    let graph = gnm(60, 180, 11);
    let engine = Engine::new(&graph);
    let query = subgraph_counting::query::catalog::cycle(5);
    let coloring = Coloring::random(graph.num_vertices(), 5, 42);
    let run = || {
        engine
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap()
            .metrics
    };
    let first = run();
    // The very first checkout builds the arena from nothing.
    assert_eq!(first.kernel.arena_reuses, 0);
    assert!(first.kernel.arena_bytes > 0);
    assert!(first.kernel.arena_grown_bytes > 0);
    // Identical follow-up trials take the warmed arena from the pool and
    // grow nothing: the steady path is allocation-free.
    for trial in 0..2 {
        let m = run();
        assert_eq!(m.kernel.arena_reuses, 1, "trial {trial} missed the pool");
        assert_eq!(
            m.kernel.arena_grown_bytes, 0,
            "steady-state trial {trial} grew the arena"
        );
        assert_eq!(m.kernel.arena_bytes, first.kernel.arena_bytes);
    }
}

#[test]
fn sequential_estimate_trials_reuse_arenas() {
    let graph = gnm(40, 100, 7);
    let engine = Engine::new(&graph);
    let query = subgraph_counting::query::catalog::triangle();
    // Warm the pool, then three sequential trials over the same engine:
    // every one of them should check out a pooled arena.
    let coloring = Coloring::random(graph.num_vertices(), 3, 0);
    let _ = engine.count(&query).coloring(&coloring).run().unwrap();
    for seed in 1..=3u64 {
        let c = Coloring::random(graph.num_vertices(), 3, seed);
        let m = engine.count(&query).coloring(&c).run().unwrap().metrics;
        assert_eq!(m.kernel.arena_reuses, 1, "seed {seed} missed the pool");
    }
    // The estimator path reports totals but not per-trial metrics; its
    // bit-identity with the per-coloring path is covered by the engine-API
    // and property suites.
    let est = engine
        .count(&query)
        .trials(3)
        .seed(99)
        .parallel(false)
        .estimate()
        .unwrap();
    assert_eq!(est.per_trial.len(), 3);
}
