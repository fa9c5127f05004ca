//! Golden-count fixtures: checked-in exact counts that pin the generators
//! and the DP down.
//!
//! `tests/fixtures/golden_counts.tsv` holds rows of
//! `(generator spec, query, coloring seed) → (edge count, colorful count)`
//! computed once and committed. The test regenerates every graph and
//! recounts with both algorithms (and through the sharded runtime), so a
//! regression in *either* a generator (different graph ⇒ different edge
//! count or counts) or the counting DP (same graph, different counts)
//! fails loudly against the committed truth instead of silently shifting
//! every downstream experiment.
//!
//! To regenerate after an *intentional* change, run
//! `cargo test --test golden regenerate_golden_fixtures -- --ignored --nocapture`
//! and replace the fixture file with the printed table.

use subgraph_counting::core::{Algorithm, Engine};
use subgraph_counting::gen::{chung_lu, gnm, power_law_degrees, rmat, RmatParams};
use subgraph_counting::graph::{Coloring, CsrGraph, GraphBuilder};
use subgraph_counting::query::{catalog, QueryGraph};

const FIXTURES: &str = include_str!("fixtures/golden_counts.tsv");

/// The generator specs the fixture table covers, one per family the
/// experiment harness uses.
const GENERATORS: &[&str] = &["gnm:24:48:7", "gnm:30:70:21", "chung_lu:28:11", "rmat:4:3"];

/// The fixture queries: small enough to be cheap, varied enough to cover
/// leaf edges, even/odd cycles and multi-block plans — plus the 11-node
/// satellite worked example.
const QUERIES: &[&str] = &["triangle", "c4", "path4", "glet1", "dros", "satellite"];

const COLORING_SEEDS: &[u64] = &[5, 9];

/// Wide-lane rows: `(generator, query)` pairs whose color count exceeds 64,
/// forcing every signature through the second u64 word of the two-word
/// bitset representation. These run under a *rainbow* coloring (vertex `i`
/// gets color `i mod k`) so the counts are analytic — a C66 query on a
/// rainbow 66-cycle has exactly `2 * 66` colorful matches (rotations times
/// reflections), a P70 query on a rainbow 70-path exactly 2 (the two
/// directions) — instead of the near-certain zero a random coloring with
/// more than 64 colors would produce.
const WIDE_ROWS: &[(&str, &str)] = &[("cycle:66", "c66"), ("path:70", "path70")];

/// Seed column value used for wide rows (the rainbow coloring ignores it).
const RAINBOW_SEED: u64 = 0;

/// Whether a generator spec belongs to the rainbow-colored wide-lane rows.
fn is_wide_spec(spec: &str) -> bool {
    spec.starts_with("cycle:") || spec.starts_with("path:")
}

/// Builds the graph a generator spec describes. Specs are versioned by
/// their exact text: changing a generator's behaviour must come with a
/// fixture regeneration.
fn generate(spec: &str) -> CsrGraph {
    let parts: Vec<&str> = spec.split(':').collect();
    let int = |i: usize| -> u64 { parts[i].parse().expect("numeric generator field") };
    match parts[0] {
        "gnm" => gnm(int(1) as usize, int(2) as usize, int(3)),
        "chung_lu" => {
            let n = int(1) as usize;
            let degrees: Vec<f64> = power_law_degrees(n, 1.8).iter().map(|d| d * 2.0).collect();
            chung_lu(&degrees, int(2))
        }
        "rmat" => {
            let params = RmatParams {
                edge_factor: 4,
                ..RmatParams::paper()
            };
            rmat(int(1) as u32, params, int(2))
        }
        "cycle" => {
            let n = int(1) as usize;
            let mut b = GraphBuilder::new(n);
            for i in 0..n {
                b.add_edge(i as u32, ((i + 1) % n) as u32);
            }
            b.build()
        }
        "path" => {
            let n = int(1) as usize;
            let mut b = GraphBuilder::new(n);
            for i in 0..n - 1 {
                b.add_edge(i as u32, (i + 1) as u32);
            }
            b.build()
        }
        other => panic!("unknown generator family `{other}` in spec `{spec}`"),
    }
}

fn query_by_name(name: &str) -> QueryGraph {
    match name {
        "triangle" => catalog::triangle(),
        "c4" => catalog::cycle(4),
        "path4" => catalog::path(4),
        "c66" => catalog::cycle(66),
        "path70" => catalog::path(70),
        other => catalog::query_by_name(other)
            .unwrap_or_else(|| panic!("unknown fixture query `{other}`")),
    }
}

/// One recomputed fixture row.
fn recount(spec: &str, query_name: &str, coloring_seed: u64) -> (usize, u64) {
    let graph = generate(spec);
    let query = query_by_name(query_name);
    let k = query.num_nodes();
    // Wide-lane rows (k > 64) use the rainbow coloring their analytic
    // counts are stated for; everything else draws the seeded random
    // coloring the fixture was committed with.
    let coloring = if is_wide_spec(spec) {
        Coloring::from_colors(
            (0..graph.num_vertices()).map(|i| (i % k) as u8).collect(),
            k,
        )
    } else {
        Coloring::random(graph.num_vertices(), k, coloring_seed)
    };
    let engine = Engine::new(&graph);
    let db = engine
        .count(&query)
        .algorithm(Algorithm::DegreeBased)
        .coloring(&coloring)
        .run()
        .unwrap()
        .colorful_matches;
    // Both algorithms and the sharded runtime must reproduce the committed
    // count — one fixture row cross-checks three execution paths.
    let ps = engine
        .count(&query)
        .algorithm(Algorithm::PathSplitting)
        .coloring(&coloring)
        .run()
        .unwrap()
        .colorful_matches;
    assert_eq!(ps, db, "PS and DB disagree on {spec} / {query_name}");
    let sharded = engine
        .count(&query)
        .coloring(&coloring)
        .sharded(2)
        .run()
        .unwrap()
        .colorful_matches;
    assert_eq!(sharded, db, "sharded diverges on {spec} / {query_name}");
    (graph.num_edges(), db)
}

#[test]
fn committed_golden_counts_reproduce() {
    let mut rows = 0;
    for line in FIXTURES.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 5, "malformed fixture row: {line}");
        let (spec, query, seed, edges, count) = (
            fields[0],
            fields[1],
            fields[2].parse::<u64>().expect("seed"),
            fields[3].parse::<usize>().expect("edge count"),
            fields[4].parse::<u64>().expect("colorful count"),
        );
        let (got_edges, got_count) = recount(spec, query, seed);
        assert_eq!(
            got_edges, edges,
            "generator drift: {spec} produced {got_edges} edges, fixture says {edges}"
        );
        assert_eq!(
            got_count, count,
            "count drift on {spec} / {query} / seed {seed}"
        );
        rows += 1;
    }
    // The table must actually cover the matrix — an accidentally truncated
    // fixture file should fail, not silently pass on fewer rows.
    assert_eq!(
        rows,
        GENERATORS.len() * QUERIES.len() * COLORING_SEEDS.len() + WIDE_ROWS.len(),
        "fixture table does not cover the full generator x query x seed matrix"
    );
}

/// The wide-lane fixture rows are not just committed numbers: their counts
/// are analytic. A rainbow n-cycle contains exactly `2n` colorful matches
/// of the n-cycle query and a rainbow n-path exactly 2 of the n-path query,
/// independent of any generator or DP detail.
#[test]
fn wide_lane_sentinels_are_analytic() {
    assert_eq!(recount("cycle:66", "c66", RAINBOW_SEED), (66, 2 * 66));
    assert_eq!(recount("path:70", "path70", RAINBOW_SEED), (69, 2));
}

/// Prints a fresh fixture table. Run with
/// `cargo test --test golden regenerate_golden_fixtures -- --ignored --nocapture`
/// after an intentional generator or DP change, and commit the output as
/// `tests/fixtures/golden_counts.tsv`.
#[test]
#[ignore = "fixture regeneration helper, not a check"]
fn regenerate_golden_fixtures() {
    println!("# generator\tquery\tcoloring_seed\tedges\tcolorful_count");
    for spec in GENERATORS {
        for query in QUERIES {
            for &seed in COLORING_SEEDS {
                let (edges, count) = recount(spec, query, seed);
                println!("{spec}\t{query}\t{seed}\t{edges}\t{count}");
            }
        }
    }
    for (spec, query) in WIDE_ROWS {
        let (edges, count) = recount(spec, query, RAINBOW_SEED);
        println!("{spec}\t{query}\t{RAINBOW_SEED}\t{edges}\t{count}");
    }
}
