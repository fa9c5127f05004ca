//! Micro-measurements of single layers, run by the traced pass on top of
//! the workload's own spans: the columnar table on a synthetic row stream
//! that leaves L2 and on one that fits, the wire codec on one job's frames,
//! the program's span guard, and the graph and query front ends on the
//! workload's own inputs. Each is a few hundred milliseconds.

use std::hint::black_box;
use std::time::Instant;

use subgraph_counting::engine::{ColumnarTable, EndpointGroups, Signature};
use subgraph_counting::graph::{Coloring, CsrGraph, GraphBuilder};
use subgraph_counting::net::{CountSpec, Request, Response, WireEstimate, WireOutput};
use subgraph_counting::obs::{self, Stage};
use subgraph_counting::query::{canonical_key, heuristic_plan, Pattern};
use subgraph_counting::{Algorithm, Engine, StopReason};

use crate::envinfo::Environment;
use crate::inputs::{Rng, JOB_BUDGET};
use crate::stats::median;
use crate::verify::PlannedQuery;
use crate::{Outcome, RunConfig};

/// Nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Median over `reps` repetitions of the milliseconds `f` takes.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The graph and query front ends on the workload's own graph and queries.
pub fn graph_layers(graph: &CsrGraph, queries: &[PlannedQuery], outcome: &mut Outcome) {
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    outcome.layer(
        "graph.build_ms",
        median_ms(3, || {
            let mut builder = GraphBuilder::new(graph.num_vertices());
            builder.extend_edges(edges.iter().copied());
            builder.build()
        }),
    );
    if !outcome.layers.contains_key("graph.coloring_us") {
        let per_query: Vec<f64> = queries
            .iter()
            .map(|q| {
                1e3 * median_ms(5, || {
                    Coloring::random(graph.num_vertices(), q.query.num_nodes(), 7)
                })
            })
            .collect();
        outcome.layer("graph.coloring_us", median(&per_query));
    }
    if !outcome.layers.contains_key("core.bind_ms") {
        outcome.layer("core.bind_ms", median_ms(3, || Engine::new(graph)));
    }
    if !outcome.layers.contains_key("query.plan_us") {
        let plan: Vec<f64> = queries
            .iter()
            .map(|q| {
                ns_per_call(20, |_| drop(black_box(heuristic_plan(black_box(&q.query))))) / 1e3
            })
            .collect();
        outcome.layer("query.plan_us", median(&plan));
    }
    let parse: Vec<f64> = queries
        .iter()
        .map(|q| ns_per_call(200, |_| drop(black_box(Pattern::parse(black_box(q.name))))) / 1e3)
        .collect();
    outcome.layer("query.parse_us", median(&parse));
    let key: Vec<f64> = queries
        .iter()
        .map(|q| ns_per_call(200, |_| drop(black_box(canonical_key(black_box(&q.query))))) / 1e3)
        .collect();
    outcome.layer("query.canonical_key_us", median(&key));
}

/// `add`, `get` and `EndpointGroups::build` on a synthetic stream of `rows`
/// distinct path keys (plus a quarter of repeats), as ns per row.
fn table_stream(rows: usize) -> (f64, f64, f64, f64) {
    let mut rng = Rng::new(0x7AB1E, rows as u64);
    // Four rows per (start, end) pair, told apart by an extra key field, so
    // endpoint groups have several rows, as path tables do.
    let keys: Vec<([u32; 4], Signature)> = (0..rows)
        .map(|i| {
            let pair = (i / 4) as u32;
            let key = [pair, pair.wrapping_mul(31) % 4096, (i % 4) as u32, 0];
            (key, Signature::from_words([1 << (i % 7) | 1 << 9, 0]))
        })
        .collect();
    let order: Vec<usize> = (0..rows + rows / 4).map(|_| rng.below(rows)).collect();

    let mut table = ColumnarTable::new();
    let add_ns = ns_per_call(order.len(), |i| {
        let (key, sig) = keys[order[i]];
        table.add(key, sig, 1);
    });
    let mut found = 0u64;
    let get_ns = ns_per_call(order.len(), |i| {
        let (key, sig) = keys[order[i]];
        found += table.get(key, sig);
    });
    assert!(
        found as usize >= order.len(),
        "every added row is found with its count"
    );
    let mut groups = EndpointGroups::new();
    let start = Instant::now();
    groups.build(&table);
    let build_ns = start.elapsed().as_nanos() as f64 / table.len().max(1) as f64;
    black_box(&groups);
    let bytes_per_row = table.capacity_bytes() as f64 / table.len().max(1) as f64;
    (add_ns, get_ns, build_ns, bytes_per_row)
}

fn engine_layers(cfg: &RunConfig, env: &Environment, outcome: &mut Outcome) {
    let l2 = env.l2_bytes();
    // 32-byte rows: a table of `multiple × L2` bytes of rows, index on top.
    let large_rows = cfg.sizes.table_l2_multiple * l2 / 32;
    let small_rows = l2 / 4 / 64;
    let (add, get, build, bytes_per_row) = table_stream(large_rows);
    outcome.layer("engine.add_ns", add);
    outcome.layer("engine.get_ns", get);
    outcome.layer("engine.groups_build_ns", build);
    outcome.layer("engine.bytes_per_row", bytes_per_row);
    // The small table is quick, so take the median of a few streams.
    let small: Vec<(f64, f64, f64, f64)> = (0..9).map(|_| table_stream(small_rows)).collect();
    let pick =
        |f: fn(&(f64, f64, f64, f64)) -> f64| median(&small.iter().map(f).collect::<Vec<_>>());
    outcome.layer("engine.add_ns_small", pick(|s| s.0));
    outcome.layer("engine.get_ns_small", pick(|s| s.1));
    outcome.layer("engine.groups_build_ns_small", pick(|s| s.2));
    outcome.note(
        "engine_tables",
        format!(
            "large {large_rows} rows ≈ {:.1} MB, small {small_rows} rows ≈ {:.0} KB, L2 {} KB (sizes computed from rows × bytes_per_row)",
            large_rows as f64 * bytes_per_row / 1e6,
            small_rows as f64 * small[0].3 / 1e3,
            l2 / 1024
        ),
    );
    let peak = outcome
        .layers
        .get("core.peak_table_entries")
        .copied()
        .unwrap_or(0.0);
    outcome.layer("core.peak_table_mb", peak * bytes_per_row / 1e6);
}

fn net_layers(outcome: &mut Outcome) {
    const CALLS: usize = 20_000;
    let request = Request::Count(CountSpec {
        id: 42,
        pattern: "glet1".to_string(),
        algorithm: Algorithm::DegreeBased,
        seed: 0x5eed,
        budget: JOB_BUDGET as u64,
        precision: None,
        trace: None,
    });
    let response = Response::Final {
        id: 42,
        output: WireOutput {
            trials_run: JOB_BUDGET as u64,
            budget: JOB_BUDGET as u64,
            stop: StopReason::BudgetExhausted,
            from_cache: true,
            estimate: WireEstimate {
                per_trial: (0..JOB_BUDGET as u64).map(|i| 1000 + i).collect(),
                mean_colorful: 1001.5,
                scale: 26.04,
                estimated_matches: 26_079.0,
                estimated_subgraphs: 13_039.5,
                automorphisms: 2,
                variance: 1.66,
                coefficient_of_variation: 0.0012,
                total_seconds: 0.0123,
            },
        },
    };
    let request_bytes = request.encode();
    let response_bytes = response.encode();
    outcome.layer(
        "net.encode_req_ns",
        ns_per_call(CALLS, |_| drop(black_box(black_box(&request).encode()))),
    );
    outcome.layer(
        "net.decode_req_ns",
        ns_per_call(CALLS, |_| {
            drop(black_box(Request::decode(
                request.tag(),
                black_box(&request_bytes),
            )))
        }),
    );
    outcome.layer(
        "net.encode_final_ns",
        ns_per_call(CALLS, |_| drop(black_box(black_box(&response).encode()))),
    );
    outcome.layer(
        "net.decode_final_ns",
        ns_per_call(CALLS, |_| {
            drop(black_box(Response::decode(
                response.tag(),
                black_box(&response_bytes),
            )))
        }),
    );
    // Length prefix and tag byte on top of the payload.
    outcome.layer("net.final_frame_bytes", (response_bytes.len() + 5) as f64);
    assert_eq!(
        Response::decode(response.tag(), &response_bytes).ok(),
        Some(response)
    );
}

fn obs_layers(outcome: &mut Outcome) {
    const CALLS: usize = 100_000;
    outcome.layer(
        "obs.span_enabled_ns",
        ns_per_call(CALLS, |_| drop(black_box(obs::span(Stage::Cache)))),
    );
    {
        let _pause = obs::suspend();
        outcome.layer(
            "obs.span_disabled_ns",
            ns_per_call(CALLS, |_| drop(black_box(obs::span(Stage::Cache)))),
        );
    }
    outcome.layer(
        "obs.render_us",
        1e3 * median_ms(20, || obs::global().render()),
    );
}

/// The workload-independent micro-measurements.
pub fn run(cfg: &RunConfig, env: &Environment, outcome: &mut Outcome) {
    engine_layers(cfg, env, outcome);
    net_layers(outcome);
    obs_layers(outcome);
}
