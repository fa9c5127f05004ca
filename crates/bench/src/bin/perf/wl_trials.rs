//! `sweep-skew` and `shard-road`: the analyst's path. One operation is one
//! trial — draw a coloring, run the DP for one query — and a round sweeps
//! every query under every coloring, so all rounds do the same work and every
//! class has the same number of samples.
//!
//! `sweep-skew` runs the trials serially on a skewed graph whose tables
//! leave L2 (the paper's Fig. 9 case and the single-threaded baseline);
//! `shard-road` runs each trial sharded over `nproc` threads on a low-skew
//! road graph, where rows per operation are high and the exchange, table
//! export and coloring of a large vertex set carry the cost.

use std::sync::Arc;
use std::time::Instant;

use subgraph_counting::engine::parallel::run_with_threads;
use subgraph_counting::gen::catalog::spec_by_name;
use subgraph_counting::graph::CsrGraph;
use subgraph_counting::{Algorithm, Engine, RunMetrics};

use crate::envinfo::Environment;
use crate::inputs::{mix, DATASET_SEED};
use crate::names::Workload;
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::verify::{coloring_for, cross_path, Checksum, PlannedQuery, Tally};
use crate::{
    first_set_up, graph_note, micro, more_set_ups, record_stage_ms, stage_totals_ns, timed,
    Outcome, RunConfig,
};

const SKEW_QUERIES: [&str; 5] = ["youtube", "glet1", "ecoli1", "wiki", "dros"];
const ROAD_QUERIES: [&str; 6] = ["youtube", "glet1", "ecoli1", "wiki", "dros", "brain1"];

/// Queries cheap enough to run through every extra path at benchmark size.
const LIGHT: usize = 2;

struct Bound {
    graph: Arc<CsrGraph>,
    engine: Engine<'static>,
    queries: Vec<PlannedQuery>,
    /// `counts[q][j]`: the count of query `q` under its `j`-th coloring as
    /// the timed path first gave it (the warm-up gives coloring 0).
    counts: Vec<Vec<Option<u64>>>,
    generate_ms: f64,
    bind_ms: f64,
    plan_us: f64,
}

/// How this workload runs a trial: shards per trial, or `None` for serial.
fn shards_of(cfg: &RunConfig, env: &Environment) -> Option<usize> {
    (cfg.workload == Workload::ShardRoad).then_some(env.nproc)
}

fn coloring_seed(cfg: &RunConfig, query: usize, coloring: usize) -> u64 {
    mix(cfg.seed, 0xC0 + query as u64, coloring as u64)
}

/// One trial as the workload times it: coloring plus DP. Returns the count
/// and the run's metrics.
fn trial(
    bound: &Bound,
    cfg: &RunConfig,
    shards: Option<usize>,
    q: usize,
    coloring: usize,
    request: u64,
    tracer: &Tracer,
) -> Result<(u64, RunMetrics), String> {
    let query = &bound.queries[q];
    let root = tracer.span("trial", "bench", request, 0);
    let drawn = {
        let _span = tracer.span("graph.coloring", "graph", request, root.id());
        coloring_for(&bound.graph, &query.query, coloring_seed(cfg, q, coloring))
    };
    let _span = tracer.span("core.run", "core", request, root.id());
    let request = bound
        .engine
        .count(&query.query)
        .plan(&query.plan)
        .coloring(&drawn);
    let result = match shards {
        Some(n) => request.sharded(n).run(),
        None => request.run(),
    };
    result
        .map(|r| (r.colorful_matches, r.metrics))
        .map_err(|e| e.to_string())
}

/// Graph generation, bind, planning and the warm-up: one trial per query
/// under coloring 0.
fn set_up(cfg: &RunConfig, shards: Option<usize>, tally: &mut Tally) -> Bound {
    let (spec, scale, names): (_, _, &[&'static str]) = match cfg.workload {
        Workload::SweepSkew => ("condMat", cfg.sizes.skew_scale, &SKEW_QUERIES),
        _ => ("roadNetCA", cfg.sizes.road_scale, &ROAD_QUERIES),
    };
    let spec = spec_by_name(spec).expect("catalog graph");
    let (graph, generate_s) = timed(|| Arc::new(spec.generate(scale, DATASET_SEED)));
    let (engine, bind_s) = timed(|| Engine::from_shared(Arc::clone(&graph)));
    let (queries, plan_s) = timed(|| {
        names
            .iter()
            .map(|&name| PlannedQuery::parse(name))
            .collect::<Vec<_>>()
    });
    let mut bound = Bound {
        graph,
        engine,
        plan_us: plan_s * 1e6 / queries.len() as f64,
        queries,
        counts: Vec::new(),
        generate_ms: generate_s * 1e3,
        bind_ms: bind_s * 1e3,
    };
    let quiet = Tracer::new(false);
    for (q, name) in names.iter().enumerate() {
        let warm = trial(&bound, cfg, shards, q, 0, 0, &quiet);
        tally.check(warm.is_ok(), || format!("warm-up of {name}: {warm:?}"));
        let mut counts = vec![None; cfg.sizes.colorings];
        counts[0] = warm.ok().map(|(count, _)| count);
        bound.counts.push(counts);
    }
    bound
}

/// What a timed section accumulated.
#[derive(Default)]
struct Section {
    latencies: Latencies,
    trials: u64,
    /// Start to end of the section.
    wall_s: f64,
    /// Duration of every round; all rounds do identical work.
    round_s: Vec<f64>,
    ops: u64,
    entries: u64,
    peak_entries: usize,
    arena_grown_bytes: u64,
    busy_s: f64,
}

/// Whole rounds — every query under every coloring — until `seconds` have
/// passed; every count must repeat what the same cell gave before (the run
/// compares the cells with another path afterwards). Whole rounds make the
/// work per trial, and with it every count the traced run reports, the same
/// however many rounds fit.
fn sweep(
    bound: &mut Bound,
    cfg: &RunConfig,
    shards: Option<usize>,
    seconds: f64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Section {
    let mut section = Section::default();
    let start = Instant::now();
    let cells: Vec<(usize, usize)> = (0..cfg.sizes.colorings)
        .flat_map(|coloring| (0..bound.queries.len()).map(move |q| (q, coloring)))
        .collect();
    while start.elapsed().as_secs_f64() < seconds {
        let round_start = Instant::now();
        for &(q, coloring) in &cells {
            let request = section.trials + 1;
            let (result, s) = timed(|| trial(bound, cfg, shards, q, coloring, request, tracer));
            section.latencies.push(q, s * 1e3);
            section.trials += 1;
            section.busy_s += s;
            let got = result.as_ref().ok().map(|(count, _)| *count);
            let want = *bound.counts[q][coloring].get_or_insert(got.unwrap_or(u64::MAX));
            tally.check(got == Some(want), || {
                format!(
                    "{} coloring {coloring}: got {got:?}, the same trial gave {want} before",
                    bound.queries[q].name
                )
            });
            if let Ok((_, m)) = result {
                section.ops += m.total_ops;
                section.entries += m.entries_created;
                section.peak_entries = section.peak_entries.max(m.peak_table_entries);
                section.arena_grown_bytes += m.kernel.arena_grown_bytes;
            }
        }
        section.round_s.push(round_start.elapsed().as_secs_f64());
    }
    section.wall_s = start.elapsed().as_secs_f64();
    section
}

impl Section {
    fn trials_per_s(&self) -> f64 {
        self.trials as f64 / self.wall_s
    }
}

pub fn run(cfg: &RunConfig, env: &Environment, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let shards = shards_of(cfg, env);
    // The sharded fan-out takes its width from the enclosing pool.
    run_with_threads(env.nproc, || {
        let mut tally = Tally::default();
        let mut bound = first_set_up(&mut outcome, || set_up(cfg, shards, &mut tally));
        let (mut generate, mut bind) = (vec![bound.generate_ms], vec![bound.bind_ms]);
        let mut plan = vec![bound.plan_us];
        outcome.note("graph", graph_note(&bound.graph));
        outcome.note(
            "trial",
            match shards {
                Some(n) => format!("sharded({n}) inside a {n}-thread pool"),
                None => "serial, one thread".to_string(),
            },
        );

        outcome.timed_section_starts();
        let section = if !cfg.trace {
            let section = sweep(&mut bound, cfg, shards, cfg.seconds, tracer, &mut tally);
            outcome.timed_section_ended();
            section
        } else {
            let quiet = Tracer::new(false);
            let plain = sweep(
                &mut bound,
                cfg,
                shards,
                cfg.seconds * 0.3,
                &quiet,
                &mut tally,
            );
            let before = stage_totals_ns();
            let traced = sweep(
                &mut bound,
                cfg,
                shards,
                cfg.seconds * 0.3,
                tracer,
                &mut tally,
            );
            record_stage_ms(&mut outcome, &before, &stage_totals_ns(), traced.trials);
            outcome.layer(
                "bench.trace_overhead_pct",
                100.0 * (plain.trials_per_s() / traced.trials_per_s() - 1.0),
            );
            for (q, query) in bound.queries.iter().enumerate() {
                let name = crate::names::PER_LAYER
                    .iter()
                    .map(|m| m.name)
                    .find(|n| n.strip_prefix("core.trial_ms.") == Some(query.name))
                    .expect("a core.trial_ms metric per query");
                outcome.layer(name, median(&traced.latencies.of_class(q)));
            }
            outcome.layer(
                "graph.coloring_us",
                median(&tracer.durations("graph.coloring", 1e3)),
            );
            let trials = traced.trials.max(1) as f64;
            outcome.layer("core.ops_per_trial", traced.ops as f64 / trials);
            outcome.layer("core.entries_per_trial", traced.entries as f64 / trials);
            outcome.layer("core.peak_table_entries", traced.peak_entries as f64);
            outcome.layer(
                "core.ns_per_op",
                traced.busy_s * 1e9 / traced.ops.max(1) as f64,
            );
            outcome.layer("core.arena_grown_mb", traced.arena_grown_bytes as f64 / 1e6);
            samples(&bound, cfg, env, &mut outcome, &mut tally);
            traced
        };
        // The checks come after the timed section, so that what they
        // allocate is not resident while `peak_rss_mb` is taken. Every cell
        // of the sweep is compared with the path the timed trials do not
        // take, an independent computation.
        for coloring in 0..cfg.sizes.colorings {
            let seeds: Vec<u64> = (0..bound.queries.len())
                .map(|q| coloring_seed(cfg, q, coloring))
                .collect();
            let other = other_path_counts(&bound, &seeds, shards, env.nproc, &mut tally);
            for (q, count) in other.into_iter().enumerate() {
                let timed = bound.counts[q][coloring];
                tally.check(timed == Some(count), || {
                    format!(
                        "{} coloring {coloring}: timed path {timed:?} != other path {count}",
                        bound.queries[q].name
                    )
                });
            }
        }
        // serial ≡ sharded ≡ batch ≡ service on one more seed of its own.
        let light = if cfg.smoke {
            bound.queries.len()
        } else {
            LIGHT
        };
        cross_path(
            &bound.graph,
            &bound.engine,
            &bound.queries[..light],
            mix(cfg.seed, 0xC055, 0),
            env.nproc,
            light,
            &mut tally,
        );
        let mut checksum = Checksum::default();
        for cell in bound.counts.iter().flatten() {
            checksum.push(cell.unwrap_or(u64::MAX));
        }
        outcome.checksum = checksum;

        // A diagnostic beside `ops_per_s`: the rate at the median round,
        // which a stall in a few rounds does not move.
        let per_round = section.trials as f64 / section.round_s.len() as f64;
        outcome.note(
            "rounds",
            format!(
                "{} of {per_round} trials, median {:.3} s: {:.3} trials/s at the median round",
                section.round_s.len(),
                median(&section.round_s),
                per_round / median(&section.round_s)
            ),
        );
        outcome.ops = section.trials;
        outcome.ops_wall_s = section.wall_s;
        outcome.latency = section.latencies.summary();

        let (graph, queries) = (Arc::clone(&bound.graph), std::mem::take(&mut bound.queries));
        drop(bound);
        more_set_ups(
            cfg,
            &mut outcome,
            || set_up(cfg, shards, &mut tally),
            |b| {
                generate.push(b.generate_ms);
                bind.push(b.bind_ms);
                plan.push(b.plan_us);
            },
        );
        outcome.layer("gen.generate_ms", median(&generate));
        outcome.layer("core.bind_ms", median(&bind));
        outcome.layer("query.plan_us", median(&plan));
        if cfg.trace {
            micro::graph_layers(&graph, &queries, &mut outcome);
        }
        outcome.tally.absorb(tally);
    });
    outcome
}

/// The counts of every query under `seeds[q]` through the path the timed
/// trials do not take: sharded for the serial workload, serial for the
/// sharded one.
fn other_path_counts(
    bound: &Bound,
    seeds: &[u64],
    shards: Option<usize>,
    nproc: usize,
    tally: &mut Tally,
) -> Vec<u64> {
    bound
        .queries
        .iter()
        .zip(seeds)
        .map(|(q, &seed)| {
            let coloring = coloring_for(&bound.graph, &q.query, seed);
            let request = bound
                .engine
                .count(&q.query)
                .plan(&q.plan)
                .coloring(&coloring);
            let result = match shards {
                Some(_) => request.run(),
                None => request.sharded(nproc.max(2)).run(),
            };
            tally.check(result.is_ok(), || {
                format!("{}: reference run failed", q.name)
            });
            result.map_or(u64::MAX, |r| r.colorful_matches)
        })
        .collect()
}

/// The traced run's samples on the light queries: the other algorithm, the
/// sharded runtime against serial, batching, trial-level parallelism and
/// the program's own observability switched off.
fn samples(
    bound: &Bound,
    cfg: &RunConfig,
    env: &Environment,
    outcome: &mut Outcome,
    tally: &mut Tally,
) {
    const TRIALS: usize = 4;
    let light = &bound.queries[..LIGHT.min(bound.queries.len())];
    let seed = mix(cfg.seed, 0x5A, 0);
    let nproc = env.nproc;
    let (mut serial_s, mut one_s, mut many_s, mut quiet_s) = (0.0, 0.0, 0.0, 0.0);
    // Path splitting is sampled on each query's first coloring only: on a
    // skewed graph one such trial costs many degree-based ones.
    let (mut ps_s, mut ps_base_s) = (0.0, 0.0);
    let (mut imbalance, mut exchanged, mut rounds) = (Vec::new(), 0u64, 0u64);
    for q in light {
        for t in 0..TRIALS as u64 {
            let coloring = coloring_for(&bound.graph, &q.query, seed + t);
            let request = || {
                bound
                    .engine
                    .count(&q.query)
                    .plan(&q.plan)
                    .coloring(&coloring)
            };
            let (serial, s) = timed(|| request().run());
            serial_s += s;
            if t == 0 {
                ps_base_s += s;
            }
            let want = serial.as_ref().map(|r| r.colorful_matches).ok();
            let mut same = |what: &str, got: Option<u64>| {
                tally.check(got.is_some() && got == want, || {
                    format!("{} {what}: {got:?} != serial {want:?}", q.name)
                })
            };
            if t == 0 {
                let (ps, s) = timed(|| request().algorithm(Algorithm::PathSplitting).run());
                ps_s += s;
                same("path splitting", ps.ok().map(|r| r.colorful_matches));
            }
            let (one, s) = timed(|| request().sharded(1).run());
            one_s += s;
            same("sharded(1)", one.ok().map(|r| r.colorful_matches));
            let (many, s) = timed(|| request().sharded(nproc).run());
            many_s += s;
            if let Ok(many) = &many {
                if let Some(shard) = &many.metrics.shards {
                    imbalance.push(shard.imbalance());
                    exchanged += shard.total_entries_exchanged();
                    rounds += shard.exchange_rounds;
                }
            }
            same("sharded(nproc)", many.ok().map(|r| r.colorful_matches));
            let (quiet, s) = timed(|| request().obs(false).run());
            quiet_s += s;
            same("obs off", quiet.ok().map(|r| r.colorful_matches));
        }
    }
    let sampled = (light.len() * TRIALS) as f64;
    outcome.layer("core.ps_over_db", ps_s / ps_base_s);
    outcome.layer("core.shard_over_serial", one_s / serial_s);
    outcome.layer("core.shard_speedup", one_s / many_s);
    outcome.layer("core.shard_imbalance", median(&imbalance));
    outcome.layer(
        "core.entries_exchanged_per_trial",
        exchanged as f64 / sampled,
    );
    outcome.layer("core.exchange_rounds_per_trial", rounds as f64 / sampled);
    outcome.layer("obs.overhead_pct", 100.0 * (serial_s / quiet_s - 1.0));

    // Batching the same cells against the sum of solo estimates.
    fn estimate<'a>(
        bound: &'a Bound,
        q: &'a PlannedQuery,
        seed: u64,
    ) -> subgraph_counting::CountRequest<'a, 'static, 'a> {
        bound
            .engine
            .count(&q.query)
            .seed(seed)
            .trials(TRIALS)
            .parallel(false)
    }
    let estimate = |q| estimate(bound, q, seed);
    let (solo, solo_s) = timed(|| {
        light
            .iter()
            .map(|q| estimate(q).estimate())
            .collect::<Vec<_>>()
    });
    let requests: Vec<_> = light.iter().map(estimate).collect();
    let (batch, batch_s) = timed(|| bound.engine.count_batch(&requests));
    if let Ok(batch) = &batch {
        let cells = batch.metrics.cells.max(1) as f64;
        outcome.layer("core.batch_speedup", solo_s / batch_s);
        outcome.layer(
            "core.batch_colorings_shared_share",
            batch.metrics.colorings_shared as f64 / cells,
        );
        outcome.layer(
            "core.batch_dp_shared_share",
            batch.metrics.dp_shared as f64 / cells,
        );
    }
    for (i, q) in light.iter().enumerate() {
        let alone = solo[i].as_ref().ok().map(|e| &e.per_trial);
        let batched = batch.as_ref().ok().map(|b| &b.estimates[i].per_trial);
        tally.check(alone.is_some() && alone == batched, || {
            format!("{}: count_batch {batched:?} != solo {alone:?}", q.name)
        });
    }
    if let Some(Ok(first)) = solo.first() {
        outcome.layer(
            "core.rel_halfwidth_pct",
            100.0 * first.relative_half_width(0.95),
        );
        outcome.note("rel_halfwidth_trials", TRIALS);
    }

    // The default `Engine` path spreads an estimate's trials over the pool.
    let (spread, spread_s) = timed(|| estimate(&light[0]).parallel(true).estimate());
    let solo_first_s = solo[0].as_ref().map_or(f64::NAN, |e| e.total_seconds);
    outcome.layer("core.estimate_par_speedup", solo_first_s / spread_s);
    let alone = solo[0].as_ref().ok().map(|e| &e.per_trial);
    tally.check(
        alone.is_some() && alone == spread.as_ref().ok().map(|e| &e.per_trial),
        || {
            format!(
                "{}: parallel estimate differs from sequential",
                light[0].name
            )
        },
    );
}
