//! `dyn-stream`: the mutator of a dynamic graph. One operation is one edge
//! delta applied to an in-process `Service`.
//!
//! Two phases on one service. First two watchers are live, so the delta's
//! acknowledgement carries their re-emission (today on the mutator's thread):
//! what is timed is `apply_delta` call → return, and the operation is over
//! when both watchers delivered the new version. Then the watchers are
//! cancelled and every delta is followed by a count at the new head: what is
//! timed is the delta plus the incremental recount. Only the head version is
//! ever counted, so the workload stays valid under any retention policy.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use subgraph_counting::dynamic::VersionedGraph;
use subgraph_counting::gen::road_like;
use subgraph_counting::graph::{CsrGraph, EdgeDelta, SegmentedSnapshot};
use subgraph_counting::{
    ChunkUpdate, CountJob, Engine, Service, ServiceConfig, VersionId, WatchHandle,
};

use crate::envinfo::{self, Environment};
use crate::inputs::{mix, DeltaStream, DATASET_SEED};
use crate::stats::{median, Latencies, LatencySummary};
use crate::trace::Tracer;
use crate::verify::{cross_path, Checksum, PlannedQuery, Tally};
use crate::{
    first_set_up, graph_note, micro, more_set_ups, record_stage_ms, stage_totals_ns, timed,
    Outcome, RunConfig,
};

/// The watched jobs; the recount phase counts the first.
const WATCH_PATTERNS: [&str; 2] = ["cycle(5)", "path(4)"];
const BUDGET: usize = 8;

/// The share of `--seconds` spent with the watchers live; the recounts get
/// the rest.
const WATCHED_SHARE: f64 = 0.6;

/// How long a delta may take to reach every watcher before it counts as
/// failed.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(30);

/// What follows a delta's acknowledgement.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Two watchers are live; the operation waits for both to deliver.
    Watched,
    /// Nobody watches; the mutator counts at the new head itself.
    Recount,
}

impl Phase {
    /// The patterns counted per delta.
    fn patterns(self) -> &'static [&'static str] {
        match self {
            Phase::Watched => &WATCH_PATTERNS,
            Phase::Recount => &WATCH_PATTERNS[..1],
        }
    }
}

/// What the watchers delivered: `(watcher, version, per-trial counts)`.
#[derive(Default)]
struct Deliveries {
    chunks: Mutex<Vec<(usize, VersionId, Vec<u64>)>>,
    arrived: Condvar,
}

impl Deliveries {
    /// Waits until every watcher delivered `version`; returns their counts
    /// in watcher order, or `None` on timeout.
    fn wait_for(&self, version: VersionId, watchers: usize) -> Option<Vec<Vec<u64>>> {
        let deadline = Instant::now() + DELIVERY_TIMEOUT;
        let mut chunks = self.chunks.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let found: Vec<Vec<u64>> = (0..watchers)
                .filter_map(|w| {
                    chunks
                        .iter()
                        .find(|(who, v, _)| *who == w && *v == version)
                        .map(|(_, _, counts)| counts.clone())
                })
                .collect();
            if found.len() == watchers {
                chunks.clear();
                return Some(found);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            chunks = self
                .arrived
                .wait_timeout(chunks, left)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }
}

struct Bound {
    service: Service,
    stream: DeltaStream,
    deliveries: Arc<Deliveries>,
    watches: Vec<WatchHandle>,
    /// Deltas streamed so far, the warm-up not counted; the span ids follow it.
    streamed: usize,
    root: Arc<CsrGraph>,
    /// The delta the set-up applied, which mirrors must replay first.
    warm_up: EdgeDelta,
    generate_ms: f64,
    bind_ms: f64,
    register_ms: Vec<f64>,
}

fn job_seed(cfg: &RunConfig) -> u64 {
    mix(cfg.seed, 0xD1, 0) & 0xFFFF_FFFF
}

fn job(cfg: &RunConfig, pattern: &str) -> CountJob {
    CountJob::from_pattern_str(pattern)
        .expect("benchmark patterns parse")
        .seed(job_seed(cfg))
        .budget(BUDGET)
}

/// One delta as the workload times it. Returns the acknowledgement time,
/// the time until everything the operation waits for arrived, and the
/// counts it produced (one list per pattern of the phase), or why it failed.
fn operation(
    bound: &Bound,
    cfg: &RunConfig,
    phase: Phase,
    delta: &EdgeDelta,
    request: u64,
    tracer: &Tracer,
) -> (f64, f64, Result<Vec<Vec<u64>>, String>) {
    let start = Instant::now();
    let root = tracer.span("delta", "bench", request, 0);
    let version = {
        let _span = tracer.span("service.apply_delta", "service", request, root.id());
        bound.service.apply_delta(delta)
    };
    let ack_ms = start.elapsed().as_secs_f64() * 1e3;
    let counts = match (version, phase) {
        (Err(e), _) => Err(e.to_string()),
        (Ok(version), Phase::Watched) => {
            let _span = tracer.span("bench.wait_watchers", "idle", request, root.id());
            bound
                .deliveries
                .wait_for(version, WATCH_PATTERNS.len())
                .ok_or_else(|| "a watcher did not deliver the new version in time".to_string())
        }
        (Ok(version), Phase::Recount) => {
            let _span = tracer.span("service.count_at", "service", request, root.id());
            bound
                .service
                .count_at(version, job(cfg, WATCH_PATTERNS[0]))
                .map(|out| vec![out.estimate.per_trial])
                .map_err(|e| e.to_string())
        }
    };
    (ack_ms, start.elapsed().as_secs_f64() * 1e3, counts)
}

/// Generation, `Service::with_config`, watcher registration (each watcher's
/// first count is from scratch), and the warm-up: one delta delivered to
/// both watchers.
fn set_up(cfg: &RunConfig, tally: &mut Tally) -> Bound {
    let side = cfg.sizes.dyn_side;
    let (root, generate_s) = timed(|| Arc::new(road_like(side, 0.65, 0.02, DATASET_SEED)));
    let (service, bind_s) =
        timed(|| Service::with_config(Arc::clone(&root), ServiceConfig::default()));
    let deliveries = Arc::new(Deliveries::default());
    let mut register_ms = Vec::new();
    let mut watches = Vec::new();
    for (w, pattern) in WATCH_PATTERNS.iter().enumerate() {
        let sink = Arc::clone(&deliveries);
        let callback = Arc::new(move |version: VersionId, chunk: &ChunkUpdate| {
            sink.chunks.lock().unwrap_or_else(|p| p.into_inner()).push((
                w,
                version,
                chunk.estimate.per_trial.clone(),
            ));
            sink.arrived.notify_all();
        });
        let (handle, s) = timed(|| service.watch(job(cfg, pattern), callback));
        register_ms.push(s * 1e3);
        match handle {
            Ok(handle) => watches.push(handle),
            Err(e) => tally.check(false, || format!("watch {pattern}: {e}")),
        }
    }
    let mut stream = DeltaStream::new(&root, side, cfg.seed);
    let warm_up = stream.next_delta();
    let bound = Bound {
        service,
        stream,
        warm_up: warm_up.clone(),
        deliveries,
        watches,
        streamed: 0,
        root,
        generate_ms: generate_s * 1e3,
        bind_ms: bind_s * 1e3,
        register_ms,
    };
    let quiet = Tracer::new(false);
    let (_, _, warm) = operation(&bound, cfg, Phase::Watched, &warm_up, 0, &quiet);
    tally.check(warm.is_ok(), || format!("warm-up delta: {warm:?}"));
    bound
}

/// The counts a fresh engine on `graph` gives for the workload's jobs.
fn fresh_counts(cfg: &RunConfig, graph: &CsrGraph, queries: &[PlannedQuery]) -> Vec<Vec<u64>> {
    let engine = Engine::new(graph);
    queries
        .iter()
        .map(|q| {
            engine
                .count(&q.query)
                .seed(job_seed(cfg))
                .trials(BUDGET)
                .estimate()
                .map(|e| e.per_trial)
                .unwrap_or_default()
        })
        .collect()
}

#[derive(Default)]
struct Section {
    ack_ms: Vec<f64>,
    full_ms: Vec<f64>,
    deltas: Vec<EdgeDelta>,
    first_checkpoint: Vec<Vec<u64>>,
    /// `VmHWM` when the `rss_deltas`-th delta completed, if that many did.
    peak_rss_mb: Option<f64>,
}

impl Section {
    fn busy_s(&self) -> f64 {
        self.full_ms.iter().sum::<f64>() / 1e3
    }

    fn deltas_per_s(&self) -> f64 {
        self.full_ms.len() as f64 / self.busy_s()
    }
}

/// Deltas of one phase for `seconds`; every `check_every`-th (the first
/// included) has its counts compared with a fresh build of the mirrored edge
/// set, outside the timed intervals. Every version stays resident, so memory
/// grows with each delta: the peak is read when a fixed number of them
/// completed, and a program that gets through more deltas in the time is not
/// charged for them.
fn stream_deltas(
    bound: &mut Bound,
    cfg: &RunConfig,
    phase: Phase,
    queries: &[PlannedQuery],
    seconds: f64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Section {
    let queries = &queries[..phase.patterns().len()];
    let mut section = Section::default();
    let mut busy_s = 0.0;
    let mut index = 0usize;
    while busy_s < seconds {
        let delta = bound.stream.next_delta();
        bound.streamed += 1;
        let request = bound.streamed as u64;
        let (ack_ms, full_ms, counts) = operation(bound, cfg, phase, &delta, request, tracer);
        busy_s += full_ms / 1e3;
        section.ack_ms.push(ack_ms);
        section.full_ms.push(full_ms);
        let shaped = counts
            .as_ref()
            .is_ok_and(|c| c.len() == queries.len() && c.iter().all(|p| p.len() == BUDGET));
        if index.is_multiple_of(cfg.sizes.check_every) {
            let want = fresh_counts(cfg, &bound.stream.build_graph(), queries);
            tally.check(counts.as_ref().ok() == Some(&want), || {
                format!("delta {request}: got {counts:?}, a fresh build gives {want:?}")
            });
            if index == 0 {
                section.first_checkpoint = want;
            }
        } else {
            tally.check(shaped, || format!("delta {request}: {counts:?}"));
        }
        if tracer.enabled() {
            section.deltas.push(delta);
        }
        index += 1;
        if index == cfg.sizes.rss_deltas {
            section.peak_rss_mb = Some(envinfo::peak_rss_mb());
        }
    }
    section
}

pub fn run(cfg: &RunConfig, env: &Environment, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();

    let mut bound = first_set_up(&mut outcome, || set_up(cfg, &mut tally));
    let (mut generate, mut bind) = (vec![bound.generate_ms], vec![bound.bind_ms]);
    let mut register = bound.register_ms.clone();
    outcome.note(
        "graph",
        format!(
            "road_like({}): {}",
            cfg.sizes.dyn_side,
            graph_note(&bound.root)
        ),
    );
    outcome.note(
        "service",
        format!(
            "default config ({} workers, {} dyn shards), budget {BUDGET}, 4 edge flips per delta; {} watchers, then none and a recount per delta",
            ServiceConfig::default().workers,
            ServiceConfig::default().dyn_shards,
            WATCH_PATTERNS.len()
        ),
    );

    let queries: Vec<PlannedQuery> = WATCH_PATTERNS
        .iter()
        .map(|&text| PlannedQuery::parse(text))
        .collect();
    let seconds = if cfg.trace {
        cfg.seconds * 0.5
    } else {
        cfg.seconds
    };
    let stages_before = stage_totals_ns();
    let rss_before = envinfo::rss_mb();
    outcome.timed_section_starts();
    let watched = stream_deltas(
        &mut bound,
        cfg,
        Phase::Watched,
        &queries,
        seconds * WATCHED_SHARE,
        tracer,
        &mut tally,
    );
    // A cancelled watcher is pruned, without an emission, by the next delta.
    bound.watches.iter().for_each(WatchHandle::cancel);
    let recount = stream_deltas(
        &mut bound,
        cfg,
        Phase::Recount,
        &queries,
        seconds * (1.0 - WATCHED_SHARE),
        tracer,
        &mut tally,
    );
    outcome.timed_section_ended();
    match watched.peak_rss_mb {
        Some(peak) => {
            outcome.peak_rss_mb = peak;
            outcome.note(
                "peak_rss_after_deltas",
                format!("{} (watched)", cfg.sizes.rss_deltas),
            );
        }
        None => outcome.note(
            "peak_rss_after_deltas",
            format!(
                "{}, all there were: fewer than the {} watched ones the figure is defined at",
                watched.full_ms.len() + recount.full_ms.len(),
                cfg.sizes.rss_deltas
            ),
        ),
    }
    let rss_after = envinfo::rss_mb();
    let deltas = watched.full_ms.len() + recount.full_ms.len();
    outcome.note(
        "phases",
        format!(
            "{} watched deltas in {:.2} s ({:.2}/s delivered to both watchers), {} recounted in {:.2} s ({:.2}/s)",
            watched.full_ms.len(),
            watched.busy_s(),
            watched.deltas_per_s(),
            recount.full_ms.len(),
            recount.busy_s(),
            recount.deltas_per_s()
        ),
    );

    outcome.ops = deltas as u64;
    outcome.ops_wall_s = watched.busy_s() + recount.busy_s();
    // What the mutator waits for, one class per phase: the acknowledgement
    // while watchers are live, the delta plus the recount once it counts
    // itself. The tail is that of the watched acknowledgements, the slower
    // class: pooled, the percentile's place inside that class would move with
    // the number of recounts that fit into their phase.
    let mut latencies = Latencies::default();
    watched.ack_ms.iter().for_each(|&ms| latencies.push(0, ms));
    let tail_ms = latencies.summary().tail_ms;
    recount.full_ms.iter().for_each(|&ms| latencies.push(1, ms));
    outcome.latency = LatencySummary::new(latencies.summary().class_medians, tail_ms);
    // After the timed section: what the checks allocate is not resident
    // while `peak_rss_mb` is taken.
    cross_path(
        &bound.root,
        &Engine::from_shared(Arc::clone(&bound.root)),
        &queries,
        mix(cfg.seed, 0xC055, 0),
        env.nproc,
        queries.len(),
        &mut tally,
    );
    let root_counts = fresh_counts(cfg, &bound.root, &queries);
    let mut checksum = Checksum::default();
    root_counts.iter().for_each(|c| checksum.extend(c));
    watched
        .first_checkpoint
        .iter()
        .for_each(|c| checksum.extend(c));
    outcome.checksum = checksum;

    if cfg.trace {
        record_stage_ms(
            &mut outcome,
            &stages_before,
            &stage_totals_ns(),
            deltas as u64,
        );
        outcome.layer(
            "dyn.rss_kb_per_delta",
            (rss_after - rss_before) * 1024.0 / deltas.max(1) as f64,
        );
        let streamed: Vec<&EdgeDelta> = watched.deltas.iter().chain(&recount.deltas).collect();
        mirror_layers(&bound.root, &bound.warm_up, &streamed, &mut outcome);
        service_layers(cfg, &bound, &watched, &recount, &mut outcome, &mut tally);

        let quiet = Tracer::new(false);
        let plain = stream_deltas(
            &mut bound,
            cfg,
            Phase::Recount,
            &queries,
            cfg.seconds * 0.2,
            &quiet,
            &mut tally,
        );
        outcome.layer(
            "bench.trace_overhead_pct",
            100.0 * (plain.deltas_per_s() / recount.deltas_per_s() - 1.0),
        );
    }

    bound.service.shutdown();
    let root = Arc::clone(&bound.root);
    drop(bound);
    more_set_ups(
        cfg,
        &mut outcome,
        || set_up(cfg, &mut tally),
        |b| {
            generate.push(b.generate_ms);
            bind.push(b.bind_ms);
            register.extend(b.register_ms.iter().copied());
        },
    );
    outcome.layer("gen.generate_ms", median(&generate));
    outcome.layer("core.bind_ms", median(&bind));
    outcome.layer("service.watch_register_ms", median(&register));
    if cfg.trace {
        micro::graph_layers(&root, &queries, &mut outcome);
    }
    outcome.tally.absorb(tally);
    outcome
}

/// The snapshot and version-store layers on mirrors fed the same deltas.
fn mirror_layers(
    root: &CsrGraph,
    warm_up: &EdgeDelta,
    deltas: &[&EdgeDelta],
    outcome: &mut Outcome,
) {
    let mut snapshot = SegmentedSnapshot::new(root);
    let mut versions = VersionedGraph::new(root);
    if let Ok(next) = snapshot.apply(warm_up) {
        snapshot = next;
    }
    let _ = versions.apply_to_head(warm_up);
    let (mut apply_us, mut materialize_ms, mut shared, mut head_us, mut data_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, delta) in deltas.iter().enumerate() {
        let (next, s) = timed(|| snapshot.apply(delta));
        let Ok(next) = next else { continue };
        apply_us.push(s * 1e6);
        shared
            .push(next.segments_shared_with(&snapshot) as f64 / next.num_segments().max(1) as f64);
        snapshot = next;
        let (version, s) = timed(|| versions.apply_to_head(delta));
        head_us.push(s * 1e6);
        if i % 8 == 0 {
            materialize_ms.push(timed(|| snapshot.materialize()).1 * 1e3);
            if let Ok(version) = version {
                data_ms.push(timed(|| versions.data_at(version)).1 * 1e3);
            }
        }
    }
    outcome.layer("graph.snapshot_apply_us", median(&apply_us));
    outcome.layer("graph.materialize_ms", median(&materialize_ms));
    outcome.layer("graph.segments_shared_share", median(&shared));
    outcome.layer("dyn.apply_to_head_us", median(&head_us));
    outcome.layer("dyn.data_at_ms", median(&data_ms));
    outcome.note("mirror_deltas_replayed", apply_us.len());
}

/// Acknowledgement with no watcher, the cost each watcher adds to it, and
/// the incremental recount against a from-scratch count.
fn service_layers(
    cfg: &RunConfig,
    bound: &Bound,
    watched: &Section,
    recount: &Section,
    outcome: &mut Outcome,
    tally: &mut Tally,
) {
    let w0_ms = median(&recount.ack_ms);
    outcome.layer("service.delta_ack_w0_us", w0_ms * 1e3);
    outcome.layer(
        "service.ack_ms_per_watcher",
        (median(&watched.ack_ms) - w0_ms) / WATCH_PATTERNS.len() as f64,
    );
    // A job nobody ran before, at the root: no partial sums to replay, so
    // every shard is counted from scratch.
    let fresh_job = job(cfg, WATCH_PATTERNS[0]).seed(job_seed(cfg) + 1);
    let (scratch, scratch_s) = timed(|| {
        bound
            .service
            .count_at(bound.service.root_version(), fresh_job)
    });
    tally.check(scratch.is_ok(), || {
        format!("from-scratch count at root: {scratch:?}")
    });
    let recount_ms: Vec<f64> = recount
        .full_ms
        .iter()
        .zip(&recount.ack_ms)
        .map(|(full, ack)| full - ack)
        .collect();
    outcome.layer(
        "dyn.recount_over_scratch",
        median(&recount_ms) / (scratch_s * 1e3),
    );
    outcome.note("recount_ms_p50", median(&recount_ms));
    outcome.note("scratch_count_ms", scratch_s * 1e3);
}
