//! `serve-mix`: the client of `sgc_server`. One operation is one count
//! request over TCP — pattern text in, streamed chunks and a final frame out.
//!
//! Three phases on one server. (1) Distinct jobs in an open loop at a fixed
//! arrival rate, each timed from the instant it was due: every request misses
//! the result cache and crosses wire decode → queue → DP → encode → socket
//! write (cold latency). (2) Distinct jobs back to back over `nproc`
//! connections (saturation throughput). (3) Repeats of the jobs phase 2
//! finished last, back to back on one connection: every request is a cache
//! hit, so only `sgc-net`, `sgc-service` and pattern parsing work (hit
//! latency). A change to the DP should move the cold classes and leave the
//! hit classes alone; a change to the wire or the cache the other way round.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use subgraph_counting::gen::catalog::spec_by_name;
use subgraph_counting::graph::CsrGraph;
use subgraph_counting::{
    Client, CountJob, Engine, Server, ServerConfig, Service, ServiceConfig, StreamEvent,
};

use crate::envinfo::Environment;
use crate::inputs::{
    mix, open_loop_schedule, Arrival, DATASET_SEED, JOB_BUDGET, OPEN_LOOP_RATE, SERVE_PATTERNS,
};
use crate::stats::{median, quantile, ClassHistograms, Latencies, LatencySummary};
use crate::trace::Tracer;
use crate::verify::{cross_path, Checksum, PlannedQuery, Tally};
use crate::{
    first_set_up, graph_note, micro, more_set_ups, record_stage_ms, stage_totals_ns, timed,
    Outcome, RunConfig,
};

/// Reference counts every run computes per pattern even when it used fewer,
/// so the committed checksum does not depend on the machine's speed.
const CHECKSUM_TRIALS: usize = 16;

/// The shares of `--seconds` the three phases get.
const OPEN_SHARE: f64 = 0.6;
const CLOSED_SHARE: f64 = 0.25;
const HOT_SHARE: f64 = 0.15;

struct Bound {
    graph: Arc<CsrGraph>,
    server: Server,
    clients: Vec<Client>,
    generate_ms: f64,
    connect_us: f64,
}

fn first_seed(cfg: &RunConfig) -> u64 {
    1000 + (mix(cfg.seed, 0x5E, 0) & 0xFFFF_FFFF)
}

fn workers(env: &Environment) -> usize {
    env.nproc.saturating_sub(1).max(1)
}

/// Jobs waiting in the service's queue right now.
type QueueDepth<'a> = &'a (dyn Fn() -> usize + Sync);

/// Says whether an answer — `(pattern, seed, per-trial counts, from_cache)` —
/// is the right one.
type Judge<'a> = &'a (dyn Fn(usize, u64, &[u64], bool) -> Result<(), String> + Sync);

/// What a load loop collected. Every connection thread fills its own and
/// they are merged after the join, so recording costs the loop no lock.
struct Collected {
    requests: usize,
    /// Open loop, by pattern, from the due instant: one sample per arrival
    /// of the schedule, however fast the server is.
    due_ms: Latencies,
    /// Closed loop, by pattern, from the send: counted into buckets
    /// allocated up front, so a loop of cache hits — more of them the faster
    /// the server — does not show in `peak_rss_mb`.
    sent_ms: ClassHistograms,
    /// How late each open-loop request was sent.
    late_ms: Vec<f64>,
    /// Cold answers still to be compared, once a reference run has covered
    /// their seeds: `(pattern, seed, per-trial counts, from_cache)`. One per
    /// computed job, tens per second; hits are judged as they arrive.
    pending: Vec<(usize, u64, Vec<u64>, bool)>,
    /// Requests judged in the loop (errors, and answers whose reference was
    /// known up front) and the failures among them.
    judged: u64,
    failures: Vec<String>,
    /// The deepest service queue seen at a send (sampled when tracing).
    depth_max: usize,
    wall_s: f64,
}

impl Default for Collected {
    fn default() -> Self {
        Collected {
            requests: 0,
            due_ms: Latencies::default(),
            sent_ms: ClassHistograms::new(SERVE_PATTERNS.len()),
            late_ms: Vec::new(),
            pending: Vec::new(),
            judged: 0,
            failures: Vec::new(),
            depth_max: 0,
            wall_s: 0.0,
        }
    }
}

impl Collected {
    /// Counts one completed request and judges its answer, now if there is a
    /// `judge`, else at [`Collected::settle`].
    fn record(&mut self, job: (usize, u64), answer: Answer, judge: Option<Judge<'_>>) {
        let (pattern, seed) = job;
        self.requests += 1;
        let verdict = match (answer, judge) {
            (Ok((counts, from_cache)), None) => {
                self.pending.push((pattern, seed, counts, from_cache));
                return;
            }
            (Ok((counts, from_cache)), Some(judge)) => judge(pattern, seed, &counts, from_cache),
            (Err(e), _) => Err(format!("{} seed {seed}: {e}", SERVE_PATTERNS[pattern])),
        };
        self.judged += 1;
        self.failures.extend(verdict.err());
    }

    fn merge(&mut self, other: Collected) {
        self.requests += other.requests;
        self.due_ms.extend(other.due_ms);
        self.sent_ms.merge(&other.sent_ms);
        self.late_ms.extend(other.late_ms);
        self.pending.extend(other.pending);
        self.judged += other.judged;
        self.failures.extend(other.failures);
        self.depth_max = self.depth_max.max(other.depth_max);
    }

    /// Judges the pending answers and moves every verdict into `tally`.
    fn settle(&mut self, judge: Judge<'_>, tally: &mut Tally) {
        for (pattern, seed, counts, from_cache) in self.pending.drain(..) {
            self.judged += 1;
            self.failures
                .extend(judge(pattern, seed, &counts, from_cache).err());
        }
        tally.absorb(Tally {
            attempted: self.judged,
            failed: self.failures.len() as u64,
            messages: std::mem::take(&mut self.failures),
        });
        self.judged = 0;
    }

    /// Completions per second of the loop, start to end.
    fn completion_rate(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }
}

/// What one request came back with: the final frame's per-trial counts and
/// cache flag, or the error.
type Answer = Result<(Vec<u64>, bool), String>;

/// Sends one count request and reads its stream to the final frame.
fn request(client: &mut Client, pattern: usize, seed: u64) -> Answer {
    let mut stream = client
        .count(SERVE_PATTERNS[pattern])
        .seed(seed)
        .budget(JOB_BUDGET as u64)
        .stream()
        .map_err(|e| e.to_string())?;
    let mut answer = Err("stream ended without a final frame".to_string());
    for event in &mut stream {
        match event {
            Ok(StreamEvent::Chunk(_)) => {}
            Ok(StreamEvent::Final(out)) => answer = Ok((out.estimate.per_trial, out.from_cache)),
            Err(e) => answer = Err(e.to_string()),
        }
    }
    answer
}

/// Generation, `Server::bind`, `nproc` connections and the warm-up: one job
/// per pattern, with a seed below every timed one, so that its result is
/// never asked for again.
fn set_up(cfg: &RunConfig, env: &Environment, tally: &mut Tally) -> Bound {
    let spec = spec_by_name("condMat").expect("catalog graph");
    let (graph, generate_s) =
        timed(|| Arc::new(spec.generate(cfg.sizes.serve_scale, DATASET_SEED)));
    let config = ServerConfig {
        service: ServiceConfig {
            workers: workers(env),
            ..Default::default()
        },
        ..Default::default()
    };
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&graph), config).expect("bind an ephemeral port");
    let addr = server.local_addr();
    let mut connect_us = Vec::new();
    let mut clients: Vec<Client> = (0..env.nproc)
        .map(|_| {
            let (client, s) = timed(|| Client::connect(addr).expect("connect to the local server"));
            connect_us.push(s * 1e6);
            client
        })
        .collect();
    let warm_seed = first_seed(cfg) - 1;
    for (pattern, text) in SERVE_PATTERNS.iter().enumerate() {
        let answer = request(&mut clients[0], pattern, warm_seed);
        tally.check(answer.is_ok(), || format!("warm-up {text}: {answer:?}"));
    }
    Bound {
        graph,
        server,
        clients,
        generate_ms: generate_s * 1e3,
        connect_us: median(&connect_us),
    }
}

/// The open loop, on one connection: wait until the next arrival is due,
/// send it, time it from the due instant — so a request that found the
/// connection busy with the one before carries that wait, as it would carry
/// the wait in the queue of a server with one worker. The generator spins up
/// to the due instant instead of sleeping: it sends on time to the
/// microsecond, and the machine is never wholly idle (at 40 % load a virtual
/// machine halts its idle cores, and whole runs fell into a mode a quarter
/// slower), while the only other busy thread is the server's worker, and that
/// only while the generator is blocked on its answer.
fn open_loop(
    client: &mut Client,
    schedule: &[Arrival],
    tracer: &Tracer,
    depth: QueueDepth<'_>,
) -> Collected {
    let mut mine = Collected::default();
    let start = Instant::now();
    for (i, arrival) in schedule.iter().enumerate() {
        let id = i as u64 + 1;
        let root = tracer.span("request", "bench", id, 0);
        let due = start + Duration::from_secs_f64(arrival.due_s);
        {
            let _wait = tracer.span("bench.wait_due", "idle", id, root.id());
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        mine.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        if tracer.enabled() {
            mine.depth_max = mine.depth_max.max(depth());
        }
        let answer = {
            let _trip = tracer.span("net.roundtrip", "net", id, root.id());
            request(client, arrival.pattern, arrival.seed)
        };
        let ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        drop(root);
        mine.due_ms.push(arrival.pattern, ms);
        mine.record((arrival.pattern, arrival.seed), answer, None);
    }
    mine.wall_s = start.elapsed().as_secs_f64();
    mine
}

/// The closed loop: every connection, on a thread of its own, sends its next
/// job as soon as the previous one completed, for `seconds`. `job(j)` names
/// the `j`-th job.
fn closed_loop(
    clients: &mut [Client],
    seconds: f64,
    tracer: &Tracer,
    job: &(dyn Fn(usize) -> (usize, u64) + Sync),
    judge: Option<Judge<'_>>,
    depth: QueueDepth<'_>,
) -> Collected {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut all = Collected::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Collected::default();
                    while start.elapsed().as_secs_f64() < seconds {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let (pattern, seed) = job(j);
                        let id = j as u64 + 1;
                        let root = tracer.span("request", "bench", id, 0);
                        if tracer.enabled() {
                            mine.depth_max = mine.depth_max.max(depth());
                        }
                        let (answer, s) = {
                            let _trip = tracer.span("net.roundtrip", "net", id, root.id());
                            timed(|| request(client, pattern, seed))
                        };
                        drop(root);
                        mine.sent_ms.push(pattern, s * 1e3);
                        mine.record((pattern, seed), answer, judge);
                    }
                    mine
                })
            })
            .collect();
        for thread in threads {
            all.merge(thread.join().expect("a load generator thread panicked"));
        }
    });
    all.wall_s = start.elapsed().as_secs_f64();
    all
}

/// Per-pattern reference counts from a plain `Engine` estimate starting at
/// `first`: a job with seed `first + j` must report trials `j .. j+budget`.
fn references(
    graph: &Arc<CsrGraph>,
    queries: &[PlannedQuery],
    first: u64,
    trials: &[usize],
    tally: &mut Tally,
) -> Vec<Vec<u64>> {
    let engine = Engine::from_shared(Arc::clone(graph));
    queries
        .iter()
        .zip(trials)
        .map(|(q, &trials)| {
            let estimate = engine.count(&q.query).seed(first).trials(trials).estimate();
            tally.check(estimate.is_ok(), || {
                format!("{}: reference estimate failed", q.name)
            });
            estimate.map(|e| e.per_trial).unwrap_or_default()
        })
        .collect()
}

pub fn run(cfg: &RunConfig, env: &Environment, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let patterns = SERVE_PATTERNS.len();

    let mut bound = first_set_up(&mut outcome, || set_up(cfg, env, &mut tally));
    let (mut generate, mut connect) = (vec![bound.generate_ms], vec![bound.connect_us]);
    outcome.note("graph", graph_note(&bound.graph));
    outcome.note(
        "server",
        format!(
            "{} workers, {} connections, budget {JOB_BUDGET}",
            workers(env),
            env.nproc
        ),
    );

    let queries: Vec<PlannedQuery> = SERVE_PATTERNS
        .iter()
        .map(|&text| PlannedQuery::parse(text))
        .collect();
    let first = first_seed(cfg);
    let service_before = bound.server.service().metrics();
    let server_before = bound.server.stats();
    let stages_before = stage_totals_ns();
    let seconds = if cfg.trace {
        cfg.seconds * 0.6
    } else {
        cfg.seconds
    };

    // Phase 1: distinct jobs at the fixed rate.
    let schedule = open_loop_schedule(
        cfg.seed,
        OPEN_LOOP_RATE,
        seconds * OPEN_SHARE,
        patterns,
        first,
    );
    let service = bound.server.service();
    let depth = || service.metrics().queue_depth;
    outcome.timed_section_starts();
    let mut open = open_loop(&mut bound.clients[0], &schedule, tracer, &depth);

    // Phase 2: distinct jobs back to back, on from the seeds phase 1 used.
    // `used[p]`: seeds used so far of pattern `p`; its next job takes
    // `first + used[p]`.
    let mut used = vec![0usize; patterns];
    schedule.iter().for_each(|a| used[a.pattern] += 1);
    let offset = used.clone();
    let cold_job = |j: usize| {
        (
            j % patterns,
            first + (offset[j % patterns] + j / patterns) as u64,
        )
    };
    let mut closed = closed_loop(
        &mut bound.clients,
        seconds * CLOSED_SHARE,
        tracer,
        &cold_job,
        None,
        &depth,
    );
    let rounds = closed.requests.div_ceil(patterns);
    used.iter_mut().for_each(|u| *u += rounds);
    // The program's stage totals grow with computed jobs: read them before
    // the hits dilute the per-request figures.
    let stages_after_cold = cfg.trace.then(stage_totals_ns);

    // Phase 3: the jobs phase 2 completed last, again and again. Each hit is
    // judged as it arrives against what the same job answered when it was
    // computed (and that answer against a plain `Engine` below), so nothing
    // is kept per request.
    let hot_jobs = cfg.sizes.hot_jobs.min(closed.requests).max(1);
    let hot_first = closed.requests.saturating_sub(hot_jobs);
    let hot_job = |i: usize| cold_job(hot_first + i % hot_jobs);
    let hot = {
        let computed: HashMap<(usize, u64), &[u64]> = closed
            .pending
            .iter()
            .map(|(pattern, seed, counts, _)| ((*pattern, *seed), counts.as_slice()))
            .collect();
        let hit_judge = |pattern: usize, seed: u64, counts: &[u64], from_cache: bool| {
            let want = computed.get(&(pattern, seed)).copied();
            if want == Some(counts) && from_cache {
                Ok(())
            } else {
                Err(format!(
                    "{} seed {seed}: got {counts:?} (cache hit {from_cache}), computed before as {want:?}",
                    SERVE_PATTERNS[pattern]
                ))
            }
        };
        let mut hot = closed_loop(
            &mut bound.clients[..1],
            seconds * HOT_SHARE,
            tracer,
            &hot_job,
            Some(&hit_judge),
            &depth,
        );
        outcome.timed_section_ended();
        hot.settle(&hit_judge, &mut tally);
        hot
    };

    // The references are computed after the loops, once the seeds they
    // reached are known.
    let trials: Vec<usize> = used
        .iter()
        .map(|u| (u + JOB_BUDGET).max(CHECKSUM_TRIALS))
        .collect();
    let reference = references(&bound.graph, &queries, first, &trials, &mut tally);
    let cold_judge = |pattern: usize, seed: u64, counts: &[u64], from_cache: bool| {
        let j = (seed - first) as usize;
        let want = reference[pattern].get(j..j + JOB_BUDGET);
        if Some(counts) == want && !from_cache {
            Ok(())
        } else {
            Err(format!(
                "{} seed {seed}: got {counts:?} (cache hit {from_cache}), reference {want:?}",
                SERVE_PATTERNS[pattern]
            ))
        }
    };
    open.settle(&cold_judge, &mut tally);
    closed.settle(&cold_judge, &mut tally);
    outcome.note(
        "open_loop",
        format!(
            "{} distinct jobs at {OPEN_LOOP_RATE} req/s on one connection, evenly spaced, timed from the due instant; sent late by p50 {:.3} ms, p95 {:.3} ms",
            open.requests,
            median(&open.late_ms),
            quantile(&open.late_ms, 0.95)
        ),
    );
    outcome.note(
        "closed_loop",
        format!(
            "{} distinct jobs in {:.2} s over {} connections",
            closed.requests, closed.wall_s, env.nproc
        ),
    );
    outcome.note(
        "hot_loop",
        format!(
            "{} repeats of {hot_jobs} cached jobs in {:.2} s on one connection: {:.0} hits/s",
            hot.requests,
            hot.wall_s,
            hot.completion_rate()
        ),
    );
    outcome.layer("bench.late_ms_p95", quantile(&open.late_ms, 0.95));
    outcome.ops = closed.requests as u64;
    outcome.ops_wall_s = closed.wall_s;
    // Ten classes that weigh the same in `op_ms_p50`: every pattern computed
    // (from the due instant) and every pattern served from the cache. The
    // tail is that of the computed jobs.
    let cold = open.due_ms.summary();
    let hit = hot.sent_ms.summary();
    let class_medians = cold
        .class_medians
        .iter()
        .chain(&hit.class_medians)
        .copied()
        .collect();
    outcome.latency = LatencySummary::new(class_medians, cold.tail_ms);
    let computed_requests = open.requests + closed.requests;
    let requests = computed_requests + hot.requests;

    let mut checksum = Checksum::default();
    for r in &reference {
        checksum.extend(&r[..CHECKSUM_TRIALS.min(r.len())]);
    }
    outcome.checksum = checksum;
    // serial ≡ sharded ≡ batch ≡ service on this workload's own inputs (the
    // wire joined the chain above, request by request). Like the references,
    // after the timed section: what the checks allocate is not resident while
    // `peak_rss_mb` is taken.
    let light = if cfg.smoke { patterns } else { 2 };
    cross_path(
        &bound.graph,
        &Engine::from_shared(Arc::clone(&bound.graph)),
        &queries,
        mix(cfg.seed, 0xC055, 0),
        env.nproc,
        light,
        &mut tally,
    );

    if let Some(stages_after_cold) = stages_after_cold {
        record_stage_ms(
            &mut outcome,
            &stages_before,
            &stages_after_cold,
            computed_requests as u64,
        );
        let service_after = bound.server.service().metrics();
        let server_after = bound.server.stats();
        let hits = (service_after.cache_hits - service_before.cache_hits) as f64;
        let misses = (service_after.cache_misses - service_before.cache_misses) as f64;
        outcome.layer("service.cache_hit_share", hits / (hits + misses).max(1.0));
        outcome.layer(
            "service.jobs_rejected",
            (service_after.jobs_rejected - service_before.jobs_rejected) as f64,
        );
        let depth_max = open.depth_max.max(closed.depth_max).max(hot.depth_max);
        outcome.layer("service.queue_depth_max", depth_max as f64);
        outcome.layer(
            "net.frames_per_job",
            (server_after.frames_written - server_before.frames_written) as f64
                / requests.max(1) as f64,
        );
        let ping: Vec<f64> = (0..50)
            .map(|_| timed(|| bound.clients[0].stats()).1 * 1e6)
            .collect();
        outcome.layer("net.ping_us", median(&ping));
        let service_hit_us = service_layers(cfg, &bound.graph, &queries, &mut outcome, &mut tally);
        let hit_ms = hot.sent_ms.pooled();
        outcome.layer("net.hit_us_p99", hit_ms.quantile(0.99) * 1e3);
        outcome.layer(
            "net.wire_over_service_us",
            hit_ms.quantile(0.5) * 1e3 - service_hit_us,
        );
        // A short untraced stretch of the back-to-back loop prices the
        // recorder (its jobs continue past the seeds used so far; only their
        // completion is checked).
        let quiet = Tracer::new(false);
        let more_cold = |j: usize| {
            (
                j % patterns,
                first + (used[j % patterns] + JOB_BUDGET + j / patterns) as u64,
            )
        };
        let plain = closed_loop(
            &mut bound.clients,
            cfg.seconds * 0.15,
            &quiet,
            &more_cold,
            None,
            &depth,
        );
        tally.check(
            plain.failures.is_empty() && plain.pending.len() == plain.requests,
            || format!("untraced stretch: {:?}", plain.failures.first()),
        );
        outcome.layer(
            "bench.trace_overhead_pct",
            100.0 * (plain.completion_rate() / closed.completion_rate() - 1.0),
        );
    }

    let graph = Arc::clone(&bound.graph);
    drop(bound);
    more_set_ups(
        cfg,
        &mut outcome,
        || set_up(cfg, env, &mut tally),
        |b| {
            generate.push(b.generate_ms);
            connect.push(b.connect_us);
        },
    );
    outcome.layer("gen.generate_ms", median(&generate));
    outcome.layer("net.connect_us", median(&connect));
    if cfg.trace {
        micro::graph_layers(&graph, &queries, &mut outcome);
    }
    outcome.tally.absorb(tally);
    outcome
}

/// The service layer without the wire: submit, cache hit, cold job and time
/// to the first chunk on an in-process `Service` over the same graph, and
/// what the service adds to a plain `Engine` estimate of the same job.
/// Returns the in-process hit latency in µs.
fn service_layers(
    cfg: &RunConfig,
    graph: &Arc<CsrGraph>,
    queries: &[PlannedQuery],
    outcome: &mut Outcome,
    tally: &mut Tally,
) -> f64 {
    let service = Service::with_config(
        Arc::clone(graph),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let engine = Engine::from_shared(Arc::clone(graph));
    let base = mix(cfg.seed, 0x5E4, 0) & 0xFFFF_FFFF;
    let rounds = if cfg.smoke { 1 } else { 4 };
    let (mut submit_us, mut cold_ms, mut engine_ms, mut first_ms, mut hit_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds as u64 {
        for q in queries {
            let job = |seed: u64| CountJob::new(q.query.clone()).seed(seed).budget(JOB_BUDGET);
            let seed = base + 16 * round;
            let (handle, s) = timed(|| service.submit(job(seed)));
            submit_us.push(s * 1e6);
            let (served, s2) = timed(|| handle.and_then(|h| h.wait()));
            cold_ms.push((s + s2) * 1e3);
            let (plain, s) = timed(|| {
                engine
                    .count(&q.query)
                    .seed(seed)
                    .trials(JOB_BUDGET)
                    .parallel(false)
                    .estimate()
            });
            engine_ms.push(s * 1e3);
            let served = served.ok().map(|o| o.estimate.per_trial);
            tally.check(
                served.is_some() && served == plain.ok().map(|e| e.per_trial),
                || format!("{}: Service::submit differs from Engine::estimate", q.name),
            );
            for _ in 0..20 {
                let (again, s) = timed(|| service.run(job(seed)));
                hit_us.push(s * 1e6);
                tally.check(again.is_ok_and(|o| o.from_cache), || {
                    format!("{}: repeat was not a hit", q.name)
                });
            }
            let started = Instant::now();
            let first_chunk = Arc::new(Mutex::new(None));
            let seen = Arc::clone(&first_chunk);
            let progress = Arc::new(move |_: &subgraph_counting::ChunkUpdate| {
                seen.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .get_or_insert(started.elapsed().as_secs_f64() * 1e3);
            });
            let streamed = service
                .submit_with_progress(job(seed + 8), progress)
                .and_then(|h| h.wait());
            tally.check(streamed.is_ok(), || {
                format!("{}: streamed job failed", q.name)
            });
            let seen = *first_chunk.lock().unwrap_or_else(|p| p.into_inner());
            first_ms.extend(seen);
        }
    }
    service.shutdown();
    outcome.layer("service.submit_us", median(&submit_us));
    outcome.layer("service.hit_us", median(&hit_us));
    outcome.layer("service.cold_job_ms", median(&cold_ms));
    outcome.layer("service.first_chunk_ms", median(&first_ms));
    let (cold, plain): (f64, f64) = (cold_ms.iter().sum(), engine_ms.iter().sum());
    outcome.layer("service.overhead_pct", 100.0 * (cold - plain) / plain);
    median(&hit_us)
}
