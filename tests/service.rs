//! Integration tests of the `sgc-service` layer through the facade crate:
//! the adaptive scheduler's determinism contract (anytime consistency with
//! the batch engine API), early stopping under a precision target, and
//! result-cache correctness under concurrent identical submissions.

use std::sync::Arc;
use subgraph_counting::gen::erdos_renyi::gnp;
use subgraph_counting::graph::CsrGraph;
use subgraph_counting::query::catalog;
use subgraph_counting::{
    CountJob, Engine, Precision, Service, ServiceConfig, ServiceError, StopReason,
};

fn service_graph() -> Arc<CsrGraph> {
    Arc::new(gnp(60, 0.12, 42))
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 64,
        chunk_trials: 4,
        ..ServiceConfig::default()
    }
}

/// Acceptance: for a fixed seed, an early-stopped estimate equals a
/// fixed-trial estimate run for exactly the number of trials executed
/// (trial `i` still colors with `seed + i`).
#[test]
fn early_stopped_jobs_are_anytime_consistent_with_the_batch_api() {
    let graph = service_graph();
    let service = Service::with_config(Arc::clone(&graph), config(2));

    for (query, name) in [
        (catalog::triangle(), "triangle"),
        (catalog::cycle(4), "square"),
    ] {
        let output = service
            .run(
                CountJob::new(query.clone())
                    .seed(500)
                    .budget(200)
                    .precision(Precision::within(0.4)),
            )
            .unwrap();
        assert!(output.trials_run >= 1);

        // A plain batch estimate of exactly `trials_run` trials — through a
        // *fresh* engine, so the equality also covers engine construction.
        let batch = Engine::new(&graph)
            .count(&query)
            .trials(output.trials_run)
            .seed(500)
            .estimate()
            .unwrap();
        assert_eq!(
            output.estimate.per_trial, batch.per_trial,
            "{name}: early-stopped per-trial counts must equal a batch run \
             of the same length"
        );
        assert_eq!(
            output.estimate.estimated_matches.to_bits(),
            batch.estimated_matches.to_bits(),
            "{name}: scaled estimates must be bit-identical"
        );
        assert_eq!(
            output.estimate.variance.to_bits(),
            batch.variance.to_bits(),
            "{name}: precision statistics must be bit-identical"
        );
    }
}

/// Acceptance: a precision-satisfied job reports fewer trials than the
/// budget on at least one catalog query.
#[test]
fn precision_targets_save_trials_on_catalog_queries() {
    let graph = service_graph();
    let service = Service::with_config(graph, config(2));
    let budget = 300;
    let mut stopped_early_somewhere = false;

    for query in [catalog::triangle(), catalog::cycle(4), catalog::glet1()] {
        let output = service
            .run(
                CountJob::new(query)
                    .seed(1234)
                    .budget(budget)
                    .precision(Precision::within(0.5)),
            )
            .unwrap();
        assert!(output.trials_run <= budget);
        if output.stop == StopReason::PrecisionMet && output.trials_run < budget {
            stopped_early_somewhere = true;
            // The reported estimate must actually satisfy the target it
            // claims to have met.
            assert!(output.estimate.relative_half_width(0.95) <= 0.5);
        }
    }
    assert!(
        stopped_early_somewhere,
        "a ±50% target should stop at least one catalog query before 300 trials"
    );
    let metrics = service.metrics();
    assert!(metrics.trials_saved > 0);
    assert_eq!(metrics.jobs_completed, 3);

    // Determinism of the scheduler itself: a fresh service stops the same
    // job after exactly the same number of trials.
    let service2 = Service::with_config(service_graph(), config(1));
    let a = service2
        .run(
            CountJob::new(catalog::triangle())
                .seed(1234)
                .budget(budget)
                .precision(Precision::within(0.5)),
        )
        .unwrap();
    let b = Service::with_config(service_graph(), config(4))
        .run(
            CountJob::new(catalog::triangle())
                .seed(1234)
                .budget(budget)
                .precision(Precision::within(0.5)),
        )
        .unwrap();
    assert_eq!(a.trials_run, b.trials_run);
    assert_eq!(a.estimate.per_trial, b.estimate.per_trial);
}

/// Jobs without a precision target run their whole budget, and the result
/// equals the batch API bit for bit.
#[test]
fn unbounded_jobs_exhaust_the_budget_and_match_the_engine() {
    let graph = service_graph();
    let service = Service::with_config(Arc::clone(&graph), config(3));
    let output = service
        .run(CountJob::new(catalog::glet1()).seed(77).budget(20))
        .unwrap();
    assert_eq!(output.trials_run, 20);
    assert_eq!(output.stop, StopReason::BudgetExhausted);
    let batch = service
        .engine()
        .count(&catalog::glet1())
        .trials(20)
        .seed(77)
        .estimate()
        .unwrap();
    assert_eq!(output.estimate.per_trial, batch.per_trial);
}

/// Acceptance: N threads submitting the identical job produce one
/// computation (hit-rate metric ≥ N−1 hits) and all receive bit-identical
/// results.
#[test]
fn concurrent_identical_jobs_compute_once_and_agree_bitwise() {
    const N: usize = 12;
    let service = Service::with_config(service_graph(), config(4));
    let job = CountJob::new(catalog::triangle())
        .seed(9)
        .budget(60)
        .precision(Precision::within(0.3));

    let outputs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let service = &service;
                let job = job.clone();
                scope.spawn(move || service.run(job).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = &outputs[0];
    for output in &outputs[1..] {
        assert_eq!(output.estimate.per_trial, reference.estimate.per_trial);
        assert_eq!(
            output.estimate.estimated_matches.to_bits(),
            reference.estimate.estimated_matches.to_bits()
        );
        assert_eq!(output.trials_run, reference.trials_run);
        assert_eq!(output.stop, reference.stop);
    }
    // Exactly one submission computed; every other was a cache hit (served
    // from the completed entry or joined onto the in-flight computation).
    assert_eq!(outputs.iter().filter(|o| !o.from_cache).count(), 1);

    let metrics = service.metrics();
    assert_eq!(metrics.cache_misses, 1, "one computation for {N} twins");
    assert!(
        metrics.cache_hits >= (N - 1) as u64,
        "expected at least {} hits, saw {}",
        N - 1,
        metrics.cache_hits
    );
    assert_eq!(metrics.jobs_completed, N as u64);
    assert_eq!(metrics.trials_executed, reference.trials_run as u64);
    assert_eq!(metrics.cached_results, 1);
}

/// Admission control: a full queue is a typed rejection, and shutdown is a
/// typed rejection, never a hang or a panic.
#[test]
fn admission_control_and_shutdown_are_typed() {
    let service = Service::with_config(
        service_graph(),
        ServiceConfig {
            workers: 0, // accept-only: the queue fills deterministically
            queue_capacity: 3,
            chunk_trials: 4,
            ..ServiceConfig::default()
        },
    );
    let mut handles = Vec::new();
    for seed in 0..3 {
        handles.push(
            service
                .submit(CountJob::new(catalog::triangle()).seed(seed))
                .unwrap(),
        );
    }
    assert_eq!(
        service
            .submit(CountJob::new(catalog::triangle()).seed(99))
            .unwrap_err(),
        ServiceError::QueueFull { capacity: 3 }
    );
    let metrics = service.metrics();
    assert_eq!(metrics.queue_depth, 3);
    assert_eq!(metrics.jobs_rejected, 1);

    service.shutdown();
    for handle in handles {
        assert!(matches!(handle.wait(), Err(ServiceError::ShuttingDown)));
    }
    assert_eq!(
        service
            .submit(CountJob::new(catalog::triangle()))
            .unwrap_err(),
        ServiceError::ShuttingDown
    );
}

/// Counting errors surface through the handle; distinct precision targets
/// are distinct cache keys.
#[test]
fn error_jobs_and_key_separation() {
    let service = Service::with_config(service_graph(), config(2));
    // Unplannable query.
    let mut k4 = subgraph_counting::query::QueryGraph::new(4);
    for a in 0..4u8 {
        for b in (a + 1)..4 {
            k4.add_edge(a, b).unwrap();
        }
    }
    assert!(matches!(
        service.run(CountJob::new(k4)).unwrap_err(),
        ServiceError::Count(subgraph_counting::SgcError::Query(_))
    ));

    // Same query/seed/budget at two precision targets: both compute (the
    // key includes the target), and the tighter target runs at least as
    // many trials.
    let loose = service
        .run(
            CountJob::new(catalog::triangle())
                .seed(5)
                .budget(150)
                .precision(Precision::within(0.6)),
        )
        .unwrap();
    let tight = service
        .run(
            CountJob::new(catalog::triangle())
                .seed(5)
                .budget(150)
                .precision(Precision::within(0.15)),
        )
        .unwrap();
    assert!(!loose.from_cache);
    assert!(!tight.from_cache);
    assert!(tight.trials_run >= loose.trials_run);
    // The shorter run is a strict prefix of the longer one: same seed, same
    // per-trial contract.
    assert_eq!(
        loose.estimate.per_trial[..],
        tight.estimate.per_trial[..loose.trials_run]
    );
}

/// The determinism matrix, service axis: one seed must yield bit-identical
/// estimates across worker counts {1, 4}, all agreeing with the raw engine
/// baseline.
#[test]
fn determinism_matrix_workers_agree_with_the_engine() {
    let graph = service_graph();
    let jobs = [
        CountJob::new(catalog::triangle()).seed(77).budget(6),
        CountJob::new(catalog::cycle(4)).seed(77).budget(6),
        CountJob::new(catalog::glet1()).seed(123).budget(4),
    ];
    // Engine baseline: the determinism contract every cell must hit.
    let engine = Engine::from_shared(Arc::clone(&graph));
    let baselines: Vec<_> = jobs
        .iter()
        .map(|job| {
            engine
                .count(&job.query)
                .trials(job.budget)
                .seed(job.seed)
                .estimate()
                .unwrap()
        })
        .collect();
    for workers in [1usize, 4] {
        // A fresh service (fresh cache: everything actually computes).
        let service = Service::with_config(Arc::clone(&graph), config(workers));
        for (job, baseline) in jobs.iter().zip(&baselines) {
            let output = service.run(job.clone()).unwrap();
            assert_eq!(
                output.estimate.per_trial, baseline.per_trial,
                "{workers} workers, seed {}",
                job.seed
            );
            assert_eq!(
                output.estimate.estimated_matches.to_bits(),
                baseline.estimated_matches.to_bits(),
                "{workers} workers, seed {}",
                job.seed
            );
        }
    }
}

/// Jobs in flight together stay independent: a fixed-budget job streams
/// one update per chunk (each bit-identical to a fixed-budget run of that
/// many trials), a job cancelled mid-run stops at a chunk boundary while
/// the others complete, and every job's trace-log entry carries its stage
/// breakdown and its real outcome.
#[test]
fn jobs_stream_progress_cancel_alone_and_are_traced() {
    use std::sync::{mpsc, Mutex};
    use subgraph_counting::service::ProgressFn;
    use subgraph_counting::{CancelToken, ChunkUpdate};

    let graph = service_graph();
    let service = Service::with_config(Arc::clone(&graph), config(1));
    let streamed = CountJob::new(catalog::triangle())
        .seed(5)
        .budget(12)
        .trace(41);
    let cancelled = CountJob::new(catalog::cycle(4))
        .seed(5)
        .budget(4000)
        .trace(42);
    let sibling = CountJob::new(catalog::glet1()).seed(6).budget(8).trace(43);

    let updates: Arc<Mutex<Vec<ChunkUpdate>>> = Arc::default();
    let sink = Arc::clone(&updates);
    let collect: ProgressFn = Arc::new(move |update: &ChunkUpdate| {
        sink.lock().unwrap().push(update.clone());
    });
    // The second job cancels itself from its own first update. The watcher
    // blocks until the token arrives, so the cancel lands at the first chunk
    // boundary whatever the scheduling.
    let (send_token, token) = mpsc::channel::<CancelToken>();
    let token = Mutex::new(token);
    let cancel_self: ProgressFn = Arc::new(move |_: &ChunkUpdate| {
        if let Ok(token) = token.lock().unwrap().recv() {
            token.cancel();
        }
    });

    let handles = vec![
        service.submit_with_progress(streamed, collect).unwrap(),
        service
            .submit_with_progress(cancelled, cancel_self)
            .unwrap(),
        service.submit(sibling).unwrap(),
    ];
    send_token.send(handles[1].cancel_token()).unwrap();
    drop(send_token);
    let outputs: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();

    // One update per chunk of four, each the fixed-budget run of its length.
    let engine = Engine::new(&graph);
    let updates = updates.lock().unwrap();
    let seen: Vec<usize> = updates.iter().map(|u| u.trials_run).collect();
    assert_eq!(seen, vec![4, 8, 12]);
    for update in updates.iter() {
        let fixed = engine
            .count(&catalog::triangle())
            .trials(update.trials_run)
            .seed(5)
            .estimate()
            .unwrap();
        assert_eq!(update.budget, 12);
        assert_eq!(update.estimate.per_trial, fixed.per_trial);
        assert_eq!(
            update.estimate.estimated_matches.to_bits(),
            fixed.estimated_matches.to_bits()
        );
        assert_eq!(update.estimate.variance.to_bits(), fixed.variance.to_bits());
    }

    // The cancelled job stopped after its first chunk; its partial
    // estimate is the fixed-budget run of the trials that completed.
    assert_eq!(outputs[1].stop, StopReason::Cancelled);
    assert_eq!(outputs[1].trials_run, 4);
    let partial = engine
        .count(&catalog::cycle(4))
        .trials(4)
        .seed(5)
        .estimate()
        .unwrap();
    assert_eq!(outputs[1].estimate.per_trial, partial.per_trial);
    // The others ran their whole budgets.
    for (output, budget) in [(&outputs[0], 12), (&outputs[2], 8)] {
        assert_eq!(output.stop, StopReason::BudgetExhausted);
        assert_eq!(output.trials_run, budget);
    }
    assert_eq!(service.metrics().jobs_cancelled, 1);

    // Every job has a trace entry with its own outcome and the stages its
    // worker spent time in.
    let report = service.trace_report();
    for (trace_id, outcome) in [
        (41, "outcome=budget_exhausted trials=12"),
        (42, "outcome=cancelled trials=4"),
        (43, "outcome=budget_exhausted trials=8"),
    ] {
        let mut lines = report
            .lines()
            .skip_while(|line| !line.starts_with(&format!("trace_id={trace_id} ")));
        let header = lines.next().expect("every job is traced");
        assert!(header.contains(outcome), "{header}");
        let stages: Vec<&str> = lines.take_while(|l| l.starts_with("  stage=")).collect();
        assert!(
            stages.iter().any(|l| l.contains("stage=dp.block.columnar")),
            "trace {trace_id} has no stage breakdown: {report}"
        );
    }
}
