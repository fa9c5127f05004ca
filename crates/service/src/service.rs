//! The counting service: bounded queue, worker pool, adaptive trial loop.
//!
//! One [`Service`] binds one data graph (through
//! [`Engine::from_shared`](sgc_core::Engine::from_shared), so the expensive
//! preprocessing runs exactly once) and serves concurrent [`CountJob`]s:
//!
//! * **admission control** — the work queue is bounded; a full queue rejects
//!   with [`ServiceError::QueueFull`] instead of growing without limit.
//!   Every job the service runs — a submission, a versioned job, a watch
//!   emission — is admitted through the one path and run by a worker,
//! * **adaptive scheduling** — each job's trials run in fixed-size chunks
//!   through an engine's incremental
//!   [`TrialStream`](sgc_core::TrialStream): on the bound graph's
//!   engine for a plain job; for a job pinned to a graph version, every
//!   trial its parent version's identical job ran is recounted from the
//!   ball around the version's delta and any other runs, sharded, on the
//!   version's engine. After every chunk the job's confidence interval is
//!   checked against its [`Precision`](crate::job::Precision) target and the
//!   job stops as soon as the target is met (or the budget runs out). One
//!   loop serves every job: plain, versioned, watch emission,
//! * **result caching** — deterministic jobs are memoized and
//!   single-flighted (see [`crate::cache`]); identical submissions are
//!   served without recomputation, bit-identically,
//! * **live watches** — [`Service::apply_delta`] mints a version, schedules
//!   one re-emission per idle watcher and returns; each emission's callback
//!   runs on the thread that completes it. A watcher has at most one
//!   emission queued or running, so a delta that lands meanwhile only
//!   raises the version it is owed, and the next emission counts the
//!   newest version (latest-version-wins), recounting from the nearest
//!   version its job was counted at.

use crate::cache::{Claim, JobKey, ResultCache};
use crate::error::ServiceError;
use crate::job::{ChunkUpdate, CountJob, JobHandle, JobOutput, JobState, ProgressFn, StopReason};
use crate::metrics::{Counters, ServiceMetrics};
use sgc_core::estimator::summarize_trials;
use sgc_core::prelude::Count;
use sgc_core::{DeltaBall, Engine, SgcError};
use sgc_dyn::{Version, VersionId, VersionedGraph};
use sgc_graph::{CsrGraph, EdgeDelta};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// Construction-time configuration of a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue. `0` is allowed and means "accept
    /// but never process" — useful for inspecting admission control; real
    /// deployments want at least 1. Watch emissions are jobs too, and their
    /// callbacks run on these threads: with no worker, [`Service::watch`]
    /// waits until [`Service::shutdown`] fails its initial emission with
    /// [`ServiceError::ShuttingDown`], and re-emissions are never delivered.
    pub workers: usize,
    /// Maximum number of jobs waiting in the queue before submissions are
    /// rejected with [`ServiceError::QueueFull`]. Watch re-emissions are not
    /// held to it: each watcher has at most one emission queued or running,
    /// so they add at most one entry per live watcher, and a delta is never
    /// refused for them. A watch's initial emission is.
    pub queue_capacity: usize,
    /// Trials per scheduling chunk: the granularity at which the adaptive
    /// loop re-checks a job's precision target. Clamped to at least 1.
    pub chunk_trials: usize,
    /// Maximum completed results the single-flight cache retains. With
    /// versioned graphs every delta mints fresh cache keys, so the cache
    /// is LRU-bounded; evictions are counted in
    /// [`ServiceMetrics::cache_evictions`]. Clamped to at least 1.
    pub cache_capacity: usize,
    /// Shard count the whole-graph trials of versioned jobs (`submit_at` /
    /// `watch`) run with; a trial recounted from its delta's ball runs
    /// unsharded. Clamped to at least 1.
    pub dyn_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
            chunk_trials: 8,
            cache_capacity: 256,
            dyn_shards: 4,
        }
    }
}

/// Completed jobs the slow-query log retains (the `trace` net verb's
/// payload); older entries are evicted first.
const TRACE_LOG_CAPACITY: usize = 64;

/// One queue slot: a job, the completion slot its [`JobHandle`] waits on,
/// and the graph version it is pinned to, if any.
struct QueueEntry {
    job: CountJob,
    state: Arc<JobState>,
    /// `None` for a plain job, which counts on the bound graph; `Some` for a
    /// job that counts on that version, recounting from an ancestor's.
    version: Option<VersionId>,
}

/// A live watch subscription: the job re-run at new versions, the callback
/// its version-tagged chunks are delivered through, and where its one
/// emission stands.
struct Watcher {
    id: u64,
    job: CountJob,
    callback: WatchFn,
    cancelled: Arc<AtomicBool>,
    /// The version of the subscription's one emission queued, running or
    /// being delivered, if any.
    running: Option<VersionId>,
    /// The newest version minted since `running` was queued: the next
    /// emission's, once `running` is delivered.
    owed: Option<VersionId>,
}

/// Callback of a [`watch`](Service::watch) subscription: invoked with the
/// version that landed and the fresh estimate chunk computed at it.
///
/// The initial emission is delivered on the thread that called `watch`;
/// every later one on a worker thread, the one that completed the emission
/// (or, for an emission failed at shutdown, the thread calling
/// [`Service::shutdown`]; a failed emission calls nothing). Calls for one
/// subscription never overlap and arrive in strictly increasing version
/// order, but not at every version: a watcher whose emission is still
/// running when further deltas land is next called at the newest of them
/// only. While a callback runs, its worker runs no trials, so keep it short
/// or bounded — the `sgc-net` server's callback writes one frame, bounded
/// by the connection's write timeout like its per-chunk progress watcher.
/// A panic in the callback loses that delivery only.
pub type WatchFn = Arc<dyn Fn(VersionId, &ChunkUpdate) + Send + Sync>;

/// Handle to a live [`watch`](Service::watch) subscription. Cancelling (or
/// [`Service::unwatch`]) stops future emissions; an emission already
/// being delivered may still reach the callback.
pub struct WatchHandle {
    id: u64,
    cancelled: Arc<AtomicBool>,
}

impl WatchHandle {
    /// The subscription's id, usable with [`Service::unwatch`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stops future emissions for this subscription: an emission queued or
    /// running is computed but not delivered, and none is queued after it.
    /// Returns at once, from any thread (a callback included). The watcher
    /// entry is pruned at the next delta.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }
}

/// Queue state guarded by one mutex: the entries and the shutdown latch.
struct QueueState {
    jobs: VecDeque<QueueEntry>,
    shutdown: bool,
}

/// Everything the workers share.
struct Shared {
    /// The bound graph's engine, which is also the root version's.
    engine: Arc<Engine<'static>>,
    graph_fingerprint: u64,
    queue_capacity: usize,
    chunk_trials: usize,
    dyn_shards: usize,
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: ResultCache,
    counters: Counters,
    traces: sgc_obs::TraceLog,
    /// The version chain rooted at the bound graph. A versioned job holds
    /// the read lock only to look versions up, never while it builds a
    /// ball, binds an engine or runs trials; `apply_delta` takes the write
    /// lock, so mutation never waits for a job.
    dynamic: RwLock<VersionedGraph>,
    watchers: Mutex<Vec<Watcher>>,
    watch_ids: AtomicU64,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_watchers(&self) -> std::sync::MutexGuard<'_, Vec<Watcher>> {
        self.watchers.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn versions(&self) -> std::sync::RwLockReadGuard<'_, VersionedGraph> {
        self.dynamic.read().unwrap_or_else(|p| p.into_inner())
    }

    /// The one admission path: validates every job, mints missing trace
    /// IDs (at submission, unless the client propagated one over the wire,
    /// so even a rejected or cancelled job has an identity in the logs),
    /// and queues all of them or none under one lock acquisition, each
    /// with its state from `states` (one per job).
    ///
    /// Trace IDs are minted into `jobs` in place, so a caller that queues
    /// the same job again (a watch subscription, at every emission) keeps
    /// one identity across its runs. `bounded` holds the jobs to the queue
    /// capacity; only watch re-emissions, at most one per watcher, skip
    /// it. `version` names the graph version the jobs are pinned to; it is
    /// called under the queue lock once shutdown and capacity have passed,
    /// so a version it mints (`apply_delta`) exists only if its jobs are
    /// queued, and its error admits nothing.
    fn admit(
        &self,
        jobs: &mut [CountJob],
        states: Vec<JobState>,
        bounded: bool,
        version: impl FnOnce() -> Result<Option<VersionId>, ServiceError>,
    ) -> Result<Vec<JobHandle>, ServiceError> {
        for job in jobs.iter_mut() {
            if let Some(precision) = &job.precision {
                precision.validate()?;
            }
            if job.trace_id.is_none() {
                job.trace_id = Some(sgc_obs::next_trace_id());
            }
        }
        let count = jobs.len();
        let states: Vec<Arc<JobState>> = states.into_iter().map(Arc::new).collect();
        {
            let mut queue = self.lock_queue();
            if queue.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if bounded && queue.jobs.len() + count > self.queue_capacity {
                Counters::add(&self.counters.jobs_rejected, count as u64);
                return Err(ServiceError::QueueFull {
                    capacity: self.queue_capacity,
                });
            }
            let version = version()?;
            Counters::add(&self.counters.jobs_submitted, count as u64);
            for (job, state) in jobs.iter().zip(&states) {
                queue.jobs.push_back(QueueEntry {
                    job: job.clone(),
                    state: Arc::clone(state),
                    version,
                });
            }
        }
        for _ in 0..count {
            self.available.notify_one();
        }
        Ok(states
            .into_iter()
            .map(|state| JobHandle { state })
            .collect())
    }
}

/// A concurrent counting service over one bound data graph.
///
/// See the [crate docs](crate) for the full tour and `Service::submit` for
/// the job lifecycle. Dropping the service shuts it down: queued jobs are
/// still drained by the workers, then the threads are joined.
pub struct Service {
    shared: Arc<Shared>,
    /// Worker thread handles, drained (under the lock, so concurrent
    /// shutdowns serialize) by [`shutdown`](Service::shutdown).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Starts a service for `graph` with the default [`ServiceConfig`].
    ///
    /// Binding runs the engine's preprocessing pass once; every job shares
    /// it.
    pub fn new(graph: Arc<CsrGraph>) -> Self {
        Service::with_config(graph, ServiceConfig::default())
    }

    /// Starts a service for `graph` with an explicit configuration.
    pub fn with_config(graph: Arc<CsrGraph>, config: ServiceConfig) -> Self {
        let graph_fingerprint = graph.fingerprint();
        let engine = Arc::new(Engine::from_shared(graph));
        let dynamic = VersionedGraph::from_engine(Arc::clone(&engine));
        let shared = Arc::new(Shared {
            engine,
            graph_fingerprint,
            queue_capacity: config.queue_capacity,
            chunk_trials: config.chunk_trials.max(1),
            dyn_shards: config.dyn_shards.max(1),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            cache: ResultCache::new(config.cache_capacity),
            counters: Counters::default(),
            traces: sgc_obs::TraceLog::new(TRACE_LOG_CAPACITY),
            dynamic: RwLock::new(dynamic),
            watchers: Mutex::new(Vec::new()),
            watch_ids: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sgc-service-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn service worker thread")
            })
            .collect();
        Service {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a job for asynchronous processing.
    ///
    /// Admission is the only blocking step (one short mutex acquisition):
    /// the call returns a [`JobHandle`] immediately and the worker pool
    /// picks the job up in FIFO order. If the job's determinism key matches
    /// a cached or in-flight result, the handle is fulfilled from that
    /// result without recomputation.
    ///
    /// A plain job always counts on the **root** — the graph the service
    /// was bound to — however many deltas [`apply_delta`](Service::apply_delta)
    /// has landed since: its answer is bit-identical to, and shares a cache
    /// slot with, [`submit_at`](Service::submit_at) at
    /// [`root_version`](Service::root_version). Counting at the head (or
    /// any other version) is `submit_at`'s job.
    ///
    /// # Errors
    /// [`ServiceError::QueueFull`] when the bounded queue is at capacity,
    /// [`ServiceError::ShuttingDown`] after [`shutdown`](Service::shutdown),
    /// [`ServiceError::InvalidPrecision`] for an unusable precision target.
    /// Counting-level failures (unplannable query, zero budget, …) are
    /// reported through the handle instead, as
    /// [`ServiceError::Count`].
    pub fn submit(&self, mut job: CountJob) -> Result<JobHandle, ServiceError> {
        self.admit_one(&mut job, None, None)
    }

    /// [`submit`](Service::submit) with a progress watcher: `progress` is
    /// invoked on the worker thread after every completed chunk of trials,
    /// carrying the anytime [`Estimate`](sgc_core::Estimate) over the
    /// trials run so far (see [`ChunkUpdate`]).
    ///
    /// Watchers fire only when the job actually computes — a submission
    /// answered from the result cache (or joined onto an identical
    /// in-flight computation) goes straight to its final output. Every
    /// update is delivered strictly before the handle is fulfilled, so a
    /// caller that streams updates and then waits observes them in order.
    ///
    /// This is the serving primitive behind the `sgc-net` wire protocol's
    /// streamed estimate frames.
    ///
    /// # Errors
    /// Exactly those of [`submit`](Service::submit).
    pub fn submit_with_progress(
        &self,
        mut job: CountJob,
        progress: ProgressFn,
    ) -> Result<JobHandle, ServiceError> {
        self.admit_one(&mut job, Some(progress), None)
    }

    /// Admits one job through the one admission path, held to the queue
    /// capacity.
    fn admit_one(
        &self,
        job: &mut CountJob,
        progress: Option<ProgressFn>,
        version: Option<VersionId>,
    ) -> Result<JobHandle, ServiceError> {
        let state = JobState::with_progress(progress);
        let mut handles =
            self.shared
                .admit(std::slice::from_mut(job), vec![state], true, || Ok(version))?;
        Ok(handles.pop().expect("one job in, one handle out"))
    }

    /// Submits a job and blocks until it completes — submission and
    /// [`JobHandle::wait`] in one call.
    pub fn run(&self, job: CountJob) -> Result<JobOutput, ServiceError> {
        self.submit(job)?.wait()
    }

    /// The root version: the bound graph itself, before any delta. Its id
    /// equals the graph fingerprint, so counting at the root shares cache
    /// slots with plain [`submit`](Service::submit) jobs.
    pub fn root_version(&self) -> VersionId {
        self.shared.versions().root()
    }

    /// The current head version — where [`apply_delta`](Service::apply_delta)
    /// chains the next delta.
    pub fn head_version(&self) -> VersionId {
        self.shared.versions().head()
    }

    /// Whether the service holds `version` in its chain.
    pub fn has_version(&self, version: VersionId) -> bool {
        self.shared.versions().contains(version)
    }

    /// Applies an edge delta to the head snapshot, minting a new version,
    /// and schedules a fresh estimate of it for every live
    /// [`watch`](Service::watch) subscription; returns the new head version
    /// id as soon as that is done, without waiting for any emission.
    ///
    /// A watcher with no emission queued or running gets one queued at the
    /// new version: an ordinary job, so distinct watchers compute side by
    /// side on the worker pool and identical ones share one computation
    /// through the single-flight cache, and its callback runs on the worker
    /// thread that completes it (see [`WatchFn`]). A watcher whose emission
    /// is still in flight is only marked as owing the new version: once the
    /// running emission is delivered, it gets one emission at the newest
    /// version it is owed, and the versions in between are never counted
    /// for it (latest-version-wins; each one skipped counts in
    /// [`ServiceMetrics::watch_emissions_coalesced`]). Re-emissions are
    /// therefore at most one queue entry per watcher, and they are not
    /// held to the queue capacity: a delta is never refused for its
    /// watchers.
    ///
    /// The version is minted under the same queue-lock acquisition that
    /// queues its re-emissions, with the watchers lock held (lock order:
    /// watchers → queue → graph versions); neither lock is ever held while
    /// a job computes or a callback runs, so the mutator's latency does not
    /// depend on how many clients are watching.
    ///
    /// The delta applies copy-on-write over the head's CSR segments:
    /// untouched segments are shared, and versions already minted are
    /// immutable — counting at an old version keeps working after any
    /// number of deltas.
    ///
    /// # Errors
    /// [`ServiceError::Delta`] when the snapshot layer rejects the delta,
    /// [`ServiceError::ShuttingDown`] after shutdown. On every error the
    /// head is unchanged.
    pub fn apply_delta(&self, delta: &EdgeDelta) -> Result<VersionId, ServiceError> {
        let mut watchers = self.shared.lock_watchers();
        watchers.retain(|w| !w.cancelled.load(Ordering::Relaxed));
        let (mut jobs, states): (Vec<CountJob>, Vec<JobState>) = watchers
            .iter()
            .filter(|w| w.running.is_none())
            .map(|w| (w.job.clone(), emission_state(&self.shared, w.id)))
            .unzip();
        let mut minted = None;
        self.shared.admit(&mut jobs, states, false, || {
            let mut dynamic = self
                .shared
                .dynamic
                .write()
                .unwrap_or_else(|p| p.into_inner());
            minted = Some(dynamic.apply_to_head(delta)?);
            Ok(minted)
        })?;
        let version = minted.expect("an admitted delta minted its version");
        for watcher in watchers.iter_mut() {
            if watcher.running.is_none() {
                watcher.running = Some(version);
            } else if watcher.owed.replace(version).is_some() {
                Counters::bump(&self.shared.counters.watch_emissions_coalesced);
            }
        }
        Ok(version)
    }

    /// Submits a job pinned to graph version `version` (see
    /// [`apply_delta`](Service::apply_delta)). Admission follows
    /// [`submit`](Service::submit); the job counts incrementally — every
    /// trial the same job ran at the nearest ancestor version that left it
    /// in the result cache is that count corrected by a recount of the
    /// small ball around the edges changed since — and its output is
    /// bit-identical to a from-scratch run on the version's materialized
    /// graph.
    ///
    /// The version is resolved when the job runs, not at admission: an
    /// unknown version reports [`ServiceError::UnknownVersion`] through the
    /// handle.
    ///
    /// # Errors
    /// Exactly those of [`submit`](Service::submit).
    pub fn submit_at(
        &self,
        version: VersionId,
        mut job: CountJob,
    ) -> Result<JobHandle, ServiceError> {
        self.admit_one(&mut job, None, Some(version))
    }

    /// Counts at a version and blocks: [`submit_at`](Service::submit_at)
    /// plus [`JobHandle::wait`] in one call.
    pub fn count_at(&self, version: VersionId, job: CountJob) -> Result<JobOutput, ServiceError> {
        self.submit_at(version, job)?.wait()
    }

    /// Registers a live watch: `callback` receives an initial estimate
    /// chunk for `job` at the current head, on this thread, before `watch`
    /// returns; then, after every [`apply_delta`](Service::apply_delta), a
    /// fresh version-tagged chunk on a worker thread — at the newest version
    /// minted while the previous emission ran, when deltas outpace it (see
    /// [`WatchFn`]). A re-count starts from the per-trial counts the job
    /// left at the nearest version it was counted at, so a small delta
    /// re-emits after recounting only the ball around the edges changed
    /// since.
    ///
    /// Every emission, the initial one included, is an ordinary job queued
    /// at its version and run by a worker; all of a subscription's emissions
    /// carry one trace ID. Identical watch jobs (and identical `submit_at`
    /// jobs) share one computation through the single-flight cache. The
    /// subscription is registered, with its initial emission in flight,
    /// under the watchers lock that `apply_delta` mints under; the lock is
    /// released before `watch` waits, so deltas keep landing meanwhile and
    /// the first one after the head this emission counts is delivered
    /// next: no watcher misses the head. This is the serving primitive
    /// behind the `sgc-net` `watch` verb.
    ///
    /// # Errors
    /// Those of [`submit`](Service::submit) for the initial emission, and
    /// any counting error of its run (a watch that cannot produce its first
    /// chunk is not registered).
    pub fn watch(&self, mut job: CountJob, callback: WatchFn) -> Result<WatchHandle, ServiceError> {
        let id = self.shared.watch_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let cancelled = Arc::new(AtomicBool::new(false));
        let initial = {
            let mut watchers = self.shared.lock_watchers();
            let head = self.head_version();
            let initial = self.admit_one(&mut job, None, Some(head))?;
            watchers.push(Watcher {
                id,
                job,
                callback,
                cancelled: Arc::clone(&cancelled),
                running: Some(head),
                owed: None,
            });
            initial
        };
        match initial.wait() {
            Ok(output) => deliver(&self.shared, id, Ok(output)),
            Err(e) => {
                self.unwatch(id);
                return Err(e);
            }
        }
        Ok(WatchHandle { id, cancelled })
    }

    /// Removes a watch subscription by id (see [`WatchHandle::id`]), with
    /// [`WatchHandle::cancel`]'s effect on an emission in flight. Unknown
    /// ids are a no-op.
    pub fn unwatch(&self, id: u64) {
        self.shared.lock_watchers().retain(|w| {
            if w.id == id {
                w.cancelled.store(true, Ordering::Relaxed);
            }
            w.id != id
        });
    }

    /// Live watch subscriptions (cancelled-but-unpruned entries included).
    pub fn watch_count(&self) -> usize {
        self.shared.lock_watchers().len()
    }

    /// A snapshot of the service counters.
    pub fn metrics(&self) -> ServiceMetrics {
        let queue_depth = self.shared.lock_queue().jobs.len();
        let watchers = self
            .shared
            .lock_watchers()
            .iter()
            .filter(|w| !w.cancelled.load(Ordering::Relaxed))
            .count();
        self.shared.counters.snapshot(
            queue_depth,
            self.shared.cache.ready_entries(),
            self.shared.cache.evictions(),
            watchers,
        )
    }

    /// The unified metrics exposition: publishes the current
    /// [`ServiceMetrics`] snapshot into the process-wide `sgc-obs` registry
    /// under `service_*` names (as gauges — the snapshot is already
    /// cumulative) and renders the whole registry as sorted `name value`
    /// lines. This is the payload of the `metrics` net verb.
    pub fn exposition(&self) -> String {
        let snapshot = self.metrics();
        let registry = sgc_obs::global();
        registry.gauge_set("service_jobs_submitted", snapshot.jobs_submitted);
        // Kept under the append-only name contract; nothing submits batches.
        registry.gauge_set("service_batches_submitted", 0);
        registry.gauge_set("service_jobs_rejected", snapshot.jobs_rejected);
        registry.gauge_set("service_jobs_completed", snapshot.jobs_completed);
        registry.gauge_set("service_jobs_cancelled", snapshot.jobs_cancelled);
        registry.gauge_set("service_queue_depth", snapshot.queue_depth as u64);
        registry.gauge_set("service_cache_hits", snapshot.cache_hits);
        registry.gauge_set("service_cache_misses", snapshot.cache_misses);
        registry.gauge_set("service_cached_results", snapshot.cached_results as u64);
        registry.gauge_set("service_trials_executed", snapshot.trials_executed);
        registry.gauge_set("service_trials_saved", snapshot.trials_saved);
        registry.gauge_set("service_cache_evictions", snapshot.cache_evictions);
        registry.gauge_set("service_watchers", snapshot.watchers as u64);
        registry.gauge_set(
            "service_watch_emissions_coalesced",
            snapshot.watch_emissions_coalesced,
        );
        registry.render()
    }

    /// Renders the slow-query trace log (slowest recent job first); the
    /// payload of the `trace` net verb. See [`sgc_obs::TraceLog::render`]
    /// for the line format.
    pub fn trace_report(&self) -> String {
        self.shared.traces.render()
    }

    /// The shared engine the workers count with; exposed so callers can run
    /// ad-hoc requests against the very same preprocessing and plan cache
    /// the service uses.
    pub fn engine(&self) -> &Engine<'static> {
        &self.shared.engine
    }

    /// Stops accepting jobs, lets the workers drain everything already
    /// queued, and joins them. Jobs still queued when no worker exists to
    /// drain them (a zero-worker service) are failed with
    /// [`ServiceError::ShuttingDown`]. Idempotent, and callable through a
    /// shared reference so an `Arc<Service>` (the `sgc-net` server holds
    /// one per listener) can be shut down explicitly; concurrent calls
    /// serialize on the worker list and both return only after the workers
    /// are joined. Also invoked by `Drop`.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.lock_queue();
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        {
            // Joining under the lock makes a concurrent second shutdown
            // wait here until the drain finishes, instead of racing ahead
            // and failing jobs a worker was still about to process.
            let mut workers = self.workers.lock().unwrap_or_else(|p| p.into_inner());
            for worker in workers.drain(..) {
                let _ = worker.join();
            }
        }
        let leftovers: Vec<QueueEntry> = {
            let mut queue = self.shared.lock_queue();
            queue.jobs.drain(..).collect()
        };
        for entry in leftovers {
            entry.state.fulfill(Err(ServiceError::ShuttingDown));
        }
        // Nothing can complete an in-flight computation once the workers
        // are gone (only reachable if a worker died outside catch_unwind).
        self.shared.cache.fail_in_flight(ServiceError::ShuttingDown);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker thread body: pop, process, repeat; drain the queue fully
/// before honoring shutdown.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let entry = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(entry) = queue.jobs.pop_front() {
                    break entry;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        process(&shared, entry);
    }
}

/// The one way a job runs — plain, versioned or watch emission: route it through the single-flight cache and, if this thread
/// owns the computation, run the adaptive trial loop and fan the result out
/// to every identical job that joined in flight.
///
/// A versioned job's cache key carries the version id in the fingerprint
/// slot. The root version id *is* the graph fingerprint, so root-version
/// jobs share slots with plain submissions — correct, because their
/// per-trial counts are bit-identical.
fn process(shared: &Shared, entry: QueueEntry) {
    if entry.state.is_cancelled() {
        // Cancelled while still queued: it never touches the cache or runs
        // a trial.
        Counters::bump(&shared.counters.jobs_cancelled);
        Counters::bump(&shared.counters.jobs_completed);
        entry.state.fulfill(Err(ServiceError::Cancelled));
        return;
    }
    if let Some(key) = route(shared, &entry) {
        let result = run_traced(shared, &entry);
        finish_compute(shared, key, &entry, result);
    }
}

/// The chunk a watch emission delivers: a completed job's output.
fn emission(output: JobOutput) -> ChunkUpdate {
    ChunkUpdate {
        trials_run: output.trials_run,
        budget: output.budget,
        estimate: output.estimate,
    }
}

/// The state of one re-emission of subscription `id`: fulfilling it, on
/// whichever thread does, [`deliver`]s it. Holds the service weakly, so a
/// queued emission keeps nothing alive.
fn emission_state(shared: &Arc<Shared>, id: u64) -> JobState {
    let shared = Arc::downgrade(shared);
    JobState::with_done(Box::new(move |result| {
        if let Some(shared) = shared.upgrade() {
            deliver(&shared, id, result);
        }
    }))
}

/// Delivers subscription `id`'s finished emission through its callback —
/// unless the emission failed or the subscription is gone or cancelled —
/// and then queues its one next emission, at the newest version it is owed,
/// if any. Runs with no lock held while the callback does. By the time a
/// re-emission is fulfilled its counts are in the result cache, so the next
/// emission recounts from them.
fn deliver(shared: &Arc<Shared>, id: u64, result: Result<JobOutput, ServiceError>) {
    let found = shared.lock_watchers().iter().find(|w| w.id == id).map(|w| {
        let callback = Arc::clone(&w.callback);
        (w.running, callback, Arc::clone(&w.cancelled))
    });
    let Some((Some(version), callback, cancelled)) = found else {
        return;
    };
    if let Ok(output) = result {
        if !cancelled.load(Ordering::Relaxed) {
            let update = emission(output);
            let _ = catch_unwind(AssertUnwindSafe(|| callback(version, &update)));
        }
    }
    let mut watchers = shared.lock_watchers();
    let Some(watcher) = watchers.iter_mut().find(|w| w.id == id) else {
        return;
    };
    watcher.running = watcher
        .owed
        .take()
        .filter(|_| !watcher.cancelled.load(Ordering::Relaxed));
    if let Some(next) = watcher.running {
        let mut job = watcher.job.clone();
        let state = emission_state(shared, id);
        let queued = shared.admit(std::slice::from_mut(&mut job), vec![state], false, || {
            Ok(Some(next))
        });
        if queued.is_err() {
            // Shutting down: nothing will run it.
            watcher.running = None;
        }
    }
}

/// Runs one owned computation with observability around it: the worker's
/// per-stage accumulator is scoped to the job, a panic in the counting code
/// neither kills the worker nor strands the jobs joined onto this
/// computation (the span stack self-heals during unwinding), and the
/// finished job lands in the slow-query trace log.
fn run_traced(shared: &Shared, entry: &QueueEntry) -> Result<JobOutput, ServiceError> {
    let started = std::time::Instant::now();
    sgc_obs::start_job();
    let result = catch_unwind(AssertUnwindSafe(|| run_job(shared, entry)))
        .unwrap_or(Err(ServiceError::WorkerLost));
    let stages = sgc_obs::end_job();
    if sgc_obs::enabled() {
        shared.traces.record(sgc_obs::JobTrace {
            trace_id: entry.job.trace_id.unwrap_or(0),
            label: job_label(&entry.job),
            seed: entry.job.seed,
            trials_run: result.as_ref().map(|o| o.trials_run as u64).unwrap_or(0),
            total_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            outcome: job_outcome(&result),
            stages,
        });
    }
    result
}

/// A short human label for the trace log: query shape plus algorithm
/// (`"4n4e/DB"` = 4 nodes, 4 edges, Degree Based). The job's pattern text
/// is not retained, so the shape is the identity the log can offer.
fn job_label(job: &CountJob) -> String {
    format!(
        "{}n{}e/{}",
        job.query.num_nodes(),
        job.query.num_edges(),
        job.algorithm.short_name()
    )
}

/// Maps a finished computation to the trace log's outcome word.
fn job_outcome(result: &Result<JobOutput, ServiceError>) -> &'static str {
    match result {
        Ok(output) => match output.stop {
            StopReason::PrecisionMet => "precision_met",
            StopReason::BudgetExhausted => "budget_exhausted",
            StopReason::Cancelled => "cancelled",
        },
        Err(ServiceError::Cancelled) => "cancelled",
        Err(_) => "error",
    }
}

/// Routes one job through the single-flight cache. Serves cache hits and
/// joins in-flight twins immediately; returns the key when this worker owns
/// the computation (the miss counter is already bumped).
///
/// Counters are always bumped BEFORE the corresponding handle is
/// fulfilled: once a caller's wait() returns, the metrics already account
/// for that job.
fn route(shared: &Shared, entry: &QueueEntry) -> Option<JobKey> {
    let fingerprint = entry
        .version
        .map_or(shared.graph_fingerprint, VersionId::as_u64);
    let key = JobKey::new(fingerprint, &entry.job);
    let started = std::time::Instant::now();
    let claim = {
        let _span = sgc_obs::span(sgc_obs::Stage::Cache);
        shared.cache.claim(key.clone(), &entry.state)
    };
    match claim {
        Claim::Served(output) => {
            Counters::bump(&shared.counters.cache_hits);
            Counters::bump(&shared.counters.jobs_completed);
            if sgc_obs::enabled() {
                shared.traces.record(sgc_obs::JobTrace {
                    trace_id: entry.job.trace_id.unwrap_or(0),
                    label: job_label(&entry.job),
                    seed: entry.job.seed,
                    trials_run: output.trials_run as u64,
                    total_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    outcome: "cache_hit",
                    stages: sgc_obs::StageNanos::default(),
                });
            }
            entry.state.fulfill(Ok(output));
            None
        }
        Claim::Joined => {
            // This worker is done with the job: the computation's owner
            // receives the handle from complete() and counts + fulfills it.
            None
        }
        Claim::Compute => {
            Counters::bump(&shared.counters.cache_misses);
            Some(key)
        }
    }
}

/// Completes a computation this worker owned: updates the trial counters,
/// stores the result (successes only), and fulfills the owner plus every
/// joined twin.
fn finish_compute(
    shared: &Shared,
    key: JobKey,
    entry: &QueueEntry,
    result: Result<JobOutput, ServiceError>,
) {
    match &result {
        Ok(output) => {
            Counters::add(&shared.counters.trials_executed, output.trials_run as u64);
            if output.stop == StopReason::Cancelled {
                // A cancelled job's unspent budget was taken away, not
                // saved by adaptive stopping; count it separately.
                Counters::bump(&shared.counters.jobs_cancelled);
            } else {
                Counters::add(
                    &shared.counters.trials_saved,
                    output.budget.saturating_sub(output.trials_run) as u64,
                );
            }
        }
        Err(ServiceError::Cancelled) => Counters::bump(&shared.counters.jobs_cancelled),
        Err(_) => {}
    }
    let waiters = shared.cache.complete(key, &result);
    // A cancellation belongs to the job that asked for it: twins that
    // joined this computation never cancelled anything, so handing them the
    // truncated partial output as a success would let one caller silently
    // degrade another's result. They are failed with `Cancelled` instead —
    // retrying recomputes, since cancelled outputs are never cached.
    let cancelled_partial = matches!(&result, Ok(output) if output.stop == StopReason::Cancelled);
    // Joined twins are cache hits only when something was actually
    // served from the cache: on an error (or a cancelled partial that is
    // deliberately not served to them) nothing is cached and every joiner
    // receives a failure, so counting them as hits would inflate the hit
    // rate while cached_results stays 0.
    if result.is_ok() && !cancelled_partial {
        Counters::add(&shared.counters.cache_hits, waiters.len() as u64);
    }
    Counters::add(&shared.counters.jobs_completed, 1 + waiters.len() as u64);
    entry.state.fulfill(result.clone());
    for waiter in waiters {
        let served = if cancelled_partial {
            Counters::bump(&shared.counters.jobs_cancelled);
            Err(ServiceError::Cancelled)
        } else {
            result.clone().map(|mut output| {
                output.from_cache = true;
                output
            })
        };
        waiter.fulfill(served);
    }
}

/// The adaptive trial loop of every job: run chunks of the job's
/// [`TrialStream`](sgc_core::TrialStream), stop at the precision target,
/// the budget, or a cancellation (checked once per chunk boundary —
/// cancellation never interrupts a chunk mid-trial, so the trials that did
/// run keep the seed+i contract).
///
/// The job kind only picks the stream's engine, shards and recount: a plain
/// job counts on the bound graph's engine, unsharded; a versioned job
/// recounts from its nearest counted ancestor ([`recount_from`]) and counts
/// any other trial on its version's engine, over the service's
/// `dyn_shards`. The graph versions are only looked up under their read
/// lock; the ball is built and the engine bound after it is released, and
/// no lock is held while trials run.
///
/// Every output and every progress update is [`summarize_trials`] over the
/// stream's counts — bit-identical to a fixed-budget engine run of exactly
/// that many trials (on the version's materialized graph, for a versioned
/// job; pinned by `tests/dynamic.rs`).
fn run_job(shared: &Shared, entry: &QueueEntry) -> Result<JobOutput, ServiceError> {
    let (job, state) = (&entry.job, &entry.state);
    if state.is_cancelled() {
        return Err(ServiceError::Cancelled);
    }
    let (engine, recount) = match entry.version {
        None => (Arc::clone(&shared.engine), None),
        Some(version) => {
            let (target, recount) = recount_from(shared, version, job)?;
            // A job whose every trial recounts the ball never needs the
            // version's whole graph, so it does not bind it: the root's
            // engine lends the request its plan cache and arenas.
            let engine = match &recount {
                Some((parent, _)) if parent.len() >= job.budget => Arc::clone(&shared.engine),
                _ => target.engine(),
            };
            (engine, recount)
        }
    };
    let mut request = engine.count(&job.query);
    if entry.version.is_some() {
        request = request.sharded(shared.dyn_shards);
    }
    if let Some((parent, ball)) = &recount {
        request = request.recount(parent, ball);
    }
    // Nothing here reads per-rank load, so one simulated rank: the kernel
    // then skips the owner lookup it attributes every row's work with.
    let mut stream = request
        .algorithm(job.algorithm)
        .seed(job.seed)
        .ranks(1)
        .parallel(false)
        .estimate_incremental()?;
    let mut seconds = 0.0;
    let mut stop = StopReason::BudgetExhausted;
    while stream.trials_run() < job.budget {
        let chunk_started = std::time::Instant::now();
        stream.run_chunk(shared.chunk_trials.min(job.budget - stream.trials_run()));
        seconds += chunk_started.elapsed().as_secs_f64();
        if state.has_progress() {
            // Summarized exactly as the final output will be, so every
            // update a watcher sees is bit-identical to a fixed-budget run
            // of that many trials (the invariant `sgc-net` streams over the
            // wire).
            state.emit_progress(&ChunkUpdate {
                trials_run: stream.trials_run(),
                budget: job.budget,
                estimate: summarize_trials(stream.per_trial().to_vec(), &job.query, seconds),
            });
        }
        if let Some(precision) = &job.precision {
            if stream.relative_half_width(precision.confidence) <= precision.target {
                stop = StopReason::PrecisionMet;
                break;
            }
        }
        if state.is_cancelled() {
            stop = StopReason::Cancelled;
            break;
        }
    }
    // A zero budget runs zero trials: the typed error the engine API uses.
    if stream.trials_run() == 0 {
        return Err(ServiceError::Count(SgcError::ZeroTrials));
    }
    Ok(JobOutput {
        estimate: summarize_trials(stream.per_trial().to_vec(), &job.query, seconds),
        trials_run: stream.trials_run(),
        budget: job.budget,
        stop,
        from_cache: false,
    })
}

/// What a versioned job recounts from: an ancestor's per-trial counts, and
/// the ball they are recounted through.
type Recount = (Vec<Count>, DeltaBall);

/// The version a job at `version` counts on, and what it recounts from: the
/// per-trial counts its identical job left in the result cache at the
/// nearest ancestor that has them, and the ball around every edge changed
/// on the way down from there (any superset of the changed edges keeps the
/// ball identity). No recount — count every trial on the whole graph — for
/// the root, when no ancestor's job has a completed entry (never run,
/// evicted or still in flight), or when the ball does not pay off against
/// the version's graph ([`DeltaBall::pays_off`]).
///
/// The walk up the chain takes the read lock one step at a time, and the
/// ball is built after the last lookup released it, so a delta waits for
/// at most one lookup.
fn recount_from(
    shared: &Shared,
    version: VersionId,
    job: &CountJob,
) -> Result<(Version, Option<Recount>), ServiceError> {
    let target = shared.versions().version(version)?;
    let key = JobKey::new(version.as_u64(), job);
    let mut at = version;
    let found = loop {
        let Some(parent) = shared.versions().parent(at) else {
            break None;
        };
        if let Some(counts) = shared.cache.per_trial(&key.at(parent.as_u64())) {
            break Some((parent, counts));
        }
        at = parent;
    };
    let Some((ancestor, counts)) = found else {
        return Ok((target, None));
    };
    let descent = shared
        .versions()
        .descent(version, ancestor)?
        .expect("an ancestor has a descent");
    let ball = descent.ball(job.query.num_nodes());
    let pays_off = ball.pays_off(target.snapshot().num_edges());
    Ok((target, pays_off.then_some((counts, ball))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CancelToken, Precision};
    use sgc_graph::GraphBuilder;
    use sgc_query::catalog;

    fn demo_graph() -> Arc<CsrGraph> {
        let mut b = GraphBuilder::new(10);
        b.extend_edges([
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 5),
            (5, 6),
            (6, 1),
            (2, 7),
            (7, 8),
            (8, 3),
            (4, 9),
            (9, 0),
            (5, 2),
            (6, 3),
        ]);
        Arc::new(b.build())
    }

    fn small_service(workers: usize) -> Service {
        Service::with_config(
            demo_graph(),
            ServiceConfig {
                workers,
                queue_capacity: 16,
                chunk_trials: 4,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn a_job_matches_the_batch_engine_api() {
        let service = small_service(2);
        let output = service
            .run(CountJob::new(catalog::triangle()).seed(11).budget(12))
            .unwrap();
        assert_eq!(output.trials_run, 12);
        assert_eq!(output.stop, StopReason::BudgetExhausted);
        assert!(!output.from_cache);
        let batch = service
            .engine()
            .count(&catalog::triangle())
            .trials(12)
            .seed(11)
            .estimate()
            .unwrap();
        assert_eq!(output.estimate.per_trial, batch.per_trial);
        assert_eq!(output.estimate.estimated_matches, batch.estimated_matches);
    }

    #[test]
    fn identical_resubmission_is_a_cache_hit_with_identical_bits() {
        let service = small_service(1);
        let job = CountJob::new(catalog::triangle()).seed(3).budget(8);
        let first = service.run(job.clone()).unwrap();
        let second = service.run(job).unwrap();
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(first.estimate.per_trial, second.estimate.per_trial);
        assert_eq!(
            first.estimate.estimated_matches.to_bits(),
            second.estimate.estimated_matches.to_bits()
        );
        let metrics = service.metrics();
        assert_eq!(metrics.cache_misses, 1);
        assert_eq!(metrics.cache_hits, 1);
        assert_eq!(metrics.cached_results, 1);
        assert_eq!(metrics.jobs_completed, 2);
    }

    #[test]
    fn zero_worker_service_exposes_admission_control_deterministically() {
        let service = Service::with_config(
            demo_graph(),
            ServiceConfig {
                workers: 0,
                queue_capacity: 2,
                chunk_trials: 4,
                ..ServiceConfig::default()
            },
        );
        let a = service.submit(CountJob::new(catalog::triangle())).unwrap();
        let _b = service.submit(CountJob::new(catalog::cycle(4))).unwrap();
        let err = service
            .submit(CountJob::new(catalog::triangle()).seed(99))
            .unwrap_err();
        assert_eq!(err, ServiceError::QueueFull { capacity: 2 });
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_submitted, 2);
        assert_eq!(metrics.jobs_rejected, 1);
        assert_eq!(metrics.queue_depth, 2);
        // Nobody drains a zero-worker queue: shutdown fails the stragglers.
        service.shutdown();
        assert!(matches!(a.wait(), Err(ServiceError::ShuttingDown)));
        let err = service.submit(CountJob::new(catalog::triangle()));
        assert_eq!(err.unwrap_err(), ServiceError::ShuttingDown);
    }

    #[test]
    fn a_zero_worker_watch_fails_at_shutdown_and_registers_nothing() {
        // A watch's initial emission is a queued job like any other: with
        // no worker to run it, `watch` waits until shutdown fails it.
        let service = small_service(0);
        std::thread::scope(|scope| {
            let watch = scope.spawn(|| {
                service.watch(
                    CountJob::new(catalog::triangle()).seed(1).budget(4),
                    Arc::new(|_, _| {}),
                )
            });
            while service.metrics().queue_depth == 0 {
                std::thread::yield_now();
            }
            service.shutdown();
            assert_eq!(
                watch.join().unwrap().err(),
                Some(ServiceError::ShuttingDown)
            );
        });
        assert_eq!(service.watch_count(), 0);
        assert_eq!(service.metrics().jobs_submitted, 1);
    }

    #[test]
    fn identical_watchers_share_one_computation_and_both_deliver() {
        // The second watcher's emission joins the first's in flight or is
        // served from the cache: either way its completion hook runs on the
        // thread that fulfils it, and it delivers too.
        let service = small_service(2);
        let seen: Arc<Mutex<Vec<(u64, VersionId)>>> = Arc::default();
        let job = CountJob::new(catalog::triangle()).seed(2).budget(4);
        let _handles: Vec<WatchHandle> = (0..2)
            .map(|who| {
                let sink = Arc::clone(&seen);
                let callback: WatchFn = Arc::new(move |version, _| {
                    sink.lock().unwrap().push((who, version));
                });
                service.watch(job.clone(), callback).unwrap()
            })
            .collect();
        let misses = service.metrics().cache_misses;
        let v1 = service
            .apply_delta(&EdgeDelta::new(vec![(0, 2)], vec![]).unwrap())
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while seen.lock().unwrap().len() < 4 {
            assert!(std::time::Instant::now() < deadline, "not delivered");
            std::thread::yield_now();
        }
        let mut delivered = seen.lock().unwrap()[2..].to_vec();
        delivered.sort_unstable();
        assert_eq!(delivered, vec![(0, v1), (1, v1)]);
        let metrics = service.metrics();
        assert_eq!(metrics.cache_misses, misses + 1, "one computation");
        assert_eq!(metrics.jobs_completed, metrics.jobs_submitted);
    }

    #[test]
    fn counting_errors_reach_the_handle_as_typed_errors() {
        let service = small_service(1);
        // Treewidth > 2: rejected by the planner inside the worker.
        let mut k4 = sgc_query::QueryGraph::new(4);
        for a in 0..4u8 {
            for b in (a + 1)..4 {
                k4.add_edge(a, b).unwrap();
            }
        }
        let err = service.run(CountJob::new(k4)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Count(sgc_core::SgcError::Query(_))
        ));
        // Zero budget: zero trials.
        let err = service
            .run(CountJob::new(catalog::triangle()).budget(0))
            .unwrap_err();
        assert_eq!(err, ServiceError::Count(sgc_core::SgcError::ZeroTrials));
        // Invalid precision is rejected at submission.
        let err = service
            .submit(CountJob::new(catalog::triangle()).precision(Precision::within(0.0)))
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidPrecision { .. }));
        // Errors are not cached: no key holds a completed entry.
        assert_eq!(service.metrics().cached_results, 0);
    }

    #[test]
    fn failing_jobs_never_count_as_cache_hits() {
        let service = small_service(1);
        let mut k4 = sgc_query::QueryGraph::new(4);
        for a in 0..4u8 {
            for b in (a + 1)..4 {
                k4.add_edge(a, b).unwrap();
            }
        }
        let job = CountJob::new(k4);
        assert!(service.run(job.clone()).is_err());
        assert!(service.run(job).is_err());
        let metrics = service.metrics();
        // Errors are not cached, so the second identical job recomputed:
        // two misses, zero hits, nothing stored.
        assert_eq!(metrics.cache_misses, 2);
        assert_eq!(metrics.cache_hits, 0);
        assert_eq!(metrics.cached_results, 0);
        assert_eq!(metrics.jobs_completed, 2);
    }

    #[test]
    fn all_zero_counts_never_early_stop_as_a_precise_zero() {
        // A path graph has no triangles: every trial counts zero. A
        // precision-targeted job must not mistake that run of zeros for a
        // met target — it spends its whole budget and reports a zero
        // estimate with BudgetExhausted.
        let mut b = GraphBuilder::new(8);
        b.extend_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let service = Service::with_config(
            Arc::new(b.build()),
            ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                chunk_trials: 4,
                ..ServiceConfig::default()
            },
        );
        let output = service
            .run(
                CountJob::new(catalog::triangle())
                    .seed(5)
                    .budget(20)
                    .precision(Precision::within(0.5)),
            )
            .unwrap();
        assert_eq!(output.stop, StopReason::BudgetExhausted);
        assert_eq!(output.trials_run, 20);
        assert_eq!(output.estimate.estimated_matches, 0.0);
        assert_eq!(service.metrics().trials_saved, 0);
    }

    #[test]
    fn precision_target_stops_before_the_budget() {
        let service = small_service(1);
        // A very loose target on a triangle-rich graph: a handful of chunks
        // suffices, far below the 400-trial budget.
        let output = service
            .run(
                CountJob::new(catalog::triangle())
                    .seed(1000)
                    .budget(400)
                    .precision(Precision::within(0.5)),
            )
            .unwrap();
        assert_eq!(output.stop, StopReason::PrecisionMet);
        assert!(
            output.trials_run < output.budget,
            "expected early stop, ran {}/{}",
            output.trials_run,
            output.budget
        );
        // The precision the scheduler stopped on is reproducible from the
        // returned estimate.
        assert!(output.estimate.relative_half_width(0.95) <= 0.5);
        let metrics = service.metrics();
        assert_eq!(
            metrics.trials_saved,
            (output.budget - output.trials_run) as u64
        );
    }

    /// A progress callback that cancels the job's own token as soon as it
    /// fires: the first completed chunk triggers the cancellation, making
    /// the mid-run cancel deterministic without sleeps.
    fn cancel_on_first_chunk() -> (ProgressFn, Arc<Mutex<Option<CancelToken>>>) {
        let slot: Arc<Mutex<Option<CancelToken>>> = Arc::default();
        let shared = Arc::clone(&slot);
        let progress: ProgressFn = Arc::new(move |_update: &ChunkUpdate| {
            if let Some(token) = shared.lock().unwrap().as_ref() {
                token.cancel();
            }
        });
        (progress, slot)
    }

    #[test]
    fn cancelling_a_running_job_stops_at_a_chunk_boundary_with_a_partial_estimate() {
        let service = small_service(1);
        let budget = 50_000_000; // far beyond what can run before the cancel
        let (progress, slot) = cancel_on_first_chunk();
        let handle = service
            .submit_with_progress(
                CountJob::new(catalog::triangle()).seed(9).budget(budget),
                progress,
            )
            .unwrap();
        *slot.lock().unwrap() = Some(handle.cancel_token());
        let output = handle.wait().unwrap();
        assert_eq!(output.stop, StopReason::Cancelled);
        assert!(output.trials_run >= 4, "at least one chunk completes");
        assert!(output.trials_run < budget, "ran {}", output.trials_run);
        // The partial estimate honours the anytime contract: bit-identical
        // to a batch run of exactly the trials that completed.
        let replay = service
            .engine()
            .count(&catalog::triangle())
            .trials(output.trials_run)
            .seed(9)
            .estimate()
            .unwrap();
        assert_eq!(output.estimate.per_trial, replay.per_trial);
        // Cancelled outputs are never cached, so nothing is stored and a
        // resubmission would recompute.
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_cancelled, 1);
        assert_eq!(metrics.cached_results, 0);
        assert_eq!(metrics.cache_misses, 1);
    }

    #[test]
    fn cancelling_a_queued_job_fails_it_with_the_cancelled_error() {
        let service = small_service(1);
        // A blocker holds the only worker until its own first chunk cancels
        // it, guaranteeing the victim is still queued when *its* cancel
        // lands.
        let (progress, slot) = cancel_on_first_chunk();
        let blocker = service
            .submit_with_progress(
                CountJob::new(catalog::triangle())
                    .seed(1)
                    .budget(50_000_000),
                progress,
            )
            .unwrap();
        let victim = service
            .submit(CountJob::new(catalog::triangle()).seed(2).budget(8))
            .unwrap();
        victim.cancel();
        // Release the worker only after the victim is marked.
        *slot.lock().unwrap() = Some(blocker.cancel_token());
        assert_eq!(blocker.wait().unwrap().stop, StopReason::Cancelled);
        assert!(matches!(victim.wait(), Err(ServiceError::Cancelled)));
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_cancelled, 2);
        // The victim never computed: the only executed trials are the
        // blocker's.
        assert_eq!(metrics.cache_misses, 1);
    }

    #[test]
    fn twins_joined_onto_a_cancelled_computation_fail_instead_of_sharing_the_partial() {
        // A joined twin never asked to cancel: fulfilling it with the
        // owner's truncated output would let one caller silently degrade
        // another's result. The cache routing and completion are driven
        // directly (zero workers, so nothing races) to pin the in-flight
        // join deterministically.
        let service = small_service(0);
        let shared = &service.shared;
        let job = CountJob::new(catalog::triangle()).seed(9).budget(1000);
        let key = JobKey::new(shared.graph_fingerprint, &job);
        let owner = QueueEntry {
            job: job.clone(),
            state: Arc::new(JobState::with_progress(None)),
            version: None,
        };
        let twin = Arc::new(JobState::with_progress(None));
        assert!(matches!(
            shared.cache.claim(key.clone(), &owner.state),
            Claim::Compute
        ));
        assert!(matches!(
            shared.cache.claim(key.clone(), &twin),
            Claim::Joined
        ));
        // The owner's run was cancelled 8 trials into its 1000 budget.
        let estimate = shared
            .engine
            .count(&catalog::triangle())
            .seed(9)
            .trials(8)
            .estimate()
            .unwrap();
        let partial = JobOutput {
            estimate,
            trials_run: 8,
            budget: 1000,
            stop: StopReason::Cancelled,
            from_cache: false,
        };
        finish_compute(shared, key.clone(), &owner, Ok(partial));
        // The owner — whose cancellation it was — receives the partial.
        let owner_out = JobHandle { state: owner.state }.wait().unwrap();
        assert_eq!(owner_out.stop, StopReason::Cancelled);
        assert_eq!(owner_out.trials_run, 8);
        // The twin is failed, not served a result it never asked for.
        assert!(matches!(
            JobHandle { state: twin }.try_result(),
            Some(Err(ServiceError::Cancelled))
        ));
        let metrics = service.metrics();
        assert_eq!(metrics.jobs_cancelled, 2, "owner and failed twin");
        assert_eq!(metrics.cache_hits, 0, "nothing was served from cache");
        assert_eq!(metrics.cached_results, 0, "partials are never stored");
        // The key is free again: a retry recomputes from scratch.
        assert!(matches!(
            shared
                .cache
                .claim(key, &Arc::new(JobState::with_progress(None))),
            Claim::Compute
        ));
    }

    #[test]
    fn cancel_after_completion_is_a_no_op() {
        let service = small_service(1);
        let handle = service
            .submit(CountJob::new(catalog::triangle()).seed(4).budget(8))
            .unwrap();
        // Wait for the result through a second identical submission, then
        // cancel the already-fulfilled handle: the output is unaffected.
        let settled = service
            .run(CountJob::new(catalog::triangle()).seed(4).budget(8))
            .unwrap();
        handle.cancel();
        let output = handle.wait().unwrap();
        assert_eq!(output.stop, StopReason::BudgetExhausted);
        assert_eq!(output.trials_run, 8);
        assert_eq!(output.estimate.per_trial, settled.estimate.per_trial);
        assert_eq!(service.metrics().jobs_cancelled, 0);
    }
}
