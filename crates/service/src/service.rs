//! The counting service: bounded queue, worker pool, adaptive trial loop.
//!
//! One [`Service`] binds one data graph (through
//! [`Engine::from_shared`](sgc_core::Engine::from_shared), so the expensive
//! preprocessing runs exactly once) and serves concurrent [`CountJob`]s:
//!
//! * **admission control** — the work queue is bounded; a full queue rejects
//!   with [`ServiceError::QueueFull`] instead of growing without limit,
//! * **adaptive scheduling** — each job's trials run in fixed-size chunks
//!   (through the engine's incremental
//!   [`TrialStream`], or the delta-aware runtime for
//!   a job pinned to a graph version); after every chunk the job's
//!   confidence interval is checked against its
//!   [`Precision`](crate::job::Precision) target and the job stops as soon
//!   as the target is met (or the budget runs out). One loop serves every
//!   job: solo, batch member, versioned, watch emission,
//! * **result caching** — deterministic jobs are memoized and
//!   single-flighted (see [`crate::cache`]); identical submissions are
//!   served without recomputation, bit-identically.

use crate::cache::{Claim, JobKey, ResultCache};
use crate::error::ServiceError;
use crate::job::{
    BatchJob, ChunkUpdate, CountJob, JobHandle, JobOutput, JobState, ProgressFn, StopReason,
};
use crate::metrics::{Counters, ServiceMetrics};
use sgc_core::estimator::{summarize_trials, TrialAccumulator};
use sgc_core::kernel::ArenaPool;
use sgc_core::{Engine, SgcError, TrialStream};
use sgc_dyn::{PartialStore, TrialSpec, VersionId, VersionedGraph};
use sgc_graph::{CsrGraph, EdgeDelta};
use sgc_query::DecompositionTree;
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
    /// deployments want at least 1.
    pub workers: usize,
    /// Maximum number of jobs waiting in the queue before submissions are
    /// rejected with [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Trials per scheduling chunk: the granularity at which the adaptive
    /// loop re-checks a job's precision target. Clamped to at least 1.
    pub chunk_trials: usize,
    /// Whether workers record observability spans, publish run counters
    /// into the `sgc-obs` registry, and feed the slow-query trace log.
    /// On by default; results are bit-identical either way.
    pub obs: bool,
    /// Maximum completed results the single-flight cache retains. With
    /// versioned graphs every delta mints fresh cache keys, so the cache
    /// is LRU-bounded; evictions are counted in
    /// [`ServiceMetrics::cache_evictions`]. Clamped to at least 1.
    pub cache_capacity: usize,
    /// Shard count versioned jobs (`submit_at` / `watch`) run with — also
    /// the granularity of delta-aware partial replay. Clamped to at
    /// least 1.
    pub dyn_shards: usize,
    /// Approximate byte budget of the per-trial partial-sum store backing
    /// incremental recounts.
    pub partial_store_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
            chunk_trials: 8,
            obs: true,
            cache_capacity: 256,
            dyn_shards: 4,
            partial_store_bytes: sgc_dyn::DEFAULT_STORE_CAPACITY_BYTES,
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
    /// `None` for a plain job, which counts on the bound graph through the
    /// engine's trial stream; `Some` for a job that runs through the
    /// delta-aware runtime at that version.
    version: Option<VersionId>,
}

/// A live watch subscription: the job re-run at every new version, and the
/// callback its version-tagged chunks are delivered through.
struct Watcher {
    id: u64,
    job: CountJob,
    callback: WatchFn,
    cancelled: Arc<AtomicBool>,
}

/// Callback of a [`watch`](Service::watch) subscription: invoked with the
/// version that landed and the fresh estimate chunk computed at it.
pub type WatchFn = Arc<dyn Fn(VersionId, &ChunkUpdate) + Send + Sync>;

/// Handle to a live [`watch`](Service::watch) subscription. Cancelling (or
/// [`Service::unwatch`]) stops future emissions; an emission already in
/// progress may still be delivered.
pub struct WatchHandle {
    id: u64,
    cancelled: Arc<AtomicBool>,
}

impl WatchHandle {
    /// The subscription's id, usable with [`Service::unwatch`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stops future emissions for this subscription. The watcher entry is
    /// pruned at the next delta.
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
    engine: Engine<'static>,
    graph_fingerprint: u64,
    queue_capacity: usize,
    chunk_trials: usize,
    obs: bool,
    dyn_shards: usize,
    queue: Mutex<QueueState>,
    available: Condvar,
    cache: ResultCache,
    counters: Counters,
    traces: sgc_obs::TraceLog,
    /// The version chain rooted at the bound graph. Reads (versioned
    /// counting) take the read lock per chunk; `apply_delta` takes the
    /// write lock, so mutation never waits for a whole job.
    dynamic: RwLock<VersionedGraph>,
    /// Per-trial, per-shard partial sums backing incremental recounts.
    partials: PartialStore,
    /// Arena pool the versioned runs check join-kernel scratch out of.
    pool: ArenaPool,
    watchers: Mutex<Vec<Watcher>>,
    watch_ids: AtomicU64,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
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
        let dynamic = VersionedGraph::new(&graph);
        let shared = Arc::new(Shared {
            engine: Engine::from_shared(graph),
            graph_fingerprint,
            queue_capacity: config.queue_capacity,
            chunk_trials: config.chunk_trials.max(1),
            obs: config.obs,
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
            partials: PartialStore::new(config.partial_store_bytes),
            pool: ArenaPool::new(),
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
    pub fn submit(&self, job: CountJob) -> Result<JobHandle, ServiceError> {
        self.admit_one(job, None, None)
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
        job: CountJob,
        progress: ProgressFn,
    ) -> Result<JobHandle, ServiceError> {
        self.admit_one(job, Some(progress), None)
    }

    /// Admits one job: [`admit`](Service::admit) for a single member.
    fn admit_one(
        &self,
        job: CountJob,
        progress: Option<ProgressFn>,
        version: Option<VersionId>,
    ) -> Result<JobHandle, ServiceError> {
        let mut handles = self.admit(vec![job], vec![progress], version)?;
        Ok(handles.pop().expect("one job in, one handle out"))
    }

    /// The one admission path: validates every job, mints missing trace
    /// IDs (at submission, unless the client propagated one over the wire,
    /// so even a rejected or cancelled job has an identity in the logs),
    /// and queues all of them or none under one lock acquisition.
    /// `progress` may be shorter than `jobs`; missing tails mean "no
    /// watcher".
    fn admit(
        &self,
        mut jobs: Vec<CountJob>,
        progress: Vec<Option<ProgressFn>>,
        version: Option<VersionId>,
    ) -> Result<Vec<JobHandle>, ServiceError> {
        for job in &mut jobs {
            if let Some(precision) = &job.precision {
                precision.validate()?;
            }
            if job.trace_id.is_none() {
                job.trace_id = Some(sgc_obs::next_trace_id());
            }
        }
        let count = jobs.len();
        let mut progress = progress.into_iter();
        let states: Vec<Arc<JobState>> = (0..count)
            .map(|_| Arc::new(JobState::with_progress(progress.next().flatten())))
            .collect();
        {
            let mut queue = self.shared.lock_queue();
            if queue.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if queue.jobs.len() + count > self.shared.queue_capacity {
                Counters::add(&self.shared.counters.jobs_rejected, count as u64);
                return Err(ServiceError::QueueFull {
                    capacity: self.shared.queue_capacity,
                });
            }
            Counters::add(&self.shared.counters.jobs_submitted, count as u64);
            for (job, state) in jobs.into_iter().zip(&states) {
                queue.jobs.push_back(QueueEntry {
                    job,
                    state: Arc::clone(state),
                    version,
                });
            }
        }
        for _ in 0..count {
            self.shared.available.notify_one();
        }
        Ok(states
            .into_iter()
            .map(|state| JobHandle { state })
            .collect())
    }

    /// Submits a batch of jobs, returning one handle per member (in
    /// submission order).
    ///
    /// Admission is atomic: either every member fits within the queue
    /// capacity or the whole batch is rejected with
    /// [`ServiceError::QueueFull`] — a batch cannot be half-admitted. Once
    /// admitted, every member is an ordinary job: it is picked up by
    /// whichever worker is free, routed through the single-flight result
    /// cache under its own canonical key (so identical members — and
    /// identical solo jobs — compute once), runs the same adaptive trial
    /// loop, and can be cancelled on its own. Every member's output is
    /// bit-identical to a solo submission of the same job.
    ///
    /// ```
    /// use sgc_graph::GraphBuilder;
    /// use sgc_query::catalog;
    /// use sgc_service::{BatchJob, CountJob, Service};
    /// use std::sync::Arc;
    ///
    /// let mut b = GraphBuilder::new(6);
    /// b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
    /// let service = Service::new(Arc::new(b.build()));
    ///
    /// let batch = BatchJob::new()
    ///     .push(CountJob::new(catalog::triangle()).seed(3).budget(8))
    ///     .push(CountJob::new(catalog::cycle(4)).seed(3).budget(8));
    /// let handles = service.submit_batch(batch).unwrap();
    /// for handle in handles {
    ///     assert!(handle.wait().unwrap().trials_run > 0);
    /// }
    /// ```
    ///
    /// # Errors
    /// [`ServiceError::QueueFull`] when the members would overflow the
    /// queue, [`ServiceError::ShuttingDown`] after shutdown,
    /// [`ServiceError::InvalidPrecision`] for an unusable member target.
    /// Counting-level failures are reported through the member handles.
    pub fn submit_batch(&self, batch: BatchJob) -> Result<Vec<JobHandle>, ServiceError> {
        self.submit_batch_with_progress(batch, Vec::new())
    }

    /// [`submit_batch`](Service::submit_batch) with one optional progress
    /// watcher per member (`progress` may be shorter than the batch;
    /// missing tails mean "no watcher"). Each watcher follows the
    /// [`submit_with_progress`](Service::submit_with_progress) contract:
    /// one update per completed chunk of its member, fixed-budget or
    /// precision-targeted alike.
    ///
    /// # Errors
    /// Exactly those of [`submit_batch`](Service::submit_batch).
    pub fn submit_batch_with_progress(
        &self,
        batch: BatchJob,
        progress: Vec<Option<ProgressFn>>,
    ) -> Result<Vec<JobHandle>, ServiceError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let handles = self.admit(batch.into_jobs(), progress, None)?;
        Counters::bump(&self.shared.counters.batches_submitted);
        Ok(handles)
    }

    /// Submits a job and blocks until it completes — submission and
    /// [`JobHandle::wait`] in one call.
    pub fn run(&self, job: CountJob) -> Result<JobOutput, ServiceError> {
        self.submit(job)?.wait()
    }

    /// Submits a batch and blocks until every member completes, returning
    /// each member's outcome in submission order.
    ///
    /// # Errors
    /// The batch-level admission errors of
    /// [`submit_batch`](Service::submit_batch); per-member counting
    /// failures are the inner `Result`s.
    pub fn run_batch(
        &self,
        batch: BatchJob,
    ) -> Result<Vec<Result<JobOutput, ServiceError>>, ServiceError> {
        Ok(self
            .submit_batch(batch)?
            .into_iter()
            .map(JobHandle::wait)
            .collect())
    }

    /// The root version: the bound graph itself, before any delta. Its id
    /// equals the graph fingerprint, so counting at the root shares cache
    /// slots with plain [`submit`](Service::submit) jobs.
    pub fn root_version(&self) -> VersionId {
        self.shared
            .dynamic
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .root()
    }

    /// The current head version — where [`apply_delta`](Service::apply_delta)
    /// chains the next delta.
    pub fn head_version(&self) -> VersionId {
        self.shared
            .dynamic
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .head()
    }

    /// Whether the service holds `version` in its chain.
    pub fn has_version(&self, version: VersionId) -> bool {
        self.shared
            .dynamic
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .contains(version)
    }

    /// Applies an edge delta to the head snapshot, minting a new version,
    /// and synchronously re-emits a fresh estimate chunk to every live
    /// [`watch`](Service::watch) subscription at the new version (identical
    /// watch jobs share one computation through the single-flight cache).
    /// Returns the new head version id.
    ///
    /// The delta applies copy-on-write over the head's CSR segments:
    /// untouched segments are shared, and versions already minted are
    /// immutable — counting at an old version keeps working after any
    /// number of deltas.
    ///
    /// # Errors
    /// [`ServiceError::Delta`] when the snapshot layer rejects the delta
    /// (the graph is unchanged), [`ServiceError::ShuttingDown`] after
    /// shutdown.
    pub fn apply_delta(&self, delta: &EdgeDelta) -> Result<VersionId, ServiceError> {
        if self.shared.lock_queue().shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let version = {
            let mut dynamic = self
                .shared
                .dynamic
                .write()
                .unwrap_or_else(|p| p.into_inner());
            dynamic.apply_to_head(delta)?
        };
        notify_watchers(&self.shared, version);
        Ok(version)
    }

    /// Submits a job pinned to graph version `version` (see
    /// [`apply_delta`](Service::apply_delta)). Admission follows
    /// [`submit`](Service::submit); the job runs through the delta-aware
    /// incremental runtime — shards the version's delta cannot have touched
    /// replay their retained partial sums — and its output is bit-identical
    /// to a from-scratch run on the version's materialized graph.
    ///
    /// The version is resolved when the job runs, not at admission: an
    /// unknown version reports [`ServiceError::UnknownVersion`] through the
    /// handle.
    ///
    /// # Errors
    /// Exactly those of [`submit`](Service::submit).
    pub fn submit_at(&self, version: VersionId, job: CountJob) -> Result<JobHandle, ServiceError> {
        self.admit_one(job, None, Some(version))
    }

    /// [`submit_at`](Service::submit_at) with a progress watcher, following
    /// the [`submit_with_progress`](Service::submit_with_progress)
    /// contract: one update per completed chunk, each bit-identical to a
    /// fixed-budget run of exactly that many trials at that version.
    pub fn submit_at_with_progress(
        &self,
        version: VersionId,
        job: CountJob,
        progress: ProgressFn,
    ) -> Result<JobHandle, ServiceError> {
        self.admit_one(job, Some(progress), Some(version))
    }

    /// Counts at a version and blocks: [`submit_at`](Service::submit_at)
    /// plus [`JobHandle::wait`] in one call.
    pub fn count_at(&self, version: VersionId, job: CountJob) -> Result<JobOutput, ServiceError> {
        self.submit_at(version, job)?.wait()
    }

    /// Registers a live watch: `callback` receives an initial estimate
    /// chunk for `job` at the current head (computed synchronously, on this
    /// thread), then a fresh version-tagged chunk every time
    /// [`apply_delta`](Service::apply_delta) lands a new version. Re-counts
    /// ride the incremental runtime, so a small delta re-emits after
    /// recomputing only its invalidation ball.
    ///
    /// Emissions run on the thread that applies the delta, serially across
    /// watchers; identical watch jobs (and identical `submit_at` jobs) share
    /// one computation through the single-flight cache. This is the serving
    /// primitive behind the `sgc-net` `watch` verb.
    ///
    /// # Errors
    /// [`ServiceError::InvalidPrecision`] for an unusable target,
    /// [`ServiceError::ShuttingDown`] after shutdown, and any counting
    /// error of the initial run (a watch that cannot produce its first
    /// chunk is not registered).
    pub fn watch(&self, mut job: CountJob, callback: WatchFn) -> Result<WatchHandle, ServiceError> {
        if let Some(precision) = &job.precision {
            precision.validate()?;
        }
        if job.trace_id.is_none() {
            job.trace_id = Some(sgc_obs::next_trace_id());
        }
        if self.shared.lock_queue().shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let id = self.shared.watch_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let cancelled = Arc::new(AtomicBool::new(false));
        // The initial emission and the registration happen under the
        // watchers lock, atomically with respect to `notify_watchers`: a
        // delta landing concurrently either waits and then re-emits to this
        // watcher, or finished notifying before the initial run — in which
        // case the initial emission already observes its version. Either
        // way a new watch cannot miss a version.
        {
            let mut watchers = self
                .shared
                .watchers
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            let head = self.head_version();
            let output = count_now(&self.shared, head, &job)?;
            callback(
                head,
                &ChunkUpdate {
                    trials_run: output.trials_run,
                    budget: output.budget,
                    estimate: output.estimate,
                },
            );
            watchers.push(Watcher {
                id,
                job,
                callback,
                cancelled: Arc::clone(&cancelled),
            });
        }
        Ok(WatchHandle { id, cancelled })
    }

    /// Removes a watch subscription by id (see [`WatchHandle::id`]).
    /// Unknown ids are a no-op. [`WatchHandle::cancel`] is the handle-side
    /// equivalent.
    pub fn unwatch(&self, id: u64) {
        self.shared
            .watchers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|w| w.id != id);
    }

    /// Live watch subscriptions (cancelled-but-unpruned entries included).
    pub fn watch_count(&self) -> usize {
        self.shared
            .watchers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// A snapshot of the service counters.
    pub fn metrics(&self) -> ServiceMetrics {
        let queue_depth = self.shared.lock_queue().jobs.len();
        self.shared.counters.snapshot(
            queue_depth,
            self.shared.cache.ready_entries(),
            self.shared.cache.evictions(),
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
        registry.gauge_set("service_batches_submitted", snapshot.batches_submitted);
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

/// The one way a job runs — solo, batch member, versioned or watch
/// emission: route it through the single-flight cache and, if this thread
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

/// Runs one versioned job synchronously on the calling thread, through
/// [`process`] like any queued job: a cached result is served, an identical
/// in-flight computation is joined (blocking until it completes), and
/// otherwise this thread computes. The primitive behind watch emissions.
fn count_now(
    shared: &Shared,
    version: VersionId,
    job: &CountJob,
) -> Result<JobOutput, ServiceError> {
    let state = Arc::new(JobState::with_progress(None));
    let entry = QueueEntry {
        job: job.clone(),
        state: Arc::clone(&state),
        version: Some(version),
    };
    process(shared, entry);
    JobHandle { state }.wait()
}

/// Re-emits a fresh estimate chunk at `version` to every live watcher.
/// Cancelled watchers are pruned first; identical watch jobs dedupe
/// through the single-flight cache. A watcher whose job fails at this
/// version (it cannot — jobs are validated by their initial emission —
/// except through a worker panic) skips the emission rather than killing
/// the delta.
fn notify_watchers(shared: &Shared, version: VersionId) {
    let live: Vec<(CountJob, WatchFn, Arc<AtomicBool>)> = {
        let mut watchers = shared.watchers.lock().unwrap_or_else(|p| p.into_inner());
        watchers.retain(|w| !w.cancelled.load(Ordering::Relaxed));
        watchers
            .iter()
            .map(|w| {
                (
                    w.job.clone(),
                    Arc::clone(&w.callback),
                    Arc::clone(&w.cancelled),
                )
            })
            .collect()
    };
    for (job, callback, cancelled) in live {
        if cancelled.load(Ordering::Relaxed) {
            continue;
        }
        if let Ok(output) = count_now(shared, version, &job) {
            if !cancelled.load(Ordering::Relaxed) {
                callback(
                    version,
                    &ChunkUpdate {
                        trials_run: output.trials_run,
                        budget: output.budget,
                        estimate: output.estimate,
                    },
                );
            }
        }
    }
}

/// Runs one owned computation with observability around it: the worker's
/// per-stage accumulator is scoped to the job, a panic in the counting code
/// neither kills the worker nor strands the jobs joined onto this
/// computation (the span stack self-heals during unwinding), and the
/// finished job lands in the slow-query trace log.
fn run_traced(shared: &Shared, entry: &QueueEntry) -> Result<JobOutput, ServiceError> {
    let _pause = (!shared.obs).then(sgc_obs::suspend);
    let started = std::time::Instant::now();
    sgc_obs::start_job();
    let result = catch_unwind(AssertUnwindSafe(|| run_job(shared, entry)))
        .unwrap_or(Err(ServiceError::WorkerLost));
    let stages = sgc_obs::end_job();
    if shared.obs && sgc_obs::enabled() {
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
    let _pause = (!shared.obs).then(sgc_obs::suspend);
    let started = std::time::Instant::now();
    let claim = {
        let _span = sgc_obs::span(sgc_obs::Stage::Cache);
        shared.cache.claim(key.clone(), &entry.state)
    };
    match claim {
        Claim::Served(output) => {
            Counters::bump(&shared.counters.cache_hits);
            Counters::bump(&shared.counters.jobs_completed);
            if shared.obs && sgc_obs::enabled() {
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

/// How a job's trials `a..b` are run — the only per-kind code of the
/// adaptive loop.
enum Trials<'a> {
    /// A plain job: the engine's incremental trial stream on the bound
    /// graph.
    Plain(TrialStream<'a, 'static, 'a>),
    /// A job pinned to a version: the delta-aware runtime
    /// ([`sgc_dyn::run_trials`]) under the engine's cached plan.
    At(VersionId, Arc<DecompositionTree>),
}

/// The adaptive trial loop of every job: run chunks of trials, stop at the
/// precision target, the budget, or a cancellation (checked once per chunk
/// boundary — cancellation never interrupts a chunk mid-trial, so the
/// trials that did run keep the seed+i contract).
///
/// Both kinds of [`Trials`] fold into an estimate with the very same
/// [`summarize_trials`] the engine uses — which is what makes every output
/// and every progress update bit-identical to a fixed-budget engine run of
/// exactly that many trials (on the version's materialized graph, for a
/// versioned job; pinned by `tests/dynamic.rs`).
///
/// A versioned job holds the version-chain read lock per chunk, not per
/// job, so [`Service::apply_delta`] interleaves with long counts at chunk
/// granularity.
fn run_job(shared: &Shared, entry: &QueueEntry) -> Result<JobOutput, ServiceError> {
    let (job, state) = (&entry.job, &entry.state);
    if state.is_cancelled() {
        return Err(ServiceError::Cancelled);
    }
    let mut trials = match entry.version {
        None => Trials::Plain(
            shared
                .engine
                .count(&job.query)
                .algorithm(job.algorithm)
                .seed(job.seed)
                .parallel(false)
                .obs(shared.obs)
                .estimate_incremental()?,
        ),
        Some(version) => Trials::At(version, shared.engine.plan(&job.query)?),
    };
    let mut per_trial: Vec<u64> = Vec::new();
    let mut acc = TrialAccumulator::new();
    let mut seconds = 0.0;
    let mut stop = StopReason::BudgetExhausted;
    while per_trial.len() < job.budget {
        let start = per_trial.len();
        let chunk = start..start + shared.chunk_trials.min(job.budget - start);
        let chunk_started = std::time::Instant::now();
        match &mut trials {
            Trials::Plain(stream) => {
                stream.run_chunk(chunk.len());
                per_trial.extend(&stream.per_trial()[chunk]);
            }
            Trials::At(version, tree) => {
                let spec = TrialSpec {
                    query: &job.query,
                    tree,
                    algorithm: job.algorithm,
                    seed: job.seed,
                    num_shards: shared.dyn_shards,
                };
                let dynamic = shared.dynamic.read().unwrap_or_else(|p| p.into_inner());
                let outcome = sgc_dyn::run_trials(
                    &dynamic,
                    &shared.partials,
                    *version,
                    &spec,
                    chunk,
                    &shared.pool,
                )?;
                per_trial.extend(outcome.per_trial);
            }
        }
        seconds += chunk_started.elapsed().as_secs_f64();
        for &count in &per_trial[start..] {
            acc.push(count as f64);
        }
        if state.has_progress() {
            // Summarized exactly as the final output will be, so every
            // update a watcher sees is bit-identical to a fixed-budget run
            // of that many trials (the invariant `sgc-net` streams over the
            // wire).
            state.emit_progress(&ChunkUpdate {
                trials_run: per_trial.len(),
                budget: job.budget,
                estimate: summarize_trials(per_trial.clone(), &job.query, seconds),
            });
        }
        if let Some(precision) = &job.precision {
            if acc.relative_half_width(precision.confidence) <= precision.target {
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
    if per_trial.is_empty() {
        return Err(ServiceError::Count(SgcError::ZeroTrials));
    }
    let trials_run = per_trial.len();
    Ok(JobOutput {
        estimate: summarize_trials(per_trial, &job.query, seconds),
        trials_run,
        budget: job.budget,
        stop,
        from_cache: false,
    })
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
                obs: true,
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
                obs: true,
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
                obs: true,
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
    fn batched_members_match_solo_submissions_bitwise() {
        let service = small_service(1);
        let batch = BatchJob::new()
            .push(CountJob::new(catalog::triangle()).seed(21).budget(10))
            .push(CountJob::new(catalog::cycle(4)).seed(21).budget(10))
            .push(CountJob::new(catalog::glet1()).seed(4).budget(6));
        let outputs: Vec<JobOutput> = service
            .run_batch(batch)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(outputs.len(), 3);
        // A separate service (fresh cache) computes each job solo: the
        // batched members must be bit-identical.
        let solo_service = small_service(1);
        for (output, job) in outputs.iter().zip([
            CountJob::new(catalog::triangle()).seed(21).budget(10),
            CountJob::new(catalog::cycle(4)).seed(21).budget(10),
            CountJob::new(catalog::glet1()).seed(4).budget(6),
        ]) {
            let solo = solo_service.run(job).unwrap();
            assert_eq!(output.estimate.per_trial, solo.estimate.per_trial);
            assert_eq!(
                output.estimate.estimated_matches.to_bits(),
                solo.estimate.estimated_matches.to_bits()
            );
            assert_eq!(output.trials_run, solo.trials_run);
            assert_eq!(output.stop, StopReason::BudgetExhausted);
        }
        assert_eq!(service.metrics().batches_submitted, 1);
        assert_eq!(service.metrics().jobs_submitted, 3);
    }

    #[test]
    fn batch_results_fan_into_the_single_flight_cache() {
        let service = small_service(1);
        let job = CountJob::new(catalog::triangle()).seed(8).budget(8);
        // Duplicate members inside one batch: the second joins the first
        // in flight through the cache and is served bit-identically.
        let results = service
            .run_batch(BatchJob::from_jobs(vec![job.clone(), job.clone()]))
            .unwrap();
        let first = results[0].as_ref().unwrap();
        let second = results[1].as_ref().unwrap();
        assert_eq!(first.estimate.per_trial, second.estimate.per_trial);
        // A later solo submission of the same job is a cache hit on the
        // batched result.
        let solo = service.run(job).unwrap();
        assert!(solo.from_cache);
        assert_eq!(solo.estimate.per_trial, first.estimate.per_trial);
        let metrics = service.metrics();
        assert_eq!(metrics.cache_misses, 1, "the batch computed once");
        assert_eq!(metrics.cache_hits, 2, "the twin and the solo follow-up");
    }

    #[test]
    fn batch_admission_is_atomic_and_counts_members() {
        let service = Service::with_config(
            demo_graph(),
            ServiceConfig {
                workers: 0,
                queue_capacity: 4,
                chunk_trials: 4,
                obs: true,
                ..ServiceConfig::default()
            },
        );
        // Five members cannot fit a capacity-4 queue: nothing is admitted.
        let five = BatchJob::from_jobs(vec![CountJob::new(catalog::triangle()); 5]);
        assert_eq!(
            service.submit_batch(five).unwrap_err(),
            ServiceError::QueueFull { capacity: 4 }
        );
        assert_eq!(service.metrics().queue_depth, 0);
        assert_eq!(service.metrics().jobs_rejected, 5);
        // Three members fit; a further two-member batch would overflow.
        let handles = service
            .submit_batch(BatchJob::from_jobs(vec![
                CountJob::new(catalog::triangle());
                3
            ]))
            .unwrap();
        assert_eq!(handles.len(), 3);
        assert_eq!(service.metrics().queue_depth, 3);
        assert_eq!(
            service
                .submit_batch(BatchJob::from_jobs(vec![
                    CountJob::new(catalog::cycle(4));
                    2
                ]))
                .unwrap_err(),
            ServiceError::QueueFull { capacity: 4 }
        );
        // Empty batches are a no-op.
        assert!(service.submit_batch(BatchJob::new()).unwrap().is_empty());
        // Shutdown fails the still-queued batch members.
        service.shutdown();
        for handle in handles {
            assert!(matches!(handle.wait(), Err(ServiceError::ShuttingDown)));
        }
    }

    #[test]
    fn precision_members_keep_their_adaptive_loop_inside_a_batch() {
        let service = small_service(1);
        let adaptive = CountJob::new(catalog::triangle())
            .seed(1000)
            .budget(400)
            .precision(Precision::within(0.5));
        let fixed = CountJob::new(catalog::cycle(4)).seed(1000).budget(12);
        let results = service
            .run_batch(BatchJob::from_jobs(vec![adaptive.clone(), fixed]))
            .unwrap();
        let adaptive_out = results[0].as_ref().unwrap();
        assert_eq!(adaptive_out.stop, StopReason::PrecisionMet);
        assert!(adaptive_out.trials_run < adaptive_out.budget);
        // Bit-identical to the solo adaptive run (fresh cache).
        let solo = small_service(1).run(adaptive).unwrap();
        assert_eq!(adaptive_out.trials_run, solo.trials_run);
        assert_eq!(adaptive_out.estimate.per_trial, solo.estimate.per_trial);
        let fixed_out = results[1].as_ref().unwrap();
        assert_eq!(fixed_out.trials_run, 12);
        assert_eq!(fixed_out.stop, StopReason::BudgetExhausted);
    }

    #[test]
    fn a_bad_batch_member_fails_alone() {
        let service = small_service(1);
        let mut k4 = sgc_query::QueryGraph::new(4);
        for a in 0..4u8 {
            for b in (a + 1)..4 {
                k4.add_edge(a, b).unwrap();
            }
        }
        let results = service
            .run_batch(BatchJob::from_jobs(vec![
                CountJob::new(catalog::triangle()).seed(2).budget(6),
                CountJob::new(k4),
            ]))
            .unwrap();
        let good = results[0].as_ref().unwrap();
        assert_eq!(good.trials_run, 6);
        assert!(matches!(
            results[1],
            Err(ServiceError::Count(sgc_core::SgcError::Query(_)))
        ));
        // The healthy member is still bit-identical to its solo run.
        let solo = small_service(1)
            .run(CountJob::new(catalog::triangle()).seed(2).budget(6))
            .unwrap();
        assert_eq!(good.estimate.per_trial, solo.estimate.per_trial);
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
