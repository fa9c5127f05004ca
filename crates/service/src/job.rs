//! Job descriptions, completion handles and outputs.
//!
//! A [`CountJob`] is everything a caller wants counted: the query, the
//! algorithm, the determinism seed, a trial *budget*, and optionally a
//! [`Precision`] target that lets the scheduler stop early once the
//! confidence interval is tight enough. Submission returns a [`JobHandle`];
//! [`JobHandle::wait`] blocks until the worker pool produces a
//! [`JobOutput`] (or a [`ServiceError`]); [`JobHandle::on_done`] hands it
//! to a hook instead, on the thread that produces it.

use crate::error::ServiceError;
use sgc_core::{Algorithm, Estimate};
use sgc_query::{Pattern, PatternParseError, QueryGraph, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A precision target for adaptive trial scheduling: stop once the relative
/// half-width of the confidence interval around the estimate drops to
/// `target` or below.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Precision {
    /// Maximum acceptable relative half-width (e.g. `0.1` = ±10%).
    pub target: f64,
    /// Confidence level of the interval (e.g. `0.95`).
    pub confidence: f64,
}

impl Precision {
    /// A target relative half-width at the conventional 95% confidence.
    pub fn within(target: f64) -> Self {
        Precision {
            target,
            confidence: 0.95,
        }
    }

    /// Sets the confidence level.
    pub fn at_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), ServiceError> {
        let ok = self.target.is_finite()
            && self.target > 0.0
            && self.confidence > 0.0
            && self.confidence < 1.0;
        if ok {
            Ok(())
        } else {
            Err(ServiceError::InvalidPrecision {
                target: self.target,
                confidence: self.confidence,
            })
        }
    }
}

/// One counting request, to be submitted with
/// [`Service::submit`](crate::Service::submit).
///
/// Defaults mirror the paper's measurement conventions: the Degree Based
/// algorithm, the engine's default seed, a 64-trial budget, and no early
/// stopping (run the whole budget).
#[derive(Clone, Debug)]
pub struct CountJob {
    /// The query to count.
    pub query: QueryGraph,
    /// Cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// Base RNG seed; trial `i` colors with `seed + i`, exactly as in the
    /// batch [`estimate`](sgc_core::CountRequest::estimate) API.
    pub seed: u64,
    /// Maximum number of trials the job may spend.
    pub budget: usize,
    /// Optional early-stop target; `None` runs the full budget.
    pub precision: Option<Precision>,
    /// Observability trace ID. `None` (the default) mints a fresh ID at
    /// submission; clients that propagate their own correlation IDs over
    /// the wire set it explicitly. Deliberately **not** part of the result
    /// cache identity (the internal `JobKey`): two submissions
    /// that differ only in trace ID are still the same computation.
    pub trace_id: Option<u64>,
}

impl CountJob {
    /// A job counting `query` with the default algorithm, seed and budget.
    pub fn new(query: QueryGraph) -> Self {
        CountJob {
            query,
            algorithm: Algorithm::DegreeBased,
            seed: 0x5eed,
            budget: 64,
            precision: None,
            trace_id: None,
        }
    }

    /// A job for a textual pattern — the service's parsing front door.
    ///
    /// The text is parsed against the built-in
    /// [`Registry`] (edge lists like `"a-b, b-c, c-a"`,
    /// generators like `cycle(5)`, catalog names like `glet1`; see
    /// [`sgc_query::parse`] for the grammar). The parsed query flows into
    /// the job exactly as a constructor-built one would, including the
    /// result cache's [`canonical_key`](sgc_query::canonical_key): a text
    /// job and an equivalent constructor job share one cache entry and
    /// produce bit-identical outputs.
    ///
    /// ```
    /// use sgc_query::catalog;
    /// use sgc_service::CountJob;
    ///
    /// let by_text = CountJob::from_pattern_str("cycle(5)").unwrap();
    /// let by_ctor = CountJob::new(catalog::cycle(5));
    /// assert_eq!(by_text.query, by_ctor.query);
    /// assert!(CountJob::from_pattern_str("cycle(").is_err());
    /// ```
    ///
    /// # Errors
    /// A spanned [`PatternParseError`] for malformed patterns; never panics.
    pub fn from_pattern_str(pattern: &str) -> Result<Self, PatternParseError> {
        Ok(CountJob::new(Pattern::parse(pattern)?.into_query()))
    }

    /// [`from_pattern_str`](CountJob::from_pattern_str) resolving bare names
    /// against a caller-supplied [`Registry`] (for runtime-registered
    /// patterns).
    ///
    /// # Errors
    /// A spanned [`PatternParseError`] for malformed patterns; never panics.
    pub fn from_pattern_str_with(
        registry: &Registry,
        pattern: &str,
    ) -> Result<Self, PatternParseError> {
        Ok(CountJob::new(
            Pattern::parse_with(registry, pattern)?.into_query(),
        ))
    }

    /// Selects the cycle-solving algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trial budget.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the early-stop precision target.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Sets an explicit observability trace ID (propagated from the wire);
    /// without it, submission mints a fresh one.
    pub fn trace(mut self, trace_id: u64) -> Self {
        self.trace_id = Some(trace_id);
        self
    }
}

/// Why a job stopped running trials.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The confidence interval met the requested precision target before the
    /// budget ran out.
    PrecisionMet,
    /// The trial budget was exhausted (always the reason when no precision
    /// target was set).
    BudgetExhausted,
    /// The job was cancelled ([`JobHandle::cancel`]) after at least one
    /// chunk of trials had run: the output carries the anytime estimate
    /// over the trials that completed before the cancellation took effect.
    /// Cancelled outputs are never stored in the result cache.
    Cancelled,
}

/// A progress snapshot delivered to a job's watcher after each chunk of
/// trials (see [`Service::submit_with_progress`](crate::Service::submit_with_progress)).
///
/// The embedded [`Estimate`] is anytime-consistent: bit-identical to what a
/// batch [`estimate`](sgc_core::CountRequest::estimate) of exactly
/// `trials_run` trials with the job's seed would return.
#[derive(Clone, Debug)]
pub struct ChunkUpdate {
    /// Trials executed so far (monotonically increasing across updates).
    pub trials_run: usize,
    /// The job's trial budget.
    pub budget: usize,
    /// The estimate over the trials executed so far.
    pub estimate: Estimate,
}

/// A job progress watcher: invoked synchronously on the worker thread after
/// every completed chunk of trials, strictly before the job's handle is
/// fulfilled. Keep it cheap — the worker does not run trials while the
/// watcher executes.
pub type ProgressFn = Arc<dyn Fn(&ChunkUpdate) + Send + Sync>;

/// The result of a completed job.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The estimate over the trials that actually ran. Anytime-consistent:
    /// bit-identical to a batch `estimate()` of exactly `trials_run` trials
    /// with the job's seed.
    pub estimate: Estimate,
    /// Trials executed (`≤ budget`; strictly fewer when the precision target
    /// stopped the job early).
    pub trials_run: usize,
    /// The budget the job was submitted with.
    pub budget: usize,
    /// Why the trial loop stopped.
    pub stop: StopReason,
    /// Whether this result was served from the result cache rather than
    /// computed for this submission.
    pub from_cache: bool,
}

/// A completion hook: runs once, with the job's result, on whichever thread
/// fulfils the job.
pub(crate) type DoneFn = Box<dyn FnOnce(Result<JobOutput, ServiceError>) + Send>;

/// Shared completion slot between a [`JobHandle`] and the worker pool.
pub(crate) struct JobState {
    slot: Mutex<Option<Result<JobOutput, ServiceError>>>,
    ready: Condvar,
    /// Set by [`JobHandle::cancel`] / [`CancelToken::cancel`]; the worker
    /// checks it at every chunk boundary.
    cancelled: AtomicBool,
    /// Optional per-chunk progress watcher, fixed at submission time.
    progress: Option<ProgressFn>,
    /// Optional completion hook, set at construction or by
    /// [`JobHandle::on_done`], taken by the fulfilment that wins the slot.
    done: Mutex<Option<DoneFn>>,
}

impl JobState {
    pub(crate) fn with_progress(progress: Option<ProgressFn>) -> Self {
        JobState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            cancelled: AtomicBool::new(false),
            progress,
            done: Mutex::new(None),
        }
    }

    /// A state whose fulfilment runs `done` (see [`fulfill`](JobState::fulfill)).
    pub(crate) fn with_done(done: DoneFn) -> Self {
        JobState {
            done: Mutex::new(Some(done)),
            ..JobState::with_progress(None)
        }
    }

    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Delivers a chunk update to the watcher, if one was registered.
    pub(crate) fn emit_progress(&self, update: &ChunkUpdate) {
        if let Some(progress) = &self.progress {
            progress(update);
        }
    }

    pub(crate) fn has_progress(&self) -> bool {
        self.progress.is_some()
    }

    /// Fills the slot (first writer wins) and wakes every waiter. The winner
    /// then runs the completion hook, if any, on its own thread and with no
    /// lock held: every caller fulfils only after releasing the service's
    /// locks, and after the cache holds what the job computed.
    pub(crate) fn fulfill(&self, result: Result<JobOutput, ServiceError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_some() {
            return;
        }
        let done = self.done.lock().unwrap_or_else(|p| p.into_inner()).take();
        *slot = Some(result);
        self.ready.notify_all();
        if let Some(done) = done {
            let result = slot.clone().expect("just filled");
            drop(slot);
            done(result);
        }
    }

    pub(crate) fn is_fulfilled(&self) -> bool {
        self.slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
    }

    fn wait(&self) -> Result<JobOutput, ServiceError> {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.ready.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn peek(&self) -> Option<Result<JobOutput, ServiceError>> {
        self.slot.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// A handle to one submitted job.
///
/// Obtained from [`Service::submit`](crate::Service::submit). Dropping the
/// handle does not cancel the job; it simply discards the result.
pub struct JobHandle {
    pub(crate) state: std::sync::Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("completed", &self.state.is_fulfilled())
            .finish()
    }
}

impl JobHandle {
    /// Blocks until the job completes and returns its output.
    pub fn wait(self) -> Result<JobOutput, ServiceError> {
        self.state.wait()
    }

    /// Runs `f` with the job's result exactly once: on the thread that
    /// fulfils the job (a service worker, or the caller of
    /// [`Service::shutdown`](crate::Service::shutdown)), or on this thread,
    /// now, when the job is already fulfilled. Every admitted job is
    /// fulfilled — by its run, a cancellation, or shutdown — so `f` always
    /// runs. The fulfilling thread runs `f` with no lock held, but runs
    /// nothing else meanwhile: keep it short or bounded.
    pub fn on_done(self, f: impl FnOnce(Result<JobOutput, ServiceError>) + Send + 'static) {
        // Under the slot lock `fulfill` takes, so the two cannot interleave.
        let slot = self.state.slot.lock().unwrap_or_else(|p| p.into_inner());
        match slot.clone() {
            Some(result) => {
                drop(slot);
                f(result);
            }
            None => *self.state.done.lock().unwrap_or_else(|p| p.into_inner()) = Some(Box::new(f)),
        }
    }

    /// Returns the result if the job has already completed, without
    /// blocking.
    pub fn try_result(&self) -> Option<Result<JobOutput, ServiceError>> {
        self.state.peek()
    }

    /// Requests cancellation of the job.
    ///
    /// Cancellation is cooperative and takes effect at the next chunk
    /// boundary of the adaptive trial loop: a job that already ran at least
    /// one chunk completes *successfully* with
    /// [`StopReason::Cancelled`] and the anytime estimate over the trials
    /// that did run; a job cancelled before its worker picked it up (or
    /// before its first chunk completed its follow-up check) fails with
    /// [`ServiceError::Cancelled`]. Cancelling a finished job is a no-op.
    /// Cancelled outputs are never stored in the result cache, so later
    /// identical submissions recompute the full result.
    pub fn cancel(&self) {
        self.state.cancel();
    }

    /// A detachable cancellation token for this job: lets one owner wait on
    /// the handle while another (a network connection reader, a timeout
    /// watchdog) can still cancel it.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            state: Arc::clone(&self.state),
        }
    }
}

/// A clonable token that can cancel one submitted job (see
/// [`JobHandle::cancel_token`]).
#[derive(Clone)]
pub struct CancelToken {
    state: Arc<JobState>,
}

impl CancelToken {
    /// Requests cancellation; same semantics as [`JobHandle::cancel`].
    pub fn cancel(&self) {
        self.state.cancel();
    }

    /// Whether cancellation has been requested (not whether it has taken
    /// effect yet).
    pub fn is_cancelled(&self) -> bool {
        self.state.is_cancelled()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.state.is_cancelled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_query::catalog;

    #[test]
    fn job_builder_sets_every_field() {
        let job = CountJob::new(catalog::triangle())
            .algorithm(Algorithm::PathSplitting)
            .seed(9)
            .budget(128)
            .precision(Precision::within(0.05).at_confidence(0.99))
            .trace(77);
        assert_eq!(job.algorithm, Algorithm::PathSplitting);
        assert_eq!(job.seed, 9);
        assert_eq!(job.budget, 128);
        let p = job.precision.unwrap();
        assert_eq!(p.target, 0.05);
        assert_eq!(p.confidence, 0.99);
        assert_eq!(job.trace_id, Some(77));
        // Trace IDs default to "mint one at submission".
        assert_eq!(CountJob::new(catalog::triangle()).trace_id, None);
    }

    #[test]
    fn pattern_jobs_match_constructor_jobs() {
        let text = CountJob::from_pattern_str("glet1").unwrap();
        let built = CountJob::new(catalog::glet1());
        assert_eq!(text.query, built.query);
        assert_eq!(text.seed, built.seed);
        assert_eq!(text.budget, built.budget);
        // Same canonical cache identity, by construction.
        assert_eq!(
            sgc_query::canonical_key(&text.query),
            sgc_query::canonical_key(&built.query)
        );
        // Custom registries resolve runtime names.
        let mut registry = sgc_query::Registry::with_catalog();
        registry
            .register(
                "paw",
                "triangle with a tail",
                catalog::query_by_name("youtube").unwrap(),
            )
            .unwrap();
        let custom = CountJob::from_pattern_str_with(&registry, "paw").unwrap();
        assert_eq!(custom.query, catalog::youtube());
        // Malformed patterns are spanned errors, not panics.
        let err = CountJob::from_pattern_str("a--b").unwrap_err();
        assert_eq!(err.span(), 2..3);
    }

    #[test]
    fn precision_validation() {
        assert!(Precision::within(0.1).validate().is_ok());
        for bad in [
            Precision::within(0.0),
            Precision::within(-1.0),
            Precision::within(f64::NAN),
            Precision::within(f64::INFINITY),
            Precision::within(0.1).at_confidence(0.0),
            Precision::within(0.1).at_confidence(1.0),
        ] {
            assert!(matches!(
                bad.validate(),
                Err(ServiceError::InvalidPrecision { .. })
            ));
        }
    }

    #[test]
    fn job_state_fulfill_once_and_wait() {
        let state = std::sync::Arc::new(JobState::with_progress(None));
        assert!(!state.is_fulfilled());
        state.fulfill(Err(ServiceError::WorkerLost));
        // Second fulfillment is ignored: first writer wins.
        state.fulfill(Err(ServiceError::ShuttingDown));
        assert!(state.is_fulfilled());
        let handle = JobHandle {
            state: state.clone(),
        };
        assert!(matches!(
            handle.try_result(),
            Some(Err(ServiceError::WorkerLost))
        ));
        assert!(matches!(handle.wait(), Err(ServiceError::WorkerLost)));
    }

    #[test]
    fn the_completion_hook_runs_once_with_the_winning_result() {
        let runs: Arc<Mutex<Vec<Result<JobOutput, ServiceError>>>> = Arc::default();
        let sink = Arc::clone(&runs);
        let state = JobState::with_done(Box::new(move |result| {
            sink.lock().unwrap().push(result);
        }));
        state.fulfill(Err(ServiceError::WorkerLost));
        state.fulfill(Err(ServiceError::ShuttingDown));
        let runs = runs.lock().unwrap();
        assert_eq!(runs.len(), 1);
        assert!(matches!(runs[0], Err(ServiceError::WorkerLost)));
        assert!(matches!(state.peek(), Some(Err(ServiceError::WorkerLost))));
    }

    #[test]
    fn a_hook_installed_before_fulfill_runs_on_the_fulfilling_thread() {
        let state = Arc::new(JobState::with_progress(None));
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = JobHandle {
            state: Arc::clone(&state),
        };
        handle.on_done(move |result| {
            tx.send((std::thread::current().id(), result)).unwrap();
        });
        assert!(rx.try_recv().is_err(), "the job is not fulfilled yet");
        let fulfiller = std::thread::spawn(move || {
            state.fulfill(Err(ServiceError::ShuttingDown));
            std::thread::current().id()
        });
        let fulfiller = fulfiller.join().unwrap();
        let (ran_on, result) = rx.try_recv().expect("fulfil ran the hook");
        assert_eq!(ran_on, fulfiller);
        assert!(matches!(result, Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn a_hook_installed_after_fulfill_runs_on_the_caller() {
        let state = Arc::new(JobState::with_progress(None));
        state.fulfill(Err(ServiceError::Cancelled));
        let ran_on = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&ran_on);
        JobHandle { state }.on_done(move |result| {
            assert!(matches!(result, Err(ServiceError::Cancelled)));
            *sink.lock().unwrap() = Some(std::thread::current().id());
        });
        // `on_done` returned only after running the hook, on this thread.
        assert_eq!(*ran_on.lock().unwrap(), Some(std::thread::current().id()));
    }

    #[test]
    fn an_on_done_hook_runs_exactly_once_even_for_an_error() {
        let runs: Arc<Mutex<Vec<Result<JobOutput, ServiceError>>>> = Arc::default();
        let state = Arc::new(JobState::with_progress(None));
        let sink = Arc::clone(&runs);
        let handle = JobHandle {
            state: Arc::clone(&state),
        };
        handle.on_done(move |result| sink.lock().unwrap().push(result));
        state.fulfill(Err(ServiceError::WorkerLost));
        state.fulfill(Err(ServiceError::ShuttingDown));
        // A hook installed after fulfilment runs once too, with the same
        // winning result.
        let sink = Arc::clone(&runs);
        JobHandle {
            state: Arc::clone(&state),
        }
        .on_done(move |result| sink.lock().unwrap().push(result));
        state.fulfill(Err(ServiceError::Cancelled));
        let runs = runs.lock().unwrap();
        assert_eq!(runs.len(), 2);
        assert!(runs
            .iter()
            .all(|run| matches!(run, Err(ServiceError::WorkerLost))));
    }

    #[test]
    fn wait_blocks_until_a_worker_fulfills() {
        let state = std::sync::Arc::new(JobState::with_progress(None));
        let handle = JobHandle {
            state: state.clone(),
        };
        let waiter = std::thread::spawn(move || handle.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        state.fulfill(Err(ServiceError::ShuttingDown));
        assert!(matches!(
            waiter.join().unwrap(),
            Err(ServiceError::ShuttingDown)
        ));
    }
}
