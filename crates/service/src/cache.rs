//! The result cache: single-flight, keyed by the full determinism tuple.
//!
//! Because estimation is deterministic — trial `i` colors with `seed + i`,
//! and the adaptive stopping rule is a pure function of the per-trial
//! counts — two jobs with the same (graph, canonical query, algorithm,
//! seed, budget, precision) tuple are guaranteed to produce bit-identical
//! outputs. The cache exploits that in both directions:
//!
//! * **memoization** — a completed result is stored and replayed for every
//!   later identical submission, and
//! * **single-flight** — while a result is being computed, identical jobs
//!   *join* the in-flight computation instead of starting their own; all of
//!   them are fulfilled by the one worker that runs it.
//!
//! Keys never include the graph itself: the owning service binds one graph
//! and stamps its [`fingerprint`](sgc_graph::CsrGraph::fingerprint) into
//! every key, so cached results can never leak across graphs even if
//! services are rebuilt.

use crate::error::ServiceError;
use crate::job::{CountJob, JobOutput, JobState};
use sgc_core::prelude::Count;
use sgc_query::{canonical_key, CanonicalQueryKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The cache identity of a job: everything its output deterministically
/// depends on.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct JobKey {
    graph_fingerprint: u64,
    query: CanonicalQueryKey,
    algorithm: sgc_core::Algorithm,
    seed: u64,
    budget: usize,
    /// Bit patterns of (target, confidence); `None` = no early stopping.
    precision: Option<(u64, u64)>,
}

impl JobKey {
    pub(crate) fn new(graph_fingerprint: u64, job: &CountJob) -> Self {
        JobKey {
            graph_fingerprint,
            query: canonical_key(&job.query),
            algorithm: job.algorithm,
            seed: job.seed,
            budget: job.budget,
            precision: job
                .precision
                .map(|p| (p.target.to_bits(), p.confidence.to_bits())),
        }
    }

    /// The same job's key on another graph (version).
    pub(crate) fn at(&self, graph_fingerprint: u64) -> Self {
        JobKey {
            graph_fingerprint,
            ..self.clone()
        }
    }
}

/// A cache slot: either a computation in progress (with the handles of
/// every job waiting to be fulfilled by it) or a completed output with its
/// last-served recency tick (what the LRU bound evicts on).
enum Slot {
    InFlight(Vec<Arc<JobState>>),
    Ready { output: JobOutput, last_used: u64 },
}

/// What [`ResultCache::claim`] decided about a job.
///
/// The cache never fulfills job handles on this path — it hands decisions
/// (and, for completions, the waiter handles) back to the worker, which
/// updates the service counters *before* fulfilling. That ordering is what
/// makes the metrics trustworthy: once a caller's `wait()` returns, the
/// hit/miss that produced the result is already counted.
pub(crate) enum Claim {
    /// The caller owns the computation: run it, then call
    /// [`ResultCache::complete`] and fulfill its returned waiters.
    Compute,
    /// A completed entry matched: fulfill the job with this output
    /// (already marked `from_cache`).
    Served(JobOutput),
    /// The job was attached to an identical in-flight computation; the
    /// worker that owns it will receive this job's handle from
    /// [`ResultCache::complete`] and fulfill it.
    Joined,
}

/// The single-flight result cache, bounded to `capacity` completed
/// entries.
///
/// With versioned graphs every delta mints a fresh version id, and every
/// version's jobs get their own cache keys — an unbounded cache would grow
/// with the lifetime of the chain. The bound applies to *completed*
/// entries only: in-flight slots are never evicted (jobs are joined onto
/// them), and eviction picks the least recently *served* ready entry.
pub(crate) struct ResultCache {
    slots: Mutex<HashMap<JobKey, Slot>>,
    capacity: usize,
    tick: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            slots: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<JobKey, Slot>> {
        // Entries are only ever whole `Slot` values; a panicking worker
        // cannot leave one torn, so poisoning is recoverable.
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Routes one job through the cache: serve it, join it to an in-flight
    /// twin, or hand the computation to the caller.
    pub(crate) fn claim(&self, key: JobKey, state: &Arc<JobState>) -> Claim {
        let tick = self.next_tick();
        let mut slots = self.lock();
        match slots.get_mut(&key) {
            Some(Slot::Ready { output, last_used }) => {
                *last_used = tick;
                let mut served = output.clone();
                served.from_cache = true;
                Claim::Served(served)
            }
            Some(Slot::InFlight(waiters)) => {
                waiters.push(Arc::clone(state));
                Claim::Joined
            }
            None => {
                slots.insert(key, Slot::InFlight(Vec::new()));
                Claim::Compute
            }
        }
    }

    /// Completes a computation previously claimed with [`Claim::Compute`]:
    /// stores successful outputs for future hits, drops failed entries
    /// (errors are not cached), and returns the handles of every joined
    /// waiter for the caller to fulfill (after counting them).
    ///
    /// Cancelled outputs ([`StopReason::Cancelled`]) are also *not* stored:
    /// they cover fewer trials than the key's budget promises, so caching
    /// them would serve a truncated estimate to later identical jobs that
    /// nobody cancelled. For the same reason the worker fails waiters that
    /// joined a cancelled computation with [`ServiceError::Cancelled`]
    /// instead of fulfilling them with the partial output — they asked for
    /// the full budget and never cancelled; failing lets them retry (the
    /// key is free again, so the retry recomputes).
    pub(crate) fn complete(
        &self,
        key: JobKey,
        result: &Result<JobOutput, ServiceError>,
    ) -> Vec<Arc<JobState>> {
        let mut slots = self.lock();
        let waiters = match slots.remove(&key) {
            Some(Slot::InFlight(waiters)) => waiters,
            // A Ready entry or a missing one means claim/complete were not
            // paired; nothing waits on us either way.
            _ => Vec::new(),
        };
        if let Ok(output) = result {
            if output.stop != crate::job::StopReason::Cancelled {
                slots.insert(
                    key,
                    Slot::Ready {
                        output: output.clone(),
                        last_used: self.tick.fetch_add(1, Ordering::Relaxed) + 1,
                    },
                );
                // Enforce the bound: evict least-recently-served ready
                // entries (never in-flight slots) until we fit.
                let mut evicted = 0u64;
                while slots
                    .values()
                    .filter(|s| matches!(s, Slot::Ready { .. }))
                    .count()
                    > self.capacity
                {
                    let victim = slots
                        .iter()
                        .filter_map(|(k, s)| match s {
                            Slot::Ready { last_used, .. } => Some((*last_used, k.clone())),
                            Slot::InFlight(_) => None,
                        })
                        .min_by_key(|(last_used, _)| *last_used)
                        .map(|(_, k)| k)
                        .expect("over capacity implies a ready entry");
                    slots.remove(&victim);
                    evicted += 1;
                }
                if evicted > 0 {
                    self.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
            }
        }
        waiters
    }

    /// The per-trial counts of the completed entry under `key`, if there is
    /// one: what a job at a child version recounts from. Does not refresh
    /// the entry's recency.
    pub(crate) fn per_trial(&self, key: &JobKey) -> Option<Vec<Count>> {
        match self.lock().get(key)? {
            Slot::Ready { output, .. } => Some(output.estimate.per_trial.clone()),
            Slot::InFlight(_) => None,
        }
    }

    /// Completed entries evicted so far to honor the capacity bound.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of completed results currently held.
    pub(crate) fn ready_entries(&self) -> usize {
        self.lock()
            .values()
            .filter(|slot| matches!(slot, Slot::Ready { .. }))
            .count()
    }

    /// Fails every in-flight waiter (used on shutdown after the workers
    /// have exited: nothing will complete those computations anymore).
    pub(crate) fn fail_in_flight(&self, error: ServiceError) {
        let mut waiters = Vec::new();
        self.lock().retain(|_, slot| match slot {
            Slot::InFlight(joined) => {
                waiters.append(joined);
                false
            }
            Slot::Ready { .. } => true,
        });
        // Fulfilled after the lock is released: a fulfilment may run a
        // completion hook.
        for waiter in waiters {
            waiter.fulfill(Err(error.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Precision, StopReason};
    use sgc_query::{catalog, QueryGraph};

    fn demo_output() -> JobOutput {
        // A structurally valid output; the cache never inspects it.
        let graph = {
            let mut b = sgc_graph::GraphBuilder::new(4);
            b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
            b.build()
        };
        let estimate = sgc_core::Engine::new(&graph)
            .count(&catalog::triangle())
            .trials(2)
            .estimate()
            .unwrap();
        JobOutput {
            estimate,
            trials_run: 2,
            budget: 2,
            stop: StopReason::BudgetExhausted,
            from_cache: false,
        }
    }

    fn demo_key(seed: u64) -> JobKey {
        JobKey::new(7, &CountJob::new(catalog::triangle()).seed(seed))
    }

    #[test]
    fn keys_canonicalize_the_query_and_separate_everything_else() {
        let job = CountJob::new(catalog::triangle());
        let twin = CountJob::new(QueryGraph::from_edges(3, &[(2, 0), (1, 2), (0, 1)]).unwrap());
        assert_eq!(JobKey::new(1, &job), JobKey::new(1, &twin));
        // Any differing component separates the keys.
        assert_ne!(JobKey::new(1, &job), JobKey::new(2, &job));
        assert_ne!(JobKey::new(1, &job), JobKey::new(1, &job.clone().seed(1)));
        assert_ne!(
            JobKey::new(1, &job),
            JobKey::new(1, &job.clone().budget(65))
        );
        assert_ne!(
            JobKey::new(1, &job),
            JobKey::new(
                1,
                &job.clone().algorithm(sgc_core::Algorithm::PathSplitting)
            )
        );
        assert_ne!(
            JobKey::new(1, &job),
            JobKey::new(1, &job.clone().precision(Precision::within(0.1)))
        );
    }

    #[test]
    fn claim_compute_then_complete_serves_later_submissions() {
        let cache = ResultCache::new(64);
        let first = Arc::new(JobState::with_progress(None));
        assert!(matches!(cache.claim(demo_key(0), &first), Claim::Compute));
        assert!(cache.complete(demo_key(0), &Ok(demo_output())).is_empty());
        assert_eq!(cache.ready_entries(), 1);

        let second = Arc::new(JobState::with_progress(None));
        match cache.claim(demo_key(0), &second) {
            Claim::Served(output) => assert!(output.from_cache),
            _ => panic!("expected a Served claim from a completed entry"),
        }

        // A different key still computes.
        let third = Arc::new(JobState::with_progress(None));
        assert!(matches!(cache.claim(demo_key(1), &third), Claim::Compute));
    }

    #[test]
    fn in_flight_twins_join_and_their_handles_return_on_completion() {
        let cache = ResultCache::new(64);
        let owner = Arc::new(JobState::with_progress(None));
        let joined_a = Arc::new(JobState::with_progress(None));
        let joined_b = Arc::new(JobState::with_progress(None));
        assert!(matches!(cache.claim(demo_key(0), &owner), Claim::Compute));
        assert!(matches!(cache.claim(demo_key(0), &joined_a), Claim::Joined));
        assert!(matches!(cache.claim(demo_key(0), &joined_b), Claim::Joined));
        assert!(!joined_a.is_fulfilled());

        let waiters = cache.complete(demo_key(0), &Ok(demo_output()));
        assert_eq!(waiters.len(), 2);
        assert!(waiters.iter().any(|w| Arc::ptr_eq(w, &joined_a)));
        assert!(waiters.iter().any(|w| Arc::ptr_eq(w, &joined_b)));
        // complete() hands the waiters back unfulfilled: the worker counts
        // the hits first, then fulfills. The owner's state is never among
        // them.
        assert!(!joined_a.is_fulfilled());
        assert!(!waiters.iter().any(|w| Arc::ptr_eq(w, &owner)));
        // Later arrivals of the same key are served from the stored entry.
        assert!(matches!(
            cache.claim(demo_key(0), &Arc::new(JobState::with_progress(None))),
            Claim::Served(_)
        ));
    }

    #[test]
    fn errors_free_the_key_and_are_not_cached() {
        let cache = ResultCache::new(64);
        let owner = Arc::new(JobState::with_progress(None));
        let joined = Arc::new(JobState::with_progress(None));
        cache.claim(demo_key(0), &owner);
        cache.claim(demo_key(0), &joined);
        let waiters = cache.complete(
            demo_key(0),
            &Err(ServiceError::Count(sgc_core::SgcError::ZeroTrials)),
        );
        assert_eq!(waiters.len(), 1);
        assert_eq!(cache.ready_entries(), 0);
        // The key is free again: the next identical job recomputes.
        let retry = Arc::new(JobState::with_progress(None));
        assert!(matches!(cache.claim(demo_key(0), &retry), Claim::Compute));
    }

    #[test]
    fn fail_in_flight_keeps_ready_entries() {
        let cache = ResultCache::new(64);
        let done = Arc::new(JobState::with_progress(None));
        cache.claim(demo_key(0), &done);
        cache.complete(demo_key(0), &Ok(demo_output()));
        let stuck = Arc::new(JobState::with_progress(None));
        let joined = Arc::new(JobState::with_progress(None));
        cache.claim(demo_key(1), &stuck);
        cache.claim(demo_key(1), &joined);
        cache.fail_in_flight(ServiceError::ShuttingDown);
        assert!(matches!(
            JobHandleProbe(&joined).error(),
            Some(ServiceError::ShuttingDown)
        ));
        assert_eq!(cache.ready_entries(), 1);
    }

    /// Test-only view into a `JobState`.
    struct JobHandleProbe<'a>(&'a Arc<JobState>);

    impl JobHandleProbe<'_> {
        fn error(&self) -> Option<ServiceError> {
            crate::job::JobHandle {
                state: Arc::clone(self.0),
            }
            .try_result()
            .and_then(|r| r.err())
        }
    }
}
