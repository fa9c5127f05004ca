//! Service-level operational metrics.
//!
//! Counters are lock-free atomics bumped on the submission and worker
//! paths; [`ServiceMetrics`] is a coherent-enough snapshot for dashboards
//! and tests (individual counters are exact, cross-counter invariants may
//! lag by in-flight jobs).

use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time snapshot of the service counters, from
/// [`Service::metrics`](crate::Service::metrics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Jobs accepted by admission control.
    pub jobs_submitted: u64,
    /// Jobs rejected with `QueueFull`.
    pub jobs_rejected: u64,
    /// Jobs fulfilled (computed, served from cache, or joined in flight).
    pub jobs_completed: u64,
    /// Jobs currently waiting in the work queue.
    pub queue_depth: usize,
    /// Jobs answered by the result cache — completed entries *and* joins
    /// onto an identical in-flight computation.
    pub cache_hits: u64,
    /// Jobs that had to compute (first arrival of their key).
    pub cache_misses: u64,
    /// Completed results currently held by the cache.
    pub cached_results: usize,
    /// Counting trials actually executed by the workers.
    pub trials_executed: u64,
    /// Trials *not* run because adaptive scheduling stopped jobs before
    /// their budget — the work early stopping saved.
    pub trials_saved: u64,
    /// Jobs whose cancellation took effect: stopped at a chunk boundary
    /// with a partial estimate, or failed with
    /// [`ServiceError::Cancelled`](crate::ServiceError::Cancelled) before
    /// any trials ran.
    pub jobs_cancelled: u64,
    /// Completed results evicted from the bounded result cache (LRU over
    /// the per-version job keys) to honor its capacity.
    pub cache_evictions: u64,
    /// Live watch subscriptions (cancelled ones excluded). Not carried by
    /// the wire `stats` frame; read it from the `service_watchers`
    /// exposition line.
    pub watchers: usize,
    /// Versions a watcher was owed that a newer delta superseded before
    /// their emission was queued: the re-counts latest-version-wins
    /// coalescing saved. Not carried by the wire `stats` frame; read it
    /// from the `service_watch_emissions_coalesced` exposition line.
    pub watch_emissions_coalesced: u64,
}

impl ServiceMetrics {
    /// Fraction of cache-routed jobs answered without a computation,
    /// `hits / (hits + misses)`. `0.0` before any job completes routing.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The stable text form of the metrics: one `name value` pair per line, in
/// a fixed order, no trailing newline.
///
/// This is the *serialization contract* shared by every consumer that
/// prints metrics — the `sgc-net` `stats` verb renders the snapshot it
/// received over the wire with this impl — so scrapers can parse one
/// format everywhere. New fields are only ever appended, and none is ever
/// removed: `batches_submitted` outlived the batch API it counted and
/// always reads 0.
impl std::fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "jobs_submitted    {}\n\
             batches_submitted 0\n\
             jobs_rejected     {}\n\
             jobs_completed    {}\n\
             jobs_cancelled    {}\n\
             queue_depth       {}\n\
             cache_hits        {}\n\
             cache_misses      {}\n\
             cache_hit_rate    {:.4}\n\
             cached_results    {}\n\
             trials_executed   {}\n\
             trials_saved      {}\n\
             cache_evictions   {}",
            self.jobs_submitted,
            self.jobs_rejected,
            self.jobs_completed,
            self.jobs_cancelled,
            self.queue_depth,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate(),
            self.cached_results,
            self.trials_executed,
            self.trials_saved,
            self.cache_evictions,
        )
    }
}

/// The live counters behind [`ServiceMetrics`].
#[derive(Default)]
pub(crate) struct Counters {
    pub jobs_submitted: AtomicU64,
    pub jobs_rejected: AtomicU64,
    pub jobs_completed: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub trials_executed: AtomicU64,
    pub trials_saved: AtomicU64,
    pub jobs_cancelled: AtomicU64,
    pub watch_emissions_coalesced: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        cached_results: usize,
        cache_evictions: u64,
        watchers: usize,
    ) -> ServiceMetrics {
        ServiceMetrics {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            queue_depth,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cached_results,
            trials_executed: self.trials_executed.load(Ordering::Relaxed),
            trials_saved: self.trials_saved.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            cache_evictions,
            watchers,
            watch_emissions_coalesced: self.watch_emissions_coalesced.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn add(counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        Counters::add(counter, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_every_counter() {
        let counters = Counters::default();
        Counters::bump(&counters.jobs_submitted);
        Counters::bump(&counters.jobs_submitted);
        Counters::bump(&counters.jobs_rejected);
        Counters::bump(&counters.jobs_completed);
        Counters::bump(&counters.cache_hits);
        Counters::add(&counters.trials_executed, 40);
        Counters::add(&counters.trials_saved, 24);
        Counters::bump(&counters.watch_emissions_coalesced);
        let snap = counters.snapshot(3, 1, 2, 5);
        assert_eq!(snap.jobs_submitted, 2);
        assert_eq!(snap.jobs_rejected, 1);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 0);
        assert_eq!(snap.cached_results, 1);
        assert_eq!(snap.trials_executed, 40);
        assert_eq!(snap.trials_saved, 24);
        assert_eq!(snap.cache_evictions, 2);
        assert_eq!(snap.watchers, 5);
        assert_eq!(snap.watch_emissions_coalesced, 1);
    }

    #[test]
    fn hit_rate_handles_the_empty_case() {
        let mut snap = ServiceMetrics::default();
        assert_eq!(snap.cache_hit_rate(), 0.0);
        snap.cache_hits = 3;
        snap.cache_misses = 1;
        assert!((snap.cache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
