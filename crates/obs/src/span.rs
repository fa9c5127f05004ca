//! Scoped stage timers with a thread-local span stack.
//!
//! [`span(stage)`](span) starts a monotonic timer and pushes the stage onto
//! the current thread's span stack; dropping the returned [`SpanGuard`]
//! pops it and records the elapsed nanoseconds into three sinks:
//!
//! 1. the stage's process-wide [`Histogram`] (for the registry exposition),
//! 2. the thread's fixed-capacity ring of recent spans (lock-free: the ring
//!    is thread-local, so recording never contends),
//! 3. the per-job [`StageNanos`] accumulator, when the thread is currently
//!    inside [`start_job`]/[`end_job`] (the service worker loop's job
//!    recorder).
//!
//! Guards are zero-allocation: a `Stage` copy and an `Option<Instant>`.
//! When observability is off — globally via [`set_enabled`] or on this
//! thread via [`suspend`] — a guard is a single relaxed load plus a `None`,
//! and its drop is a branch. Panic unwinding drops live guards in reverse
//! creation order, so the span stack self-heals across `catch_unwind`
//! boundaries (pinned by a test below).

use crate::hist::Histogram;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Number of stages in the taxonomy.
pub const STAGE_COUNT: usize = 12;

/// Capacity of each thread's ring of recent spans.
pub const RING_CAPACITY: usize = 256;

/// The fixed stage taxonomy, covering the whole path from binding a graph
/// to writing a response frame. Names are stable: they appear in the
/// registry exposition (underscore form) and in trace breakdowns (dotted
/// form) and are pinned by the CI snapshot list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Graph preprocessing at engine bind (`GraphPrep`).
    Bind,
    /// Query decomposition planning (cache misses pay this).
    Plan,
    /// Drawing one random coloring.
    Coloring,
    /// Retired: solving one block on the deleted hash-map kernel. Nothing
    /// records it; the stage stays because the exposition name set is
    /// append-only.
    DpBlockScalar,
    /// Solving one block of the plan (one shard's share) on the DP kernel.
    DpBlockColumnar,
    /// One partial-sum exchange round of the sharded runtime.
    Exchange,
    /// One estimator chunk (a batch of trials through `run_chunk`).
    EstimatorChunk,
    /// One result-cache claim (hit, join or miss decision).
    Cache,
    /// Encoding one response frame payload.
    NetEncode,
    /// Writing + flushing one response frame to a socket.
    NetWrite,
    /// Applying one edge-delta batch to the versioned graph store (segment
    /// rebuild + version-chain bookkeeping).
    DeltaApply,
    /// Retired: replaying a cached shard partial in the deleted per-shard
    /// recount of a graph version (a version's trials now recount the ball
    /// around its delta, on the kernel). Nothing records it; the stage stays
    /// because the exposition name set is append-only.
    DpRecountReplay,
}

impl Stage {
    /// Every stage, in taxonomy order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Bind,
        Stage::Plan,
        Stage::Coloring,
        Stage::DpBlockScalar,
        Stage::DpBlockColumnar,
        Stage::Exchange,
        Stage::EstimatorChunk,
        Stage::Cache,
        Stage::NetEncode,
        Stage::NetWrite,
        Stage::DeltaApply,
        Stage::DpRecountReplay,
    ];

    /// The stable dotted stage name (`"dp.block.columnar"`), used in trace
    /// breakdowns.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Bind => "bind",
            Stage::Plan => "plan",
            Stage::Coloring => "coloring",
            Stage::DpBlockScalar => "dp.block.scalar",
            Stage::DpBlockColumnar => "dp.block.columnar",
            Stage::Exchange => "exchange",
            Stage::EstimatorChunk => "estimator.chunk",
            Stage::Cache => "cache",
            Stage::NetEncode => "net.encode",
            Stage::NetWrite => "net.write",
            Stage::DeltaApply => "delta.apply",
            Stage::DpRecountReplay => "dp.recount.replay",
        }
    }

    /// The exposition metric prefix (`"span_dp_block_columnar"`): the
    /// dotted name with dots flattened to underscores.
    pub fn metric_prefix(self) -> &'static str {
        match self {
            Stage::Bind => "span_bind",
            Stage::Plan => "span_plan",
            Stage::Coloring => "span_coloring",
            Stage::DpBlockScalar => "span_dp_block_scalar",
            Stage::DpBlockColumnar => "span_dp_block_columnar",
            Stage::Exchange => "span_exchange",
            Stage::EstimatorChunk => "span_estimator_chunk",
            Stage::Cache => "span_cache",
            Stage::NetEncode => "span_net_encode",
            Stage::NetWrite => "span_net_write",
            Stage::DeltaApply => "span_delta_apply",
            Stage::DpRecountReplay => "span_dp_recount_replay",
        }
    }

    /// The stage's index into [`Stage::ALL`]-ordered arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The process-wide latency histogram for this stage (nanoseconds).
    pub fn histogram(self) -> &'static Histogram {
        &STAGE_HISTOGRAMS[self.index()]
    }
}

/// One process-wide histogram per stage. Span recording indexes straight
/// into this static — no map lookup, no lock — which is what keeps the hot
/// path allocation-free.
static STAGE_HISTOGRAMS: [Histogram; STAGE_COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: Histogram = Histogram::new();
    [EMPTY; STAGE_COUNT]
};

/// Global on/off switch (default on). Per-thread suspension stacks on top.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns span recording on or off process-wide. Used by the overhead
/// benchmark; per-request opt-out goes through [`suspend`] instead.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span recording is currently enabled for this thread (the global
/// switch is on and no [`suspend`] guard is live here).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && TL.with(|t| t.borrow().suspended == 0)
}

struct ThreadObs {
    stack: Vec<Stage>,
    ring: Vec<(Stage, u64)>,
    ring_next: usize,
    job: Option<Box<StageNanos>>,
    suspended: u32,
}

impl ThreadObs {
    const fn new() -> Self {
        ThreadObs {
            stack: Vec::new(),
            ring: Vec::new(),
            ring_next: 0,
            job: None,
            suspended: 0,
        }
    }

    fn push_ring(&mut self, stage: Stage, ns: u64) {
        if self.ring.capacity() == 0 {
            self.ring.reserve_exact(RING_CAPACITY);
        }
        if self.ring.len() < RING_CAPACITY {
            self.ring.push((stage, ns));
        } else {
            self.ring[self.ring_next] = (stage, ns);
            self.ring_next = (self.ring_next + 1) % RING_CAPACITY;
        }
    }
}

thread_local! {
    static TL: RefCell<ThreadObs> = const { RefCell::new(ThreadObs::new()) };
}

/// A live span: created by [`span`], records on drop.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    stage: Stage,
    start: Option<Instant>,
}

impl SpanGuard {
    /// The stage this guard measures.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Whether this guard is actually recording (observability was enabled
    /// when it was created).
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

/// Starts a span for `stage` on this thread. The guard records into the
/// stage histogram, the thread ring and the active job accumulator when
/// dropped; when observability is disabled it is inert.
pub fn span(stage: Stage) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { stage, start: None };
    }
    let active = TL.with(|t| {
        let mut t = t.borrow_mut();
        if t.suspended > 0 {
            false
        } else {
            t.stack.push(stage);
            true
        }
    });
    SpanGuard {
        stage,
        start: active.then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stage.histogram().record(ns);
        TL.with(|t| {
            let mut t = t.borrow_mut();
            t.stack.pop();
            t.push_ring(self.stage, ns);
            if let Some(job) = t.job.as_mut() {
                job.add(self.stage, ns);
            }
        });
    }
}

/// Suspends span recording on this thread until the guard drops. Guards
/// nest; recording resumes when the outermost one is released. This is how
/// a request built with `.obs(false)` turns a single run's instrumentation off
/// without touching the process-wide switch.
pub fn suspend() -> PauseGuard {
    TL.with(|t| t.borrow_mut().suspended += 1);
    PauseGuard { _private: () }
}

/// A live [`suspend`] scope.
#[must_use = "recording resumes when the guard drops"]
pub struct PauseGuard {
    _private: (),
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        TL.with(|t| {
            let mut t = t.borrow_mut();
            t.suspended = t.suspended.saturating_sub(1);
        });
    }
}

/// Current nesting depth of the span stack on this thread (for tests and
/// debugging).
pub fn depth() -> usize {
    TL.with(|t| t.borrow().stack.len())
}

/// A copy of this thread's ring of recent completed spans, oldest first
/// (up to [`RING_CAPACITY`] entries of `(stage, nanoseconds)`).
pub fn recent() -> Vec<(Stage, u64)> {
    TL.with(|t| {
        let t = t.borrow();
        let mut out = Vec::with_capacity(t.ring.len());
        if t.ring.len() == RING_CAPACITY {
            out.extend_from_slice(&t.ring[t.ring_next..]);
            out.extend_from_slice(&t.ring[..t.ring_next]);
        } else {
            out.extend_from_slice(&t.ring);
        }
        out
    })
}

/// Per-stage time and span counts accumulated over one job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageNanos {
    totals: [u64; STAGE_COUNT],
    counts: [u64; STAGE_COUNT],
}

impl StageNanos {
    /// Adds one completed span.
    pub fn add(&mut self, stage: Stage, ns: u64) {
        self.totals[stage.index()] = self.totals[stage.index()].saturating_add(ns);
        self.counts[stage.index()] += 1;
    }

    /// Total nanoseconds spent in `stage`. Nested stages each accumulate
    /// their own wall time, so totals across stages overlap by design.
    pub fn total_ns(&self, stage: Stage) -> u64 {
        self.totals[stage.index()]
    }

    /// Number of spans recorded for `stage`.
    pub fn count(&self, stage: Stage) -> u64 {
        self.counts[stage.index()]
    }

    /// Stages with at least one span, as `(stage, spans, total_ns)`.
    pub fn nonzero(&self) -> Vec<(Stage, u64, u64)> {
        Stage::ALL
            .iter()
            .filter(|s| self.counts[s.index()] > 0)
            .map(|&s| (s, self.counts[s.index()], self.totals[s.index()]))
            .collect()
    }
}

/// Begins collecting the current thread's spans into a fresh per-job
/// accumulator (replacing any previous one). The service worker loop calls
/// this before running a job and [`end_job`] after, panic or not.
pub fn start_job() {
    TL.with(|t| t.borrow_mut().job = Some(Box::default()));
}

/// Ends the current thread's job scope and returns its accumulated stage
/// breakdown (empty if [`start_job`] was never called).
pub fn end_job() -> StageNanos {
    TL.with(|t| t.borrow_mut().job.take())
        .map(|b| *b)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_unwind_in_order() {
        assert_eq!(depth(), 0);
        {
            let _outer = span(Stage::EstimatorChunk);
            assert_eq!(depth(), 1);
            {
                let _inner = span(Stage::DpBlockColumnar);
                assert_eq!(depth(), 2);
            }
            assert_eq!(depth(), 1);
        }
        assert_eq!(depth(), 0);
        let stages: Vec<Stage> = recent().iter().map(|&(s, _)| s).collect();
        // Inner completes (and records) before outer.
        let inner_at = stages
            .iter()
            .rposition(|&s| s == Stage::DpBlockColumnar)
            .unwrap();
        let outer_at = stages
            .iter()
            .rposition(|&s| s == Stage::EstimatorChunk)
            .unwrap();
        assert!(inner_at < outer_at);
    }

    #[test]
    fn panicking_span_does_not_corrupt_the_stack() {
        let result = std::panic::catch_unwind(|| {
            let _outer = span(Stage::EstimatorChunk);
            let _inner = span(Stage::DpBlockScalar);
            assert_eq!(depth(), 2);
            panic!("job died mid-span");
        });
        assert!(result.is_err());
        // Unwinding dropped both guards: the stack healed itself.
        assert_eq!(depth(), 0);
        // And the next span on this thread behaves normally.
        {
            let g = span(Stage::Cache);
            assert!(g.is_recording());
            assert_eq!(depth(), 1);
        }
        assert_eq!(depth(), 0);
    }

    #[test]
    fn suspension_disables_recording_on_this_thread_only() {
        let hist_before = Stage::Bind.histogram().count();
        {
            let _pause = suspend();
            assert!(!enabled());
            let g = span(Stage::Bind);
            assert!(!g.is_recording());
            assert_eq!(depth(), 0);
            // Nested suspensions stack.
            {
                let _again = suspend();
            }
            assert!(!enabled());
        }
        assert!(enabled());
        assert_eq!(Stage::Bind.histogram().count(), hist_before);
        // Another thread is unaffected by this thread's (now released)
        // suspension and records normally.
        std::thread::spawn(|| {
            assert!(enabled());
            drop(span(Stage::Bind));
        })
        .join()
        .unwrap();
        assert!(Stage::Bind.histogram().count() > hist_before);
    }

    #[test]
    fn job_scope_accumulates_per_stage_breakdowns() {
        start_job();
        {
            let _a = span(Stage::Coloring);
        }
        {
            let _b = span(Stage::DpBlockColumnar);
        }
        {
            let _c = span(Stage::DpBlockColumnar);
        }
        let stages = end_job();
        assert_eq!(stages.count(Stage::Coloring), 1);
        assert_eq!(stages.count(Stage::DpBlockColumnar), 2);
        assert_eq!(stages.count(Stage::Exchange), 0);
        assert_eq!(stages.nonzero().len(), 2);
        // A second end_job without start_job is empty, not stale.
        assert_eq!(end_job(), StageNanos::default());
    }

    #[test]
    fn ring_keeps_only_the_most_recent_spans() {
        std::thread::spawn(|| {
            for _ in 0..(RING_CAPACITY + 10) {
                drop(span(Stage::Cache));
            }
            let ring = recent();
            assert_eq!(ring.len(), RING_CAPACITY);
            assert!(ring.iter().all(|&(s, _)| s == Stage::Cache));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn stage_names_and_prefixes_are_consistent() {
        for stage in Stage::ALL {
            let dotted = stage.name();
            let prefix = stage.metric_prefix();
            assert_eq!(prefix, format!("span_{}", dotted.replace('.', "_")));
            assert_eq!(Stage::ALL[stage.index()], stage);
        }
    }
}
