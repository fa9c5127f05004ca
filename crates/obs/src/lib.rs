//! # sgc-obs — observability from the DP kernel to the wire
//!
//! A std-only observability layer shared by every crate in the workspace:
//!
//! * [`span`](mod@span) — scoped stage timers ([`span()`](fn@span)) over a fixed [`Stage`]
//!   taxonomy (bind → plan → coloring → block DP → exchange → estimator
//!   chunk → cache → net frame encode/write), recording into per-stage
//!   global [`Histogram`]s, a per-thread ring of recent spans, and the
//!   per-job stage accumulator of the active job, with a thread-local span
//!   stack for nesting. Guards are zero-allocation on the hot path and
//!   collapse to a branch inside a per-thread [`suspend`] scope.
//! * [`hist`] — HDR-style log-bucketed latency histograms: power-of-2
//!   buckets over `u64` nanoseconds with p50/p95/p99/max readout, all
//!   atomics, `const`-constructible so stage histograms live in statics.
//! * [`registry`] — a process-wide registry of named counters, gauges and
//!   the stage histograms, rendered as one stable `name value` text
//!   exposition (one metric per line, names sorted and unique). The engine
//!   publishes its run, shard and kernel metrics into it; a service's and a
//!   server's counters are merged into one render, never stored.
//! * [`trace`] — per-job trace IDs ([`next_trace_id`]) and the bounded
//!   slow-query [`TraceLog`]: a ring of recent jobs with their per-stage
//!   timing breakdowns, rendered slowest-first for the `trace` net verb.
//!
//! Observability **reads, never branches, the DP**: nothing in this crate
//! influences counting results, which is what the obs-on ≡ obs-off
//! differential test in `tests/obs.rs` pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod span;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{global, Registry};
pub use span::{
    enabled, end_job, span, start_job, suspend, PauseGuard, SpanGuard, Stage, StageNanos,
};
pub use trace::{next_trace_id, JobTrace, TraceLog};
