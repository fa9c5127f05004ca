//! # sgc-service — a concurrent subgraph-counting service
//!
//! The layer above the [`Engine`](sgc_core::Engine): where the engine
//! answers one caller at a time, a [`Service`] binds a graph once and
//! serves *many* concurrent callers, deciding how much work each request
//! actually needs:
//!
//! * [`service`] — the front door: a bounded work queue with admission
//!   control ([`ServiceError::QueueFull`] instead of unbounded growth) and
//!   a worker pool draining it, one shared `Engine<'static>` under all of
//!   it,
//! * [`job`] — the request vocabulary: [`CountJob`] (query, algorithm,
//!   seed, trial budget, optional [`Precision`] target), [`JobHandle`] /
//!   [`JobOutput`], and the [`StopReason`] the adaptive scheduler reports,
//! * [`cache`] — the single-flight result cache: identical jobs are
//!   answered once and replayed bit-identically, whether they arrive after
//!   the computation finished (memoization) or while it is still running
//!   (in-flight join),
//! * [`metrics`] — [`ServiceMetrics`]: queue depth, jobs served/rejected,
//!   cache hit rate, and the trials early stopping saved,
//! * [`error`] — the [`ServiceError`] taxonomy.
//!
//! The paper's measurement loop (Section 2, Figure 15) runs a *fixed*
//! number of random-coloring trials per estimate. The service replaces
//! that with *anytime* estimation: trials stream in chunks through
//! [`sgc_core::TrialStream`], the confidence interval of the counts so far
//! is re-read after every chunk, and each job stops at its own precision
//! target — so a caller asking for ±50% pays a fraction of the trials a ±5%
//! caller does, and neither pays anything when the answer is already
//! cached.
//!
//! ```
//! use sgc_graph::GraphBuilder;
//! use sgc_query::catalog;
//! use sgc_service::{CountJob, Precision, Service};
//! use std::sync::Arc;
//!
//! let mut b = GraphBuilder::new(6);
//! b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
//! let graph = Arc::new(b.build());
//!
//! let service = Service::new(graph); // preprocessing runs once, here
//! let output = service
//!     .run(
//!         CountJob::new(catalog::triangle())
//!             .seed(7)
//!             .budget(64)
//!             .precision(Precision::within(0.5)),
//!     )
//!     .unwrap();
//! assert!(output.trials_run <= 64);
//! assert!(output.estimate.estimated_subgraphs > 0.0);
//!
//! // The identical job again: served from the result cache, bit-identical.
//! let again = service
//!     .run(
//!         CountJob::new(catalog::triangle())
//!             .seed(7)
//!             .budget(64)
//!             .precision(Precision::within(0.5)),
//!     )
//!     .unwrap();
//! assert!(again.from_cache);
//! assert_eq!(again.estimate.per_trial, output.estimate.per_trial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod job;
pub mod metrics;
pub mod service;

pub use error::ServiceError;
pub use job::{
    CancelToken, ChunkUpdate, CountJob, JobHandle, JobOutput, Precision, ProgressFn, StopReason,
};
pub use metrics::ServiceMetrics;
pub use service::{Service, ServiceConfig, WatchFn, WatchHandle};

// The versioned-graph vocabulary, re-exported so callers of
// `apply_delta` / `count_at` / `watch` need no direct `sgc-dyn` or
// `sgc-graph` dependency.
pub use sgc_dyn::VersionId;
pub use sgc_graph::{DeltaError, EdgeDelta};
