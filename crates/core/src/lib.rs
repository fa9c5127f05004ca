//! # sgc-core — color coding beyond trees
//!
//! The paper's algorithms, built on the substrates in `sgc-graph`,
//! `sgc-query` and `sgc-engine`:
//!
//! * [`Algorithm`] — which of the paper's two algorithms solves the cycle
//!   blocks: the Path Splitting baseline (the Alon et al. dynamic program
//!   rephrased over the decomposition tree, Figure 4) or the Degree Based
//!   algorithm (split every cycle at its highest-degree-ordered vertex and
//!   count only high-starting paths, Figures 5–7),
//! * [`kernel`] — the DP kernel: solving individual blocks (leaf edges and
//!   annotated cycles) into projection tables over arena-backed columnar
//!   tables, shared by both algorithms ([`paths`] holds the child-table
//!   indexes its joins consult),
//! * [`runtime`] — the block-step executor: the bottom-up traversal of a
//!   decomposition tree (Figure 3) producing the number of colorful matches
//!   ([`driver::CountResult`]) plus run metrics, as vertex-partitioned
//!   per-shard solves with explicit partial-sum exchange rounds — the
//!   shared-memory realization of the paper's distributed rank model
//!   (Sections 5–7), of which an unsharded run is the one-shard case,
//! * [`ball`] — counting the change instead of the graph: a trial on a graph
//!   after an edge delta is the trial's count before it plus a recount of
//!   the small ball the delta touched ([`DeltaBall`],
//!   [`CountRequest::recount`]),
//! * [`engine`] — the public front door: a long-lived [`Engine`] bound to a
//!   data graph that amortizes the preprocessing across trials and queries,
//!   caches decomposition plans, and reports typed [`SgcError`]s instead of
//!   panicking on bad input,
//! * [`batch`] — many requests in one call ([`Engine::count_batch`]): a
//!   loop over the solo trial stream in which structurally identical
//!   requests share one plan and one DP run, and every member stays
//!   bit-identical to its solo run,
//! * [`estimator`] — the approximate subgraph counting statistics: the
//!   `k^k / k!` unbiased scaling and the precision metrics of Figure 15
//!   (the trial loop itself lives in [`CountRequest::estimate`]),
//! * [`explain`] — the library-level `EXPLAIN`: [`Engine::explain`] turns a
//!   query or pattern string into a structured [`PlanReport`] (candidate
//!   decompositions, plan costs, predicted table bounds) before any
//!   counting runs,
//! * [`brute`] — exponential-time reference counters used as the correctness
//!   oracle in tests (the tree-query DP oracle lives in `tests/treelet/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ball;
pub mod batch;
pub mod brute;
pub mod config;
pub mod context;
pub mod driver;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod explain;
pub mod kernel;
pub mod metrics;
pub mod paths;
pub mod prelude;
pub mod runtime;

pub use ball::DeltaBall;
pub use batch::{BatchMetrics, BatchResult};
pub use config::Algorithm;
pub use driver::CountResult;
pub use engine::{CountRequest, Engine, TrialStream};
pub use error::SgcError;
pub use estimator::Estimate;
pub use explain::{BlockReport, PlanCandidate, PlanReport, TreewidthVerdict};
pub use kernel::KernelMetrics;
pub use metrics::{RunMetrics, ShardMetrics};
