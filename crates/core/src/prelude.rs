//! Convenience re-exports for downstream users.
//!
//! `use sgc_core::prelude::*;` (or `use subgraph_counting::prelude::*;` via
//! the facade crate) brings in the types needed for the common workflow:
//! build a data graph, bind an [`Engine`] to it, pick a query, count or
//! estimate.

pub use crate::batch::{BatchMetrics, BatchResult};
pub use crate::config::Algorithm;
pub use crate::driver::CountResult;
pub use crate::engine::{CountRequest, Engine, TrialStream};
pub use crate::error::SgcError;
pub use crate::estimator::Estimate;
pub use crate::explain::{BlockReport, PlanCandidate, PlanReport, TreewidthVerdict};
pub use crate::kernel::KernelMetrics;
pub use crate::metrics::{RunMetrics, ShardMetrics};
pub use sgc_engine::{Count, Signature};
pub use sgc_graph::{Coloring, CsrGraph, GraphBuilder, VertexId};
pub use sgc_query::{
    decompose, heuristic_plan, DecompositionTree, Pattern, PatternParseError, QueryGraph, Registry,
};
