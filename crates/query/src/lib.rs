//! # sgc-query — query graphs and decomposition trees
//!
//! The query-side machinery of the paper:
//!
//! * [`QueryGraph`] — small undirected query graphs (≤ 32 nodes),
//! * [`treewidth`] — treewidth-≤2 recognition via the degree-≤2 reduction
//!   rule, plus tree recognition,
//! * [`block`] / [`decomposition`] — the *blocks* (leaf edges and
//!   contractible cycles) and the decomposition-tree construction of
//!   Section 4.1, including annotations and parent inheritance,
//! * [`plan`] — enumeration of all decomposition trees of a query and the
//!   plan-selection heuristic (Section 6's longest cycle, boundary nodes and
//!   annotation count, plus the query nodes folded into cycles),
//! * [`automorphism`] — automorphism counting, needed to convert match counts
//!   into subgraph counts (Section 2),
//! * [`key`] — the canonical cache identity of a query, shared by the
//!   engine's plan cache and the service's result cache,
//! * [`catalog`] — the Figure 8 query suite (analogs) plus the paper's
//!   `Satellite` worked example and assorted simple queries,
//! * [`parse`] — the textual pattern language (`"a-b, b-c, c-a"`,
//!   `cycle(5)`, catalog names), parsed into a [`Pattern`] with spanned
//!   [`PatternParseError`]s and caret diagnostics,
//! * [`registry`] — the name → query [`Registry`] behind
//!   [`catalog::query_by_name`] and the parser's bare-name resolution,
//!   extensible at runtime.
//!
//! Everything here is independent of the data graph: it is the paper's
//! "planner" layer (Section 7) and runs in microseconds for 10-node queries.

#![forbid(unsafe_code)]

pub mod automorphism;
pub mod block;
pub mod catalog;
pub mod decomposition;
pub mod error;
pub mod graph;
pub mod key;
pub mod parse;
pub mod plan;
pub mod registry;
pub mod treewidth;

pub use block::{Block, BlockId, BlockKind};
pub use decomposition::{decompose, DecompositionTree};
pub use error::QueryError;
pub use graph::{QueryGraph, QueryNode};
pub use key::{canonical_groups, canonical_key, CanonicalQueryKey};
pub use parse::{Pattern, PatternErrorKind, PatternParseError};
pub use plan::{enumerate_plans, heuristic_plan, PlanCost};
pub use registry::{Registry, RegistryEntry, RegistryError};
