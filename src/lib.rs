//! # subgraph-counting
//!
//! Facade crate re-exporting the full public API of the workspace: a
//! reproduction of *"Subgraph Counting: Color Coding Beyond Trees"*
//! (Chakaravarthy et al., IPDPS 2016). See the `README.md` for a tour and
//! `DESIGN.md` for the system inventory.
//!
//! The front door is the [`Engine`]: bind it to a data graph once (paying
//! the preprocessing once), then count or estimate any number of queries
//! against it. Queries arrive either as programmatic [`QueryGraph`]s or as
//! textual patterns (`"a-b, b-c, c-a"`, `cycle(5)`, catalog names — see
//! [`query::parse`] for the grammar), and
//! [`Engine::explain`] reports the chosen decomposition plan before
//! anything runs.
//!
//! ```
//! use subgraph_counting::prelude::*;
//! use subgraph_counting::query::catalog;
//!
//! let mut b = GraphBuilder::new(6);
//! b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
//! let graph = b.build();
//!
//! let engine = Engine::new(&graph);
//! let estimate = engine
//!     .count(&catalog::triangle())
//!     .trials(64)
//!     .seed(7)
//!     .estimate()
//!     .expect("triangle is a valid treewidth-2 query");
//! assert!(estimate.estimated_subgraphs > 0.0);
//!
//! // The same query as a text pattern: bit-identical, same plan cache slot.
//! let by_text = engine
//!     .count_str("a-b, b-c, c-a")
//!     .expect("well-formed pattern")
//!     .trials(64)
//!     .seed(7)
//!     .estimate()
//!     .unwrap();
//! assert_eq!(by_text.per_trial, estimate.per_trial);
//!
//! // And the explain report for it, before paying for a run.
//! let report = engine.explain_str("brain1").unwrap();
//! assert_eq!(report.candidates.len(), 2); // the two Section 6 plans
//! ```

#![forbid(unsafe_code)]

pub use sgc_core as core;
/// Versioned graph snapshots and delta-aware incremental recount
/// (`sgc-dyn`; the crate ident avoids the `dyn` keyword).
pub mod dynamic {
    pub use sgc_dyn::*;
}
pub use sgc_engine as engine;
pub use sgc_gen as gen;
pub use sgc_graph as graph;
pub use sgc_net as net;
pub use sgc_obs as obs;
pub use sgc_query as query;
pub use sgc_service as service;
pub use sgc_theory as theory;

pub use sgc_core::prelude;
pub use sgc_core::prelude::*;

// The service front door, re-exported at the top level: binding a
// `Service` is the recommended way to share one graph across many
// concurrent callers.
pub use sgc_service::{
    CancelToken, ChunkUpdate, CountJob, EdgeDelta, JobHandle, JobOutput, Precision, Service,
    ServiceConfig, ServiceError, ServiceMetrics, StopReason, VersionId, WatchFn, WatchHandle,
};

// The network front door: serve the bound graph over TCP with streaming
// anytime results, and talk to such a server from Rust.
pub use sgc_net::{Client, Server, ServerConfig, StreamEvent, WatchStream};

// The pattern front door: the text language, its typed spanned errors, the
// name registry behind it, and the explain report. (Also available through
// the prelude; re-exported here so they are discoverable at the top level.)
pub use sgc_core::{BlockReport, PlanCandidate, PlanReport, TreewidthVerdict};
pub use sgc_query::{Pattern, PatternErrorKind, PatternParseError, Registry, RegistryError};
