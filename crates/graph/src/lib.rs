//! # sgc-graph — data-graph substrate
//!
//! The data-graph layer used by the color-coding subgraph counting stack.
//! It provides:
//!
//! * [`CsrGraph`] — an immutable, undirected graph in compressed sparse row
//!   form with O(1) degree queries and O(log d) edge probes,
//! * [`GraphBuilder`] — deduplicating edge-list builder,
//! * [`DegreeOrder`] — the total order on vertices (degree, then id) used by
//!   the paper's Degree Based (DB) algorithm (the MINBUCKET generalisation),
//! * [`Coloring`] — random k-colorings of the vertex set used by color coding,
//! * [`BlockPartition`] — the simulated 1D block distribution of vertices over
//!   "ranks" reproducing the paper's distributed-memory ownership model,
//! * [`DegreeStats`] — the degree-distribution statistics reported in Table 1,
//! * [`io`] — plain edge-list readers/writers so external graphs can be used.
//!
//! The crate is dependency-light (only `rand`) and forms the bottom of the
//! workspace: every other crate builds on these types.

#![forbid(unsafe_code)]

pub mod builder;
pub mod coloring;
pub mod csr;
pub mod io;
pub mod order;
pub mod partition;
pub mod snapshot;
pub mod stats;
pub mod vertex;

pub use builder::GraphBuilder;
pub use coloring::Coloring;
pub use csr::CsrGraph;
pub use order::DegreeOrder;
pub use partition::BlockPartition;
pub use snapshot::{DeltaError, EdgeDelta, SegmentedSnapshot};
pub use stats::DegreeStats;
pub use vertex::VertexId;
