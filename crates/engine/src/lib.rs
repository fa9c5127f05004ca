//! # sgc-engine — tables, joins and the simulated distributed engine
//!
//! The paper's "engine" layer (Section 7) stores the data graph and the
//! projection tables in a distributed fashion and exposes join routines to
//! the plan solver. This crate provides the shared-memory equivalent:
//!
//! * [`Signature`] — color sets as two `u64` bitset words with the
//!   disjointness / containment operations used by every join,
//! * [`hash`] — an FxHash-style hasher and the [`FastMap`] alias (the DP's
//!   own tables are columnar and no longer go through it),
//! * [`table`] — projection tables in their one interchange format: dense
//!   32-byte rows counting-sorted by owner (a shard's partial) or by vertex
//!   (an owner's slice of a block's table), probed by offset,
//! * [`columnar`] — dense row tables with an open-addressing row index,
//!   built for arena reuse: the working tables (paths with up to two extra
//!   tracked boundary fields, projection accumulators) of `sgc-core`'s DP
//!   kernel,
//! * [`load`] — per-rank load accounting over a
//!   [`sgc_graph::BlockPartition`], reproducing the paper's
//!   "number of projection function operations per processor" metric,
//! * [`parallel`] — small rayon helpers (per-item fan-out, scoped thread
//!   pools for the scaling experiments).

pub mod columnar;
pub mod hash;
pub mod load;
pub mod parallel;
pub mod signature;
pub mod table;

pub use columnar::{ColumnarTable, EndpointGroups};
pub use hash::FastMap;
pub use load::LoadStats;
pub use signature::{Color, Signature};
pub use table::{BlockTable, Count, Row, RowGroups};
