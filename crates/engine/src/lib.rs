//! # sgc-engine — tables, joins and the simulated distributed engine
//!
//! The paper's "engine" layer (Section 7) stores the data graph and the
//! projection tables in a distributed fashion and exposes join routines to
//! the plan solver. This crate provides the shared-memory equivalent:
//!
//! * [`Signature`] — color sets as two `u64` bitset words with the
//!   disjointness / containment operations used by every join,
//! * [`table`] — projection tables in their one interchange format: dense
//!   32-byte rows counting-sorted by owner (a shard's partial) or by vertex
//!   (an owner's slice of a block's table), probed by offset,
//! * [`columnar`] — dense row tables with an open-addressing row index,
//!   built for arena reuse: the working tables (paths with up to two extra
//!   tracked boundary fields, projection accumulators) of `sgc-core`'s DP
//!   kernel, filled by one hashed insert ([`ColumnarTable::add`], which
//!   keeps each distinct row at its first insertion) and one unhashed
//!   insert for rows distinct by construction
//!   ([`ColumnarTable::append`]),
//! * [`load`] — per-rank load accounting over a
//!   [`sgc_graph::BlockPartition`], reproducing the paper's
//!   "number of projection function operations per processor" metric,
//! * [`parallel`] — the workspace's fan-out: per-item scoped threads that
//!   inherit their caller's span suspension, and a thread-local width for
//!   the scaling experiments.

#![forbid(unsafe_code)]

pub mod columnar;
pub mod load;
pub mod parallel;
pub mod signature;
pub mod table;

pub use columnar::{ColumnarTable, EndpointGroups};
pub use load::LoadStats;
pub use signature::{Color, Signature};
pub use table::{BlockTable, Count, Row, RowGroups};
