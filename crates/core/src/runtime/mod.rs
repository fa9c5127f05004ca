//! The sharded rank-runtime: vertex-partitioned execution with partial-sum
//! exchange.
//!
//! The paper's headline system (Sections 5–7) is *distributed*: the data
//! graph is block-partitioned over MPI ranks, each rank runs the colorful
//! counting dynamic program on the paths rooted in its own vertex block, and
//! the per-rank partial-sum (PS) tables are combined in a batched alltoall.
//! This module is that rank model realized on a shared-memory machine:
//!
//! * `executor` — the one block-step loop, for one (query, coloring) job:
//!   the shards are the blocks of an `sgc_graph::BlockPartition` (the same
//!   1D block distribution the paper uses); per step, the per-shard partial
//!   solves fan out over `sgc_engine::parallel`, then one exchange round.
//!   An unsharded request is its one-shard case,
//! * [`exchange`] — the explicit combination step that sums one block's
//!   per-shard partial projection tables into its full table, mirroring
//!   the paper's alltoall of partial sums (batched over the entries of that
//!   block, not over queries), and recording per-shard exchange volume.
//!
//! The partitioning invariant that makes this exact: a path-table entry's
//! `start` vertex is fixed at seeding time and never changes through any
//! join, and the final path merge only pairs entries with equal starts. So
//! restricting each shard to the paths *starting* in its vertex block
//! partitions every block's table — and therefore the final count — into
//! disjoint per-shard parts whose `u64` sums are bit-identical to the serial
//! result, for any shard count. `CountRequest::sharded` is the public entry
//! point; `tests/sharded.rs` and the property suite enforce the
//! sharded ≡ serial contract.

pub mod exchange;
pub(crate) mod executor;
