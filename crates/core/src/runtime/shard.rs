//! Vertex shards.
//!
//! A [`ShardPlan`] cuts the data graph's vertex set into `num_shards`
//! contiguous blocks — the same 1D block distribution the paper assigns to
//! MPI ranks (Section 7), reused from [`sgc_graph::BlockPartition`]. The
//! block-step executor (`runtime::executor`) solves every block of a plan as
//! `num_shards` independent partial solves (one per shard, fanned out over
//! worker threads), then combines the partial tables in an explicit
//! [`exchange`](crate::runtime::exchange) round before moving to the next
//! block.

use crate::error::SgcError;
use sgc_graph::{BlockPartition, VertexId};
use std::ops::Range;

/// One shard's contiguous slice of the data graph's vertex set — the analog
/// of one rank's owned vertex block in the paper's 1D decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexShard {
    pub(crate) partition: BlockPartition,
    index: usize,
}

impl VertexShard {
    /// This shard's index within its [`ShardPlan`].
    pub fn index(&self) -> usize {
        self.index
    }

    /// The contiguous vertex range this shard owns (possibly empty when
    /// there are more shards than vertices).
    pub fn range(&self) -> Range<VertexId> {
        self.partition.owned_range(self.index)
    }

    /// Whether this shard owns vertex `v`.
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        self.partition.owner(v) == self.index
    }

    /// Number of vertices this shard owns.
    pub fn num_vertices(&self) -> usize {
        self.partition.owned_count(self.index)
    }
}

/// The shard layout of one sharded run: a 1D block partition of the data
/// graph's vertices into `num_shards` contiguous shards.
///
/// ```
/// use sgc_core::runtime::ShardPlan;
///
/// let plan = ShardPlan::new(10, 4).unwrap();
/// assert_eq!(plan.num_shards(), 4);
/// // Every vertex is owned by exactly one shard.
/// let owned: usize = (0..4).map(|s| plan.shard(s).num_vertices()).sum();
/// assert_eq!(owned, 10);
/// ```
#[derive(Clone, Debug)]
pub struct ShardPlan {
    pub(crate) partition: BlockPartition,
    num_shards: usize,
}

impl ShardPlan {
    /// Partitions `num_vertices` vertices into `num_shards` contiguous
    /// shards.
    ///
    /// # Errors
    /// [`SgcError::ZeroShards`] if `num_shards` is zero.
    pub fn new(num_vertices: usize, num_shards: usize) -> Result<Self, SgcError> {
        if num_shards == 0 {
            return Err(SgcError::ZeroShards);
        }
        Ok(ShardPlan {
            partition: BlockPartition::new(num_vertices, num_shards),
            num_shards,
        })
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard at `index`.
    ///
    /// # Panics
    /// Panics if `index >= num_shards()`.
    pub fn shard(&self, index: usize) -> VertexShard {
        assert!(index < self.num_shards, "shard index out of range");
        VertexShard {
            partition: self.partition.clone(),
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_partitions_every_vertex_once() {
        let plan = ShardPlan::new(103, 8).unwrap();
        let mut owners = vec![0usize; 103];
        for s in 0..plan.num_shards() {
            let shard = plan.shard(s);
            assert_eq!(shard.index(), s);
            for v in shard.range() {
                owners[v as usize] += 1;
                assert!(shard.owns(v));
            }
            assert_eq!(shard.range().len(), shard.num_vertices());
        }
        assert!(owners.iter().all(|&n| n == 1));
    }

    #[test]
    fn more_shards_than_vertices_leaves_trailing_shards_empty() {
        let plan = ShardPlan::new(3, 8).unwrap();
        let total: usize = (0..8).map(|s| plan.shard(s).num_vertices()).sum();
        assert_eq!(total, 3);
        assert_eq!(plan.shard(7).num_vertices(), 0);
        assert!(plan.shard(7).range().is_empty());
    }

    #[test]
    fn zero_shards_is_an_error() {
        assert!(matches!(ShardPlan::new(10, 0), Err(SgcError::ZeroShards)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_shard_index_panics() {
        let plan = ShardPlan::new(10, 2).unwrap();
        let _ = plan.shard(2);
    }
}
