//! Simulated 1D block distribution of vertices over processor ranks.
//!
//! The paper's engine distributes the data graph with a "1D decomposition,
//! wherein the vertices are equally distributed among the processors using
//! block distribution, and each vertex is owned by some processor"
//! (Section 7). Projection-table entries with key `(u, v, α)` are stored at
//! the owner of `v`, and load imbalance is measured as the number of
//! projection operations performed per rank (Figure 11).
//!
//! In this reproduction the ranks are *simulated*: the engine executes on a
//! shared-memory machine (scoped threads), but work is still attributed to
//! the rank that would own it in the distributed setting so that the
//! paper's load metrics can be reproduced exactly.

use crate::vertex::VertexId;

/// A block (contiguous-range) partition of `num_vertices` vertices into
/// `num_ranks` equally sized parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    num_vertices: usize,
    num_ranks: usize,
    /// ceil(num_vertices / num_ranks); rank of v is v / block_size.
    block_size: usize,
}

impl BlockPartition {
    /// Creates a partition of `num_vertices` vertices into `num_ranks` blocks.
    ///
    /// # Panics
    /// Panics if `num_ranks` is zero.
    pub fn new(num_vertices: usize, num_ranks: usize) -> Self {
        assert!(num_ranks > 0, "at least one rank required");
        let block_size = num_vertices.div_ceil(num_ranks).max(1);
        BlockPartition {
            num_vertices,
            num_ranks,
            block_size,
        }
    }

    /// Number of ranks (processors).
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Number of vertices being partitioned.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The rank owning vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        ((v as usize) / self.block_size).min(self.num_ranks - 1)
    }

    /// The contiguous vertex range owned by `rank`.
    pub fn owned_range(&self, rank: usize) -> std::ops::Range<VertexId> {
        let start = (rank * self.block_size).min(self.num_vertices);
        let end = ((rank + 1) * self.block_size).min(self.num_vertices);
        start as VertexId..end as VertexId
    }

    /// Number of vertices owned by `rank`.
    pub fn owned_count(&self, rank: usize) -> usize {
        let r = self.owned_range(rank);
        (r.end - r.start) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vertex_has_exactly_one_owner() {
        let p = BlockPartition::new(103, 8);
        let mut counts = vec![0usize; p.num_ranks()];
        for v in 0..103u32 {
            counts[p.owner(v)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 103);
        // Owners must match the owned ranges.
        for (rank, &count) in counts.iter().enumerate() {
            assert_eq!(count, p.owned_count(rank));
        }
    }

    #[test]
    fn blocks_are_contiguous_and_balanced() {
        let p = BlockPartition::new(100, 4);
        assert_eq!(p.owned_range(0), 0..25);
        assert_eq!(p.owned_range(3), 75..100);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(99), 3);
    }

    #[test]
    fn more_ranks_than_vertices() {
        let p = BlockPartition::new(3, 8);
        for v in 0..3u32 {
            assert!(p.owner(v) < 8);
        }
        let total: usize = (0..8).map(|r| p.owned_count(r)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn single_rank_owns_everything() {
        let p = BlockPartition::new(50, 1);
        for v in 0..50u32 {
            assert_eq!(p.owner(v), 0);
        }
        assert_eq!(p.owned_count(0), 50);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = BlockPartition::new(10, 0);
    }
}
