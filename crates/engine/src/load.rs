//! Per-block load accounting.
//!
//! Figure 11 of the paper compares the PS and DB algorithms by the *load* of
//! each processor, defined as the number of projection function operations it
//! performs: the DB algorithm both lowers the average load (less wasted work)
//! and, crucially, the maximum load (better balance around high-degree
//! vertices). Here a processor is a block of the run's shard layout: each
//! join operation is charged to the block owning the vertex at which the
//! paper's engine would have executed it (the owner of the key's second
//! vertex `v`, Section 7), whichever shard's thread actually ran it. The
//! same vector type holds the operations each shard executed.

use sgc_graph::{BlockPartition, VertexId};

/// Accumulated operation counts, one per block (rank) of a layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadStats {
    per_rank: Vec<u64>,
}

impl LoadStats {
    /// Creates a zeroed load vector for `num_ranks` ranks.
    pub fn new(num_ranks: usize) -> Self {
        LoadStats {
            per_rank: vec![0; num_ranks.max(1)],
        }
    }

    /// Number of ranks tracked.
    pub fn num_ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// Records `ops` operations owned by `rank`.
    #[inline]
    pub fn record(&mut self, rank: usize, ops: u64) {
        self.per_rank[rank] += ops;
    }

    /// Records `ops` operations attributed to the owner of `vertex`.
    #[inline]
    pub fn record_vertex(&mut self, partition: &BlockPartition, vertex: VertexId, ops: u64) {
        // An unsharded run's layout is one block; skip the owner division
        // entirely on that (hot) path.
        if self.per_rank.len() == 1 {
            self.per_rank[0] += ops;
        } else {
            self.per_rank[partition.owner(vertex)] += ops;
        }
    }

    /// Adds another load vector into this one (must have the same rank count).
    pub fn merge(&mut self, other: &LoadStats) {
        assert_eq!(self.per_rank.len(), other.per_rank.len());
        for (a, b) in self.per_rank.iter_mut().zip(&other.per_rank) {
            *a += b;
        }
    }

    /// Total operations over all ranks.
    pub fn total(&self) -> u64 {
        self.per_rank.iter().sum()
    }

    /// Maximum per-rank load — the paper's load-balance metric.
    pub fn max(&self) -> u64 {
        self.per_rank.iter().copied().max().unwrap_or(0)
    }

    /// Average per-rank load.
    pub fn average(&self) -> f64 {
        self.total() as f64 / self.per_rank.len() as f64
    }

    /// Ratio of maximum to average load (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let avg = self.average();
        if avg == 0.0 {
            1.0
        } else {
            self.max() as f64 / avg
        }
    }

    /// Raw per-rank counts.
    pub fn per_rank(&self) -> &[u64] {
        &self.per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let mut l = LoadStats::new(4);
        l.record(0, 10);
        l.record(3, 30);
        l.record(3, 5);
        assert_eq!(l.total(), 45);
        assert_eq!(l.max(), 35);
        assert!((l.average() - 11.25).abs() < 1e-12);
        assert!((l.imbalance() - 35.0 / 11.25).abs() < 1e-12);
    }

    #[test]
    fn record_by_vertex_owner() {
        let p = BlockPartition::new(100, 4);
        let mut l = LoadStats::new(4);
        l.record_vertex(&p, 0, 7); // rank 0
        l.record_vertex(&p, 99, 3); // rank 3
        assert_eq!(l.per_rank(), &[7, 0, 0, 3]);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = LoadStats::new(2);
        a.record(0, 1);
        let mut b = LoadStats::new(2);
        b.record(0, 2);
        b.record(1, 5);
        a.merge(&b);
        assert_eq!(a.per_rank(), &[3, 5]);
    }

    #[test]
    fn empty_load_is_balanced() {
        let l = LoadStats::new(8);
        assert_eq!(l.max(), 0);
        assert_eq!(l.imbalance(), 1.0);
    }

    #[test]
    #[should_panic]
    fn merging_mismatched_ranks_panics() {
        let mut a = LoadStats::new(2);
        a.merge(&LoadStats::new(3));
    }
}
