//! Run metrics: operation counts, per-rank loads, table sizes, timings.
//!
//! The paper's evaluation reports execution time (Figures 9, 10, 12, 13) and
//! the per-processor load — "the number of projection function operations" —
//! (Figure 11). [`RunMetrics`] collects both, plus table-size statistics
//! useful for understanding memory behaviour.
//!
//! Sharded runs ([`CountRequest::sharded`](crate::CountRequest::sharded))
//! additionally fill [`RunMetrics::shards`] with [`ShardMetrics`]: the
//! operations each shard actually executed and the partial-sum entries it
//! contributed to each exchange round — the measured (not simulated)
//! counterpart of the paper's Figure 11 load analysis.

use crate::kernel::KernelMetrics;
use sgc_engine::LoadStats;
use sgc_graph::{BlockPartition, VertexId};
use std::time::Duration;

/// Metrics accumulated over a single colorful-counting run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Per-rank operation counts (projection function operations attributed
    /// to the simulated owner rank).
    pub load: LoadStats,
    /// Total operations across all ranks (equals `load.total()`, cached for
    /// convenience).
    pub total_ops: u64,
    /// Largest number of entries held by any single working table during the
    /// run — a proxy for peak memory. Path tables are built one start-vertex
    /// tile at a time, so for them this is the largest *tile's* table, not
    /// the whole logical table; projection tables count in full.
    pub peak_table_entries: usize,
    /// Total table entries produced across all joins (a path table's tiles
    /// sum to the whole logical table). A semi step — the join mapping the
    /// end of an uneven split's longer path — counts the rows it keeps, not
    /// the candidates it examined (those are operations). A cycle block's
    /// projection accumulator counts once, at its final size after the
    /// block's last tile, however many splits fed it. Shard-dependent in
    /// sharded runs: per-shard partial tables and the exchanged block
    /// tables each count as produced entries (the same projection key may
    /// appear in several shards' partials), mirroring the entry duplication
    /// a distributed run really pays.
    pub entries_created: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-shard execution metrics — `Some` only for sharded runs.
    pub shards: Option<ShardMetrics>,
    /// Arena accounting of the DP kernel.
    pub kernel: KernelMetrics,
}

/// Per-shard execution metrics of one sharded run.
///
/// Where [`RunMetrics::load`] *attributes* operations to simulated ranks by
/// key ownership (reproducing the paper's Figure 11 accounting), this struct
/// records what each shard of the real runtime *did*: the projection
/// operations it executed and the partial-sum table entries it handed to the
/// exchange step (the shared-memory analog of the paper's alltoall message
/// volume, Section 7).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Projection operations executed by each shard, summed over all blocks.
    pub ops_per_shard: Vec<u64>,
    /// Partial-sum table entries each shard contributed to the exchange
    /// steps, summed over all rounds.
    pub entries_exchanged: Vec<u64>,
    /// Number of exchange rounds performed (one per block of the plan).
    pub exchange_rounds: u64,
}

impl ShardMetrics {
    /// Creates zeroed metrics for `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        ShardMetrics {
            ops_per_shard: vec![0; num_shards],
            entries_exchanged: vec![0; num_shards],
            exchange_rounds: 0,
        }
    }

    /// Number of shards tracked.
    pub fn num_shards(&self) -> usize {
        self.ops_per_shard.len()
    }

    /// Maximum operations executed by any single shard — the critical-path
    /// load of the sharded runtime.
    pub fn max_ops(&self) -> u64 {
        self.ops_per_shard.iter().copied().max().unwrap_or(0)
    }

    /// Average operations per shard.
    pub fn avg_ops(&self) -> f64 {
        if self.ops_per_shard.is_empty() {
            0.0
        } else {
            self.ops_per_shard.iter().sum::<u64>() as f64 / self.ops_per_shard.len() as f64
        }
    }

    /// Ratio of the maximum to the average per-shard operations
    /// (1.0 = perfectly balanced; the paper's load-imbalance metric applied
    /// to the real shards).
    pub fn imbalance(&self) -> f64 {
        let avg = self.avg_ops();
        if avg == 0.0 {
            1.0
        } else {
            self.max_ops() as f64 / avg
        }
    }

    /// Total partial-sum entries moved through the exchange steps.
    pub fn total_entries_exchanged(&self) -> u64 {
        self.entries_exchanged.iter().sum()
    }
}

impl RunMetrics {
    /// Creates empty metrics for `num_ranks` simulated ranks.
    pub fn new(num_ranks: usize) -> Self {
        RunMetrics {
            load: LoadStats::new(num_ranks),
            total_ops: 0,
            peak_table_entries: 0,
            entries_created: 0,
            elapsed: Duration::ZERO,
            shards: None,
            kernel: KernelMetrics::default(),
        }
    }

    /// Folds the metrics of one shard's partial solve into this run's
    /// totals: simulated-rank loads add up, peak table sizes take the max,
    /// and created-entry counts accumulate. Used by the sharded runtime,
    /// whose per-shard solves each carry their own `RunMetrics`.
    pub fn absorb_shard(&mut self, shard: &RunMetrics) {
        self.load.merge(&shard.load);
        self.total_ops = self.load.total();
        self.peak_table_entries = self.peak_table_entries.max(shard.peak_table_entries);
        self.entries_created += shard.entries_created;
        self.kernel.absorb(&shard.kernel);
    }

    /// Records `ops` projection operations attributed to the simulated
    /// owner of `vertex`.
    #[inline]
    pub(crate) fn record_ops(&mut self, partition: &BlockPartition, vertex: VertexId, ops: u64) {
        self.load.record_vertex(partition, vertex, ops);
        self.total_ops += ops;
    }

    /// Records `ops` projection operations attributed to simulated `rank`.
    #[inline]
    pub(crate) fn record_rank_ops(&mut self, rank: usize, ops: u64) {
        self.load.record(rank, ops);
        self.total_ops += ops;
    }

    /// Records the size of a freshly produced table.
    pub fn observe_table(&mut self, entries: usize) {
        self.observe_tables(entries, 1);
    }

    /// Records `copies` freshly produced tables of `entries` entries each:
    /// one shared path step standing for that many written ones.
    pub(crate) fn observe_tables(&mut self, entries: usize, copies: u64) {
        self.peak_table_entries = self.peak_table_entries.max(entries);
        self.entries_created += entries as u64 * copies;
    }

    /// Maximum per-rank load (Figure 11's "max load").
    pub fn max_load(&self) -> u64 {
        self.load.max()
    }

    /// Average per-rank load (Figure 11's "avg load").
    pub fn avg_load(&self) -> f64 {
        self.load.average()
    }

    /// Publishes this run's counters into the process-wide `sgc-obs`
    /// registry: run/kernel counters always, shard counters when the run
    /// was sharded. Called at run granularity by the engine (never inside
    /// the DP), and only when observability is enabled for the run.
    pub fn publish(&self) {
        let registry = sgc_obs::global();
        registry.counter_add("engine_runs", 1);
        registry.counter_add("engine_total_ops", self.total_ops);
        registry.counter_add("engine_entries_created", self.entries_created);
        registry.gauge_max("engine_peak_table_entries", self.peak_table_entries as u64);
        registry.counter_add("kernel_arena_reuses", self.kernel.arena_reuses);
        registry.counter_add("kernel_arena_grown_bytes", self.kernel.arena_grown_bytes);
        registry.gauge_max("kernel_arena_bytes", self.kernel.arena_bytes);
        if let Some(shards) = &self.shards {
            registry.counter_add("shard_exchange_rounds", shards.exchange_rounds);
            registry.counter_add("shard_entries_exchanged", shards.total_entries_exchanged());
            registry.gauge_max("shard_max_ops", shards.max_ops());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_and_observe() {
        let mut m = RunMetrics::new(4);
        // Four ranks over eight vertices: vertex 2 is rank 1's, 5 rank 2's.
        let partition = BlockPartition::new(8, 4);
        for _ in 0..2 {
            m.record_ops(&partition, 2, 10);
            m.record_ops(&partition, 5, 4);
        }
        assert_eq!(m.total_ops, 28);
        assert_eq!(m.load.per_rank(), &[0, 20, 8, 0]);
        assert_eq!(m.max_load(), 20);
        assert!((m.avg_load() - 7.0).abs() < 1e-12);

        m.observe_table(100);
        m.observe_table(40);
        assert_eq!(m.peak_table_entries, 100);
        assert_eq!(m.entries_created, 140);
    }

    #[test]
    fn new_metrics_are_zeroed() {
        let m = RunMetrics::new(8);
        assert_eq!(m.total_ops, 0);
        assert_eq!(m.max_load(), 0);
        assert_eq!(m.peak_table_entries, 0);
        assert_eq!(m.elapsed, Duration::ZERO);
        assert!(m.shards.is_none());
        assert_eq!(m.kernel, KernelMetrics::default());
    }

    #[test]
    fn absorb_shard_merges_loads_and_maxes_peaks() {
        let mut total = RunMetrics::new(2);
        let partition = BlockPartition::new(2, 2);
        let mut a = RunMetrics::new(2);
        a.record_ops(&partition, 0, 5);
        a.observe_table(10);
        let mut b = RunMetrics::new(2);
        b.record_ops(&partition, 1, 7);
        b.observe_table(4);
        total.absorb_shard(&a);
        total.absorb_shard(&b);
        assert_eq!(total.total_ops, 12);
        assert_eq!(total.load.per_rank(), &[5, 7]);
        assert_eq!(total.peak_table_entries, 10);
        assert_eq!(total.entries_created, 14);
    }

    #[test]
    fn shard_metrics_statistics() {
        let mut s = ShardMetrics::new(4);
        assert_eq!(s.num_shards(), 4);
        assert_eq!(s.max_ops(), 0);
        assert_eq!(s.imbalance(), 1.0);
        s.ops_per_shard = vec![10, 20, 30, 40];
        s.entries_exchanged = vec![1, 2, 3, 4];
        s.exchange_rounds = 2;
        assert_eq!(s.max_ops(), 40);
        assert!((s.avg_ops() - 25.0).abs() < 1e-12);
        assert!((s.imbalance() - 1.6).abs() < 1e-12);
        assert_eq!(s.total_entries_exchanged(), 10);
    }
}
