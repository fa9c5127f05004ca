//! The partial-sum exchange step.
//!
//! After every shard has solved a block over its own vertex slice, the
//! per-shard partial projection tables must be summed into the block's full
//! table before any parent block can consume it. In the paper this is the
//! batched alltoall of partial sums (the PS trick of Section 7: accumulate
//! locally, exchange once per block instead of once per entry); on shared
//! memory it is a table merge — but it is kept as an explicit, metered step
//! so the runtime has the same structure, and the same observable exchange
//! volume, as the distributed original.
//!
//! Exactness: projection tables map keys to `u64` counts and the per-shard
//! partials are disjoint-by-construction only in *origin*, not in key — the
//! same `(boundary image, signature)` key can receive contributions from
//! many shards. Summing them in any order or grouping yields identical
//! counts because `u64` addition is associative and commutative, which is
//! what makes the sharded ≡ serial bit-identity contract hold.

use crate::metrics::ShardMetrics;
use sgc_engine::parallel::pairwise_reduce;
use sgc_engine::ProjectionTable;

/// Combines the per-shard partial tables of one block into its full table,
/// recording one exchange round and each shard's contributed entry count in
/// `metrics`.
///
/// The merge is a pairwise parallel reduction: with `S` shards it performs
/// `⌈log₂ S⌉` rounds of concurrent two-table merges rather than a serial
/// left fold, keeping the exchange off the runtime's critical path.
///
/// # Panics
/// Panics if `partials` is empty (a shard plan always has ≥ 1 shard), if
/// `partials.len()` differs from `metrics.num_shards()` (the metrics must
/// be sized for the shard plan that produced the partials), or if the
/// partial tables disagree on shape (scalar/unary/binary) — shards solve
/// the same block, so a mismatch is a programmer error.
pub fn combine(partials: Vec<ProjectionTable>, metrics: &mut ShardMetrics) -> ProjectionTable {
    combine_round(vec![partials], std::slice::from_mut(metrics))
        .pop()
        .expect("one block in, one combined table out")
}

/// Combines the per-shard partials of *several* blocks — one per member of a
/// batch trial step — in a single exchange round.
///
/// Where [`combine`] is one block's alltoall, this is the batched form the
/// paper's Section 7 actually performs: every query active in the current
/// block step contributes its per-shard partial sums to *one* synchronization
/// point, instead of paying one round per query. Each member's
/// [`ShardMetrics`] still records the round and its shards' contributed
/// entries (the per-query message volume is unchanged; what the batch saves
/// is rounds, not bytes).
///
/// Returns the combined table of every member, in input order.
///
/// # Panics
/// Panics if `batch` and `metrics` disagree in length, if any member has no
/// partials, or if a member's partial count differs from its metrics' shard
/// count.
pub fn combine_round(
    batch: Vec<Vec<ProjectionTable>>,
    metrics: &mut [ShardMetrics],
) -> Vec<ProjectionTable> {
    assert_eq!(
        batch.len(),
        metrics.len(),
        "one ShardMetrics per batch member"
    );
    for (partials, member_metrics) in batch.iter().zip(metrics.iter_mut()) {
        assert!(
            !partials.is_empty(),
            "exchange requires at least one shard's partial table"
        );
        assert_eq!(
            partials.len(),
            member_metrics.num_shards(),
            "one partial table per shard"
        );
        member_metrics.exchange_rounds += 1;
        for (shard, table) in partials.iter().enumerate() {
            // A scalar partial is one number on the wire; keyed tables
            // contribute one message entry per materialised key.
            member_metrics.entries_exchanged[shard] += table.len() as u64;
        }
    }
    batch
        .into_iter()
        .map(|partials| {
            // Each member's merge is a parallel pairwise reduction, so the
            // round's critical path is one ⌈log₂ S⌉ merge tree per member.
            pairwise_reduce(partials, merge_projection).expect("at least one table")
        })
        .collect()
}

/// Adds two partial projection tables of the same block.
fn merge_projection(a: ProjectionTable, b: ProjectionTable) -> ProjectionTable {
    match (a, b) {
        (ProjectionTable::Scalar(x), ProjectionTable::Scalar(y)) => ProjectionTable::Scalar(x + y),
        (ProjectionTable::Unary(mut x), ProjectionTable::Unary(y)) => {
            x.merge(&y);
            ProjectionTable::Unary(x)
        }
        (ProjectionTable::Binary(mut x), ProjectionTable::Binary(y)) => {
            x.merge(&y);
            ProjectionTable::Binary(x)
        }
        _ => unreachable!("partial tables of one block always have the same shape"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_engine::{BinaryTable, Signature, UnaryTable};

    fn unary(entries: &[(u32, u8, u64)]) -> ProjectionTable {
        let mut t = UnaryTable::new();
        for &(v, color, count) in entries {
            t.add(v, Signature::singleton(color), count);
        }
        ProjectionTable::Unary(t)
    }

    #[test]
    fn scalars_sum_across_shards() {
        let mut m = ShardMetrics::new(3);
        let combined = combine(
            vec![
                ProjectionTable::Scalar(5),
                ProjectionTable::Scalar(0),
                ProjectionTable::Scalar(7),
            ],
            &mut m,
        );
        assert_eq!(combined.total(), 12);
        assert_eq!(m.exchange_rounds, 1);
        // Scalars are one entry each, even when zero.
        assert_eq!(m.entries_exchanged, vec![1, 1, 1]);
    }

    #[test]
    fn empty_shards_contribute_nothing_but_are_metered() {
        // Shards that own no vertices (more shards than vertices) produce
        // empty keyed tables; the exchange must pass the populated entries
        // through untouched.
        let mut m = ShardMetrics::new(4);
        let combined = combine(
            vec![
                unary(&[(0, 0, 2), (1, 1, 3)]),
                unary(&[]),
                unary(&[]),
                unary(&[(0, 0, 4)]),
            ],
            &mut m,
        );
        assert_eq!(combined.total(), 9);
        let merged = combined.as_unary().unwrap();
        assert_eq!(merged.get(0, Signature::singleton(0)), 6);
        assert_eq!(merged.get(1, Signature::singleton(1)), 3);
        assert_eq!(m.entries_exchanged, vec![2, 0, 0, 1]);
    }

    #[test]
    fn single_vertex_shards_reassemble_the_full_table() {
        // One shard per vertex: every partial holds at most one vertex's
        // entries, and the exchange must reassemble the exact union.
        let mut m = ShardMetrics::new(3);
        let combined = combine(
            vec![
                unary(&[(0, 0, 1)]),
                unary(&[(1, 1, 2)]),
                unary(&[(2, 2, 3)]),
            ],
            &mut m,
        );
        assert_eq!(combined.len(), 3);
        assert_eq!(combined.total(), 6);
        assert_eq!(m.total_entries_exchanged(), 3);
    }

    #[test]
    fn single_shard_exchange_is_identity() {
        let mut m = ShardMetrics::new(1);
        let combined = combine(vec![unary(&[(4, 1, 9)])], &mut m);
        assert_eq!(
            combined.as_unary().unwrap().get(4, Signature::singleton(1)),
            9
        );
        assert_eq!(m.exchange_rounds, 1);
    }

    #[test]
    fn binary_partials_merge_by_key() {
        let mut a = BinaryTable::new();
        a.add(0, 1, Signature::pair(0, 1), 2);
        let mut b = BinaryTable::new();
        b.add(0, 1, Signature::pair(0, 1), 5);
        b.add(2, 3, Signature::pair(2, 3), 1);
        let mut m = ShardMetrics::new(2);
        let combined = combine(
            vec![ProjectionTable::Binary(a), ProjectionTable::Binary(b)],
            &mut m,
        );
        let merged = combined.as_binary().unwrap();
        assert_eq!(merged.get(0, 1, Signature::pair(0, 1)), 7);
        assert_eq!(merged.get(2, 3, Signature::pair(2, 3)), 1);
    }

    #[test]
    #[should_panic]
    fn empty_partials_panic() {
        let mut m = ShardMetrics::new(0);
        let _ = combine(Vec::new(), &mut m);
    }

    #[test]
    fn one_round_serves_several_blocks() {
        // Two batch members combine in one shared round: each member's
        // metrics record exactly one round and its own entry volume.
        let mut metrics = vec![ShardMetrics::new(2), ShardMetrics::new(2)];
        let combined = combine_round(
            vec![
                vec![ProjectionTable::Scalar(3), ProjectionTable::Scalar(4)],
                vec![unary(&[(0, 0, 1), (1, 1, 2)]), unary(&[(0, 0, 5)])],
            ],
            &mut metrics,
        );
        assert_eq!(combined.len(), 2);
        assert_eq!(combined[0].total(), 7);
        assert_eq!(combined[1].total(), 8);
        assert_eq!(metrics[0].exchange_rounds, 1);
        assert_eq!(metrics[1].exchange_rounds, 1);
        assert_eq!(metrics[0].entries_exchanged, vec![1, 1]);
        assert_eq!(metrics[1].entries_exchanged, vec![2, 1]);
        // Combining per member one at a time yields the same tables: the
        // shared round changes synchronization structure, never counts.
        let mut solo = ShardMetrics::new(2);
        let alone = combine(
            vec![unary(&[(0, 0, 1), (1, 1, 2)]), unary(&[(0, 0, 5)])],
            &mut solo,
        );
        assert_eq!(alone.total(), combined[1].total());
    }

    #[test]
    #[should_panic(expected = "one ShardMetrics per batch member")]
    fn mismatched_round_lengths_panic() {
        let mut m = vec![ShardMetrics::new(1)];
        let _ = combine_round(
            vec![
                vec![ProjectionTable::Scalar(1)],
                vec![ProjectionTable::Scalar(2)],
            ],
            &mut m,
        );
    }
}
