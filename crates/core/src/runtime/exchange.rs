//! The partial-sum exchange step.
//!
//! After every shard has solved a block over its own vertex slice, the
//! per-shard partial projection tables must be summed into the block's full
//! table before any parent block can consume it. In the paper this is the
//! batched alltoall of partial sums (Section 7) — "batched" over the entries
//! of one block's exchange: every rank sends each entry to the rank that
//! *owns* its boundary vertex, once per block, and each rank sums and later
//! probes only its own slice. Here a shard's partial arrives grouped by owner
//! (the kernel's export is the bucketing) and the round fans out over the
//! owners: every owner sums the group each shard addressed to it and
//! counting-sorts the result by vertex over its own range. The block's table is the list of those owner slices — the exchange
//! is the regroup the parent's joins need, an unsharded run is its one-owner
//! case, and it stays an explicit, metered step with the same observable
//! exchange volume as the distributed original.
//!
//! Exactness: the per-shard partials are disjoint-by-construction only in
//! *origin*, not in key — the same `(boundary images, signature)` key can
//! receive contributions from many shards. Summing them in any order or
//! grouping yields identical counts because `u64` addition is associative
//! and commutative, which is what makes the sharded ≡ serial bit-identity
//! contract hold.

use crate::metrics::ShardMetrics;
use sgc_engine::parallel::parallel_indexed;
use sgc_engine::{BlockTable, ColumnarTable, RowGroups};
use sgc_graph::vertex::NO_VERTEX;
use sgc_graph::BlockPartition;

/// Lends one owner's retired slice buffers and summing table to the closure
/// it is handed, and returns what the closure made of them; asked once per
/// owner of a keyed block.
pub type ScratchLender<'a> = dyn Fn(usize, &mut dyn FnMut(RowGroups, &mut ColumnarTable) -> RowGroups) -> RowGroups
    + Sync
    + 'a;

/// Combines the per-shard partials of one block in one exchange round and
/// returns the block's table. `metrics` records the round and every shard's
/// contributed entries.
///
/// The owners' merges fan out over `sgc_engine::parallel`, one per block of
/// `shards`. An owner that a single shard sent rows to — every leaf edge
/// keyed by its start vertex, every one-shard run — holds distinct keys
/// already and is only sorted; the others are summed through the table
/// `scratch` lends, and every slice is written into the buffers `scratch`
/// lends with it.
///
/// # Panics
/// Panics if the partial count differs from `shards`' or `metrics`' shard
/// count.
pub fn combine_round(
    partials: &[RowGroups],
    metrics: &mut ShardMetrics,
    shards: &BlockPartition,
    scratch: &ScratchLender<'_>,
) -> BlockTable {
    let owners = shards.num_ranks();
    assert_eq!(partials.len(), owners, "one partial table per shard");
    assert_eq!(metrics.num_shards(), owners, "one metrics slot per shard");
    metrics.exchange_rounds += 1;
    for (shard, partial) in partials.iter().enumerate() {
        // A scalar partial is one number on the wire; keyed tables
        // contribute one message entry per materialised key.
        metrics.entries_exchanged[shard] += partial.len() as u64;
    }
    if partials[0].is_scalar() {
        return BlockTable::scalar(partials.iter().map(RowGroups::total).sum());
    }
    let slices = parallel_indexed(owners, |owner| {
        scratch(owner, &mut |retired, table| {
            owner_slice(partials, shards, owner, retired, table)
        })
    });
    BlockTable::from_slices(slices, shards.clone())
}

/// One owner's share of a keyed block's exchange: the rows every shard's
/// partial addressed to `owner`, summed by key (through `table`, when more
/// than one shard sent any) and grouped by vertex over the owner's range, in
/// the buffers of `retired`.
fn owner_slice(
    partials: &[RowGroups],
    shards: &BlockPartition,
    owner: usize,
    retired: RowGroups,
    table: &mut ColumnarTable,
) -> RowGroups {
    let range = shards.owned_range(owner);
    let received = || {
        let sent = partials.iter().map(|partial| partial.get(owner as u32));
        sent.filter(|rows| !rows.is_empty())
    };
    if received().nth(1).is_none() {
        let only = received().next().unwrap_or(&[]);
        return retired.by_vertex(only.iter().copied(), range);
    }
    table.reset();
    for row in received().flatten() {
        let key = [row.u, row.v, NO_VERTEX, NO_VERTEX];
        table.add(key, row.sig, row.count);
    }
    retired.by_vertex(table.projection_rows(), range)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use sgc_engine::{Count, Row, Signature};
    use sgc_graph::VertexId;
    use std::collections::BTreeMap;

    /// A lender of fresh buffers and throwaway summing tables.
    fn fresh(
        _: usize,
        merge: &mut dyn FnMut(RowGroups, &mut ColumnarTable) -> RowGroups,
    ) -> RowGroups {
        merge(RowGroups::default(), &mut ColumnarTable::new())
    }

    /// [`combine_round`] with fresh scratch.
    pub(crate) fn combine(
        partials: Vec<RowGroups>,
        plan: &BlockPartition,
        metrics: &mut ShardMetrics,
    ) -> BlockTable {
        combine_round(&partials, metrics, plan, &fresh)
    }

    /// A shard's partial over `plan` from `(u, v, color, count)` entries.
    fn partial(plan: &BlockPartition, entries: &[(VertexId, VertexId, u8, Count)]) -> RowGroups {
        let rows = entries.iter().map(|&(u, v, color, count)| Row {
            u,
            v,
            sig: Signature::singleton(color),
            count,
        });
        RowGroups::default().by_owner(rows, plan)
    }

    fn unary(plan: &BlockPartition, entries: &[(VertexId, u8, Count)]) -> RowGroups {
        let binary: Vec<_> = entries
            .iter()
            .map(|&(u, color, count)| (u, NO_VERTEX, color, count))
            .collect();
        partial(plan, &binary)
    }

    /// The count `table` holds for `(u, v, color)`, zero if absent.
    fn count_of(table: &BlockTable, u: VertexId, v: VertexId, color: u8) -> Count {
        table
            .get(u)
            .iter()
            .filter(|row| row.v == v && row.sig == Signature::singleton(color))
            .map(|row| row.count)
            .sum()
    }

    #[test]
    fn scalars_sum_across_shards() {
        let plan = BlockPartition::new(9, 3);
        let mut m = ShardMetrics::new(3);
        let scalars = [5, 0, 7].map(|total| RowGroups::default().scalar(total, &plan));
        let combined = combine(scalars.to_vec(), &plan, &mut m);
        assert_eq!(combined.total(), 12);
        assert_eq!(combined.len(), 1);
        assert_eq!(m.exchange_rounds, 1);
        // Scalars are one entry each, even when zero.
        assert_eq!(m.entries_exchanged, vec![1, 1, 1]);
    }

    #[test]
    fn empty_shards_contribute_nothing_but_are_metered() {
        // Shards that own no vertices (more shards than vertices) produce
        // empty keyed tables; the exchange must pass the populated entries
        // through untouched.
        let plan = BlockPartition::new(2, 4);
        let mut m = ShardMetrics::new(4);
        let combined = combine(
            vec![
                unary(&plan, &[(0, 0, 2), (1, 1, 3)]),
                unary(&plan, &[]),
                unary(&plan, &[]),
                unary(&plan, &[(0, 0, 4)]),
            ],
            &plan,
            &mut m,
        );
        assert_eq!(combined.total(), 9);
        assert_eq!(combined.len(), 2);
        assert_eq!(count_of(&combined, 0, NO_VERTEX, 0), 6);
        assert_eq!(count_of(&combined, 1, NO_VERTEX, 1), 3);
        assert_eq!(m.entries_exchanged, vec![2, 0, 0, 1]);
    }

    #[test]
    fn single_vertex_shards_reassemble_the_full_table() {
        // One shard per vertex: every partial holds at most one vertex's
        // entries, and the exchange must reassemble the exact union.
        let plan = BlockPartition::new(3, 3);
        let mut m = ShardMetrics::new(3);
        let combined = combine(
            vec![
                unary(&plan, &[(0, 0, 1)]),
                unary(&plan, &[(1, 1, 2)]),
                unary(&plan, &[(2, 2, 3)]),
            ],
            &plan,
            &mut m,
        );
        assert_eq!(combined.len(), 3);
        assert_eq!(combined.total(), 6);
        assert_eq!(m.total_entries_exchanged(), 3);
    }

    #[test]
    fn single_shard_exchange_is_identity() {
        let plan = BlockPartition::new(6, 1);
        let mut m = ShardMetrics::new(1);
        let combined = combine(vec![unary(&plan, &[(4, 1, 9)])], &plan, &mut m);
        assert_eq!(count_of(&combined, 4, NO_VERTEX, 1), 9);
        assert_eq!(combined.len(), 1);
        assert_eq!(m.exchange_rounds, 1);
    }

    #[test]
    fn binary_partials_merge_by_key() {
        let plan = BlockPartition::new(4, 2);
        let mut m = ShardMetrics::new(2);
        let combined = combine(
            vec![
                partial(&plan, &[(0, 1, 0, 2)]),
                partial(&plan, &[(0, 1, 0, 5), (2, 3, 2, 1)]),
            ],
            &plan,
            &mut m,
        );
        assert_eq!(count_of(&combined, 0, 1, 0), 7);
        assert_eq!(count_of(&combined, 2, 3, 2), 1);
        assert_eq!(combined.len(), 2);
    }

    #[test]
    #[should_panic]
    fn empty_partials_panic() {
        let plan = BlockPartition::new(3, 1);
        let _ = combine(Vec::new(), &plan, &mut ShardMetrics::new(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random partial sets — empty shards, more shards than vertices,
        /// the same key in every shard, a hub vertex holding most rows —
        /// combine to exactly the reference sum; every owner slice holds
        /// only vertices of its own range, and `get(x)` returns exactly
        /// `x`'s rows.
        #[test]
        fn exchange_equals_the_reference_sum_for_any_partials(
            layout in (0usize..4, 1u32..12, 0u32..12),
            entries in proptest::collection::vec((0u64..u64::MAX, 0u32..16, 1u64..1000), 0..120),
        ) {
            let (shards, n, hub) = ([1, 2, 3, 8][layout.0], layout.1, layout.2 % layout.1);
            let plan = BlockPartition::new(n as usize, shards);
            // Entry → (shard, key): half of the rows sit on the hub vertex,
            // and every eighth key is sent by every shard.
            let mut sent: Vec<BTreeMap<(VertexId, VertexId, u8), Count>> =
                vec![BTreeMap::new(); shards];
            for &(bits, v, count) in &entries {
                let u = if bits & 1 == 0 { hub } else { (bits >> 8) as u32 % n };
                let key = (u, v % (n + 1), (bits >> 40) as u8 % 3);
                let everywhere = (bits >> 4) % 8 == 0;
                for (shard, map) in sent.iter_mut().enumerate() {
                    if everywhere || shard == (bits >> 16) as usize % shards {
                        *map.entry(key).or_insert(0) += count;
                    }
                }
            }
            let mut reference: BTreeMap<(VertexId, VertexId, u8), Count> = BTreeMap::new();
            let partials: Vec<RowGroups> = sent
                .iter()
                .map(|map| {
                    let rows: Vec<_> = map.iter().map(|(&(u, v, c), &n)| (u, v, c, n)).collect();
                    for &(u, v, c, count) in &rows {
                        *reference.entry((u, v, c)).or_insert(0) += count;
                    }
                    partial(&plan, &rows)
                })
                .collect();
            let mut metrics = ShardMetrics::new(shards);
            let table = combine(partials, &plan, &mut metrics);
            let sent_rows: Vec<u64> = sent.iter().map(|map| map.len() as u64).collect();
            prop_assert_eq!(&metrics.entries_exchanged, &sent_rows);
            prop_assert_eq!(table.len(), reference.len());
            prop_assert_eq!(table.slices().len(), shards);
            for (owner, slice) in table.slices().iter().enumerate() {
                let range = plan.owned_range(owner);
                prop_assert!(slice.rows().iter().all(|row| range.contains(&row.u)));
            }
            for x in 0..n + 2 {
                let got: BTreeMap<_, _> = table
                    .get(x)
                    .iter()
                    .map(|row| ((row.u, row.v, row.sig), row.count))
                    .collect();
                prop_assert_eq!(got.len(), table.get(x).len(), "distinct keys at {}", x);
                let want: BTreeMap<_, _> = reference
                    .range((x, 0, 0)..(x + 1, 0, 0))
                    .map(|(&(u, v, c), &count)| ((u, v, Signature::singleton(c)), count))
                    .collect();
                prop_assert_eq!(got, want, "rows of {}", x);
            }
            prop_assert!(table.get(NO_VERTEX).is_empty());
        }
    }
}
