//! Projection tables.
//!
//! Section 4.2 defines the *projection table* of a subquery: for every
//! combination of boundary-node images and signature it stores the number of
//! colorful matches consistent with that combination. Only non-zero entries
//! are materialised, and every stage between two block solves handles them in
//! one columnar format, [`RowGroups`]: a dense column of 32-byte [`Row`]s
//! `(u, v, sig, count)` counting-sorted into consecutive groups.
//!
//! * A shard's **partial** is its block projection grouped by the *owner* of
//!   `u`: group `o` is what the shard sends to owner `o` in the exchange.
//! * An **owner slice** is one owner's summed share of a block's table
//!   grouped by *vertex*: `get(x)` is the rows of `x`, by offset.
//! * A [`BlockTable`] is the list of owner slices — what the joins of a
//!   parent block probe. An unsharded run is its one-owner case.
//!
//! Blocks with one boundary node leave `v` at [`NO_VERTEX`]; the root block
//! (no boundary nodes) projects to one keyless row holding the count. The
//! working tables of a block solve live in [`crate::columnar`].
//!
//! Every constructor fills the buffers of the instance it is called on —
//! `RowGroups::default()` for a fresh one — so a caller that keeps the
//! instances of a finished run (the kernel arenas do) builds the next run's
//! tables without allocating.

use crate::signature::Signature;
use sgc_graph::vertex::{VertexId, NO_VERTEX};
use sgc_graph::BlockPartition;
use std::ops::Range;

/// Number of colorful matches (or partial matches) — always a plain count.
pub type Count = u64;

/// One projection-table entry: the images of the block's boundary nodes (in
/// boundary order, [`NO_VERTEX`] where the block has fewer than two), the
/// signature of the match and its count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Row {
    /// Image of the first boundary node — the vertex the row is owned,
    /// grouped and probed by.
    pub u: VertexId,
    /// Image of the second boundary node.
    pub v: VertexId,
    /// Colors used by the match.
    pub sig: Signature,
    /// Number of matches.
    pub count: Count,
}

impl Row {
    /// The row of a boundary-free block: no images, no colors to tell apart.
    const KEYLESS: Row = Row {
        u: NO_VERTEX,
        v: NO_VERTEX,
        sig: Signature::empty(),
        count: 0,
    };
}

/// Panics if a group column of `rows` rows could not address its last row
/// with the `u32` group bounds.
#[cold]
fn assert_rows_fit(rows: usize) {
    assert!(
        rows as u64 <= u32::MAX as u64,
        "a projection column is limited to 2^32 - 1 rows, got {rows}"
    );
}

/// Projection rows counting-sorted into consecutive groups by a dense `u32`
/// key: the owner of `u` for a shard's partial, `u` itself for an owner
/// slice. Rows keep their input order within a group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowGroups {
    /// The first group's key.
    lo: u32,
    /// Group `k` is `rows[starts[k - lo]..starts[k - lo + 1]]`.
    starts: Vec<u32>,
    /// The rows, contiguous per group.
    rows: Vec<Row>,
}

impl RowGroups {
    /// Sorts `rows` into one group per key of `keys`, into the buffers of
    /// `self` (a retired instance, or the default for fresh ones); `key_of`
    /// must map every row into that range.
    fn build(
        mut self,
        rows: impl Iterator<Item = Row> + Clone,
        keys: Range<u32>,
        key_of: impl Fn(&Row) -> u32,
    ) -> Self {
        let RowGroups {
            lo,
            starts,
            rows: sorted,
            ..
        } = &mut self;
        *lo = keys.start;
        // Group `k` is counted two entries up, so the prefix sum leaves its
        // write cursor at `k + 1` and the scatter leaves its start at `k`.
        starts.clear();
        starts.resize(keys.len() + 2, 0);
        let mut len = 0usize;
        for row in rows.clone() {
            starts[(key_of(&row) - keys.start) as usize + 2] += 1;
            len += 1;
        }
        assert_rows_fit(len);
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        sorted.clear();
        // Exactly, not amortized: a retired column is refilled by the same
        // role of the next run, which asks for about as much again.
        sorted.reserve_exact(len);
        sorted.resize(len, Row::KEYLESS);
        for row in rows {
            let cursor = &mut starts[(key_of(&row) - keys.start) as usize + 1];
            sorted[*cursor as usize] = row;
            *cursor += 1;
        }
        starts.pop();
        self
    }

    /// A shard's partial: `rows` (distinct keys) grouped by the owner of `u`
    /// under `owners`, one group per owner, in the buffers of `self`.
    pub fn by_owner(
        self,
        rows: impl Iterator<Item = Row> + Clone,
        owners: &BlockPartition,
    ) -> Self {
        // One owner owns everything; skip the division per row.
        let single = owners.num_ranks() == 1;
        self.build(rows, 0..owners.num_ranks() as u32, |row| {
            if single {
                0
            } else {
                owners.owner(row.u) as u32
            }
        })
    }

    /// An owner slice: `rows` grouped by `u`, one group per vertex of
    /// `range` (every `u` must lie in it), in the buffers of `self`.
    pub fn by_vertex(
        self,
        rows: impl Iterator<Item = Row> + Clone,
        range: Range<VertexId>,
    ) -> Self {
        self.build(rows, range, |row| row.u)
    }

    /// The partial of a boundary-free block: one keyless row holding
    /// `total`, sent to owner 0, in the buffers of `self`.
    pub fn scalar(self, total: Count, owners: &BlockPartition) -> Self {
        let row = Row {
            count: total,
            ..Row::KEYLESS
        };
        self.build(std::iter::once(row), 0..owners.num_ranks() as u32, |_| 0)
    }

    /// Whether this is a [`scalar`](Self::scalar) partial.
    pub fn is_scalar(&self) -> bool {
        self.rows.first().is_some_and(|row| row.u == NO_VERTEX)
    }

    /// The rows of group `key`; empty for a key outside the grouped range.
    #[inline]
    pub fn get(&self, key: u32) -> &[Row] {
        let k = key.wrapping_sub(self.lo) as usize;
        if k >= self.starts.len().saturating_sub(1) {
            return &[];
        }
        &self.rows[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// All rows, group by group.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows (distinct keys).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Sum of all counts.
    pub fn total(&self) -> Count {
        self.rows.iter().map(|row| row.count).sum()
    }

    /// Bytes held: the row and group-bound columns as allocated (a refilled
    /// instance keeps the buffers of the largest fill it has seen).
    pub fn bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Row>()
            + self.starts.capacity() * std::mem::size_of::<u32>()
    }
}

/// The projection table of a solved block: one vertex-grouped slice per
/// owner of the run's shard layout, each holding the rows whose `u` the
/// owner owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockTable {
    /// Owner `o`'s slice.
    slices: Vec<RowGroups>,
    /// The shard layout: which owner holds which vertex.
    owners: BlockPartition,
}

impl BlockTable {
    /// A table from its owner slices (slice `o` grouped by vertex over
    /// `owners.owned_range(o)`).
    pub fn from_slices(slices: Vec<RowGroups>, owners: BlockPartition) -> Self {
        assert_eq!(slices.len(), owners.num_ranks(), "one slice per owner");
        BlockTable { slices, owners }
    }

    /// The table of a boundary-free block: the one keyless row, which no
    /// vertex probes; only [`total`](Self::total) and [`len`](Self::len) read it.
    pub fn scalar(total: Count) -> Self {
        let owners = BlockPartition::new(0, 1);
        BlockTable {
            slices: vec![RowGroups::default().scalar(total, &owners)],
            owners,
        }
    }

    /// The rows whose `u` is `x`, by offset into the owner's slice; empty
    /// for a vertex with no rows or outside the graph.
    #[inline]
    pub fn get(&self, x: VertexId) -> &[Row] {
        let owner = if self.slices.len() == 1 {
            0
        } else {
            self.owners.owner(x)
        };
        self.slices[owner].get(x)
    }

    /// The owner slices, in owner order.
    pub fn slices(&self) -> &[RowGroups] {
        &self.slices
    }

    /// Owner `owner`'s slice, taken out for its buffers to be refilled (an
    /// empty one for an owner the table does not have).
    pub fn take_slice(&mut self, owner: usize) -> RowGroups {
        let slice = self.slices.get_mut(owner).map(std::mem::take);
        slice.unwrap_or_default()
    }

    /// Number of rows (1 for a scalar).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.slices.iter().map(RowGroups::len).sum()
    }

    /// The total count aggregated over all rows.
    pub fn total(&self) -> Count {
        self.slices.iter().map(RowGroups::total).sum()
    }

    /// The same entries keyed the other way round — every row's `u` and `v`
    /// swapped, regrouped by the new `u` — in the buffers of `retired`: what
    /// a join traversing a binary table from its second boundary node probes.
    /// One slice over every vertex: nothing is exchanged by owner after it.
    pub fn transposed(&self, retired: RowGroups) -> BlockTable {
        let swapped = self.slices.iter().flat_map(RowGroups::rows).map(|row| Row {
            u: row.v,
            v: row.u,
            ..*row
        });
        let owners = BlockPartition::new(self.owners.num_vertices(), 1);
        let slice = retired.by_vertex(swapped, owners.owned_range(0));
        BlockTable::from_slices(vec![slice], owners)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(u: VertexId, v: VertexId, color: u8, count: Count) -> Row {
        Row {
            u,
            v,
            sig: Signature::singleton(color),
            count,
        }
    }

    #[test]
    fn unary_table_accumulates() {
        // Ten vertices over three owners (0..4, 4..8, 8..10): a partial
        // groups by owner, an owner slice by vertex, both keeping input
        // order within a group.
        let owners = BlockPartition::new(10, 3);
        let rows = [
            row(9, NO_VERTEX, 0, 1),
            row(3, NO_VERTEX, 1, 2),
            row(4, NO_VERTEX, 2, 3),
            row(3, NO_VERTEX, 0, 4),
        ];
        let partial = RowGroups::default().by_owner(rows.iter().copied(), &owners);
        assert_eq!(partial.len(), 4);
        assert_eq!(partial.total(), 10);
        assert_eq!(partial.get(0), &[rows[1], rows[3]]);
        assert_eq!(partial.get(1), &[rows[2]]);
        assert_eq!(partial.get(2), &[rows[0]]);
        assert!(partial.get(3).is_empty());
        assert!(!partial.is_scalar());
        let slice =
            RowGroups::default().by_vertex(partial.get(0).iter().copied(), owners.owned_range(0));
        assert_eq!(slice.get(3), &[rows[1], rows[3]]);
        assert!(slice.get(2).is_empty());
        assert!(slice.get(4).is_empty(), "4 belongs to the next owner");
        assert!(slice.get(NO_VERTEX).is_empty());
        // Two rows; five bounds (the sort counts in one more).
        assert_eq!(slice.bytes(), 2 * 32 + 6 * 4);
        // Refilled with fewer rows, a retired instance equals a fresh build
        // and keeps the buffers it had.
        let held = partial.bytes();
        let refilled = partial.by_vertex(rows[..1].iter().copied(), owners.owned_range(2));
        let fresh = RowGroups::default().by_vertex(rows[..1].iter().copied(), 8..10);
        assert_eq!(refilled, fresh);
        assert_eq!(refilled.get(9), &rows[..1]);
        assert_eq!(refilled.bytes(), held);
    }

    #[test]
    fn projection_table_totals() {
        let scalar = BlockTable::scalar(11);
        assert_eq!((scalar.total(), scalar.len()), (11, 1));
        assert_eq!(BlockTable::scalar(0).len(), 1, "a zero scalar is one entry");
        let owners = BlockPartition::new(6, 2);
        assert!(RowGroups::default().scalar(5, &owners).is_scalar());
        assert_eq!(RowGroups::default().scalar(5, &owners).get(0).len(), 1);
        let slices = vec![
            RowGroups::default().by_vertex([row(1, 4, 0, 4)].into_iter(), 0..3),
            RowGroups::default().by_vertex([row(4, 1, 1, 3), row(5, 1, 1, 2)].into_iter(), 3..6),
        ];
        let table = BlockTable::from_slices(slices, owners);
        assert_eq!((table.total(), table.len()), (9, 3));
        assert_eq!(table.get(4), &[row(4, 1, 1, 3)]);
        assert!(table.get(2).is_empty());
        assert!(table.get(6).is_empty(), "past the last vertex");
    }

    #[test]
    fn transposition_regroups_by_the_second_vertex() {
        let owners = BlockPartition::new(6, 2);
        let slices = vec![
            RowGroups::default().by_vertex([row(1, 4, 0, 4), row(2, 0, 2, 1)].into_iter(), 0..3),
            RowGroups::default().by_vertex([row(4, 1, 1, 3), row(5, 4, 1, 2)].into_iter(), 3..6),
        ];
        let table = BlockTable::from_slices(slices, owners);
        let back = table.transposed(RowGroups::default());
        assert_eq!(back.get(4), &[row(4, 1, 0, 4), row(4, 5, 1, 2)]);
        assert_eq!(back.get(1), &[row(1, 4, 1, 3)]);
        assert_eq!(back.get(0), &[row(0, 2, 2, 1)]);
        assert!(back.get(2).is_empty());
        assert_eq!((back.slices().len(), back.len()), (1, 4));
        // Back again: the same rows per vertex, whatever the layout.
        let again = back.transposed(RowGroups::default());
        for x in 0..7 {
            assert_eq!(again.get(x), table.get(x), "vertex {x}");
        }
    }

    /// Group bounds are `u32`: the largest column is 2^32 - 1 rows, and one
    /// more must panic instead of wrapping a bound.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn group_bounds_fit_exactly_up_to_the_largest_column() {
        assert_rows_fit(u32::MAX as usize);
        // The last row's end bound is the row count itself.
        assert_eq!(u32::try_from(u32::MAX as usize), Ok(u32::MAX));
        let past = std::panic::catch_unwind(|| assert_rows_fit(u32::MAX as usize + 1));
        assert!(past.is_err(), "2^32 rows must be refused");
    }
}
