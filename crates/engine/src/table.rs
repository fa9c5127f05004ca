//! Projection tables.
//!
//! Section 4.2 defines the *projection table* of a subquery: for every
//! combination of boundary-node images and signature it stores the number of
//! colorful matches consistent with that combination. Blocks with one
//! boundary node produce [`UnaryTable`]s, blocks with two produce
//! [`BinaryTable`]s, and the root block (no boundary nodes) produces a plain
//! count. Only non-zero entries are materialised.
//!
//! The working tables of a block solve (partially built paths along a cycle)
//! live in [`crate::columnar`]; these hash-map tables are the interchange
//! format between blocks and across the exchange step.

use crate::hash::FastMap;
use crate::signature::Signature;
use sgc_graph::vertex::VertexId;

/// Number of colorful matches (or partial matches) — always a plain count.
pub type Count = u64;

/// Key of a [`UnaryTable`]: the image of the single boundary node plus the
/// signature of the match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UnaryKey {
    /// Image of the boundary node.
    pub vertex: VertexId,
    /// Colors used by the match.
    pub sig: Signature,
}

/// Key of a [`BinaryTable`]: images of the two boundary nodes (in the block's
/// boundary order) plus the signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BinaryKey {
    /// Image of the first boundary node.
    pub u: VertexId,
    /// Image of the second boundary node.
    pub v: VertexId,
    /// Colors used by the match.
    pub sig: Signature,
}

/// Projection table of a block with a single boundary node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnaryTable {
    map: FastMap<UnaryKey, Count>,
}

impl UnaryTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` to the entry for `(vertex, sig)`.
    #[inline]
    pub fn add(&mut self, vertex: VertexId, sig: Signature, count: Count) {
        if count != 0 {
            *self.map.entry(UnaryKey { vertex, sig }).or_insert(0) += count;
        }
    }

    /// The count stored for `(vertex, sig)`, zero if absent.
    pub fn get(&self, vertex: VertexId, sig: Signature) -> Count {
        self.map
            .get(&UnaryKey { vertex, sig })
            .copied()
            .unwrap_or(0)
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all `(key, count)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&UnaryKey, &Count)> {
        self.map.iter()
    }

    /// Sum of all counts (used when the root block has one boundary node).
    pub fn total(&self) -> Count {
        self.map.values().sum()
    }

    /// Groups the entries by vertex for join-side lookups.
    pub fn group_by_vertex(&self) -> FastMap<VertexId, Vec<(Signature, Count)>> {
        let mut grouped: FastMap<VertexId, Vec<(Signature, Count)>> = FastMap::default();
        for (key, &count) in &self.map {
            grouped
                .entry(key.vertex)
                .or_default()
                .push((key.sig, count));
        }
        grouped
    }

    /// Merges another unary table into this one.
    pub fn merge(&mut self, other: &UnaryTable) {
        for (key, &count) in &other.map {
            *self.map.entry(*key).or_insert(0) += count;
        }
    }
}

/// Projection table of a block with two boundary nodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BinaryTable {
    map: FastMap<BinaryKey, Count>,
}

impl BinaryTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` to the entry for `(u, v, sig)`.
    #[inline]
    pub fn add(&mut self, u: VertexId, v: VertexId, sig: Signature, count: Count) {
        if count != 0 {
            *self.map.entry(BinaryKey { u, v, sig }).or_insert(0) += count;
        }
    }

    /// The count stored for `(u, v, sig)`, zero if absent.
    pub fn get(&self, u: VertexId, v: VertexId, sig: Signature) -> Count {
        self.map.get(&BinaryKey { u, v, sig }).copied().unwrap_or(0)
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all `(key, count)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&BinaryKey, &Count)> {
        self.map.iter()
    }

    /// Sum of all counts.
    pub fn total(&self) -> Count {
        self.map.values().sum()
    }

    /// Merges another binary table into this one.
    pub fn merge(&mut self, other: &BinaryTable) {
        for (key, &count) in &other.map {
            *self.map.entry(*key).or_insert(0) += count;
        }
    }
}

/// The projection table of a block: scalar for the root (no boundary nodes),
/// unary for one boundary node, binary for two.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProjectionTable {
    /// Total count — blocks with no boundary node (the root).
    Scalar(Count),
    /// One boundary node.
    Unary(UnaryTable),
    /// Two boundary nodes, keyed in the block's boundary order.
    Binary(BinaryTable),
}

impl ProjectionTable {
    /// The total count aggregated over all entries.
    pub fn total(&self) -> Count {
        match self {
            ProjectionTable::Scalar(c) => *c,
            ProjectionTable::Unary(t) => t.total(),
            ProjectionTable::Binary(t) => t.total(),
        }
    }

    /// Number of materialised entries (1 for a scalar).
    pub fn len(&self) -> usize {
        match self {
            ProjectionTable::Scalar(_) => 1,
            ProjectionTable::Unary(t) => t.len(),
            ProjectionTable::Binary(t) => t.len(),
        }
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        match self {
            ProjectionTable::Scalar(c) => *c == 0,
            ProjectionTable::Unary(t) => t.is_empty(),
            ProjectionTable::Binary(t) => t.is_empty(),
        }
    }

    /// The unary table, if this is a unary projection.
    pub fn as_unary(&self) -> Option<&UnaryTable> {
        match self {
            ProjectionTable::Unary(t) => Some(t),
            _ => None,
        }
    }

    /// The binary table, if this is a binary projection.
    pub fn as_binary(&self) -> Option<&BinaryTable> {
        match self {
            ProjectionTable::Binary(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_table_accumulates() {
        let mut t = UnaryTable::new();
        t.add(3, Signature::singleton(1), 2);
        t.add(3, Signature::singleton(1), 5);
        t.add(4, Signature::singleton(2), 1);
        t.add(9, Signature::singleton(0), 0); // ignored
        assert_eq!(t.get(3, Signature::singleton(1)), 7);
        assert_eq!(t.get(3, Signature::singleton(2)), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total(), 8);
    }

    #[test]
    fn projection_table_totals() {
        assert_eq!(ProjectionTable::Scalar(11).total(), 11);
        let mut u = UnaryTable::new();
        u.add(0, Signature::singleton(0), 4);
        assert_eq!(ProjectionTable::Unary(u).total(), 4);
        assert!(ProjectionTable::Scalar(0).is_empty());
    }

    #[test]
    fn unary_group_by_vertex() {
        let mut t = UnaryTable::new();
        t.add(5, Signature::singleton(0), 1);
        t.add(5, Signature::singleton(1), 2);
        t.add(6, Signature::singleton(2), 3);
        let g = t.group_by_vertex();
        assert_eq!(g[&5].len(), 2);
        assert_eq!(g[&6], vec![(Signature::singleton(2), 3)]);
    }
}
