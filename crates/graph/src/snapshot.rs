//! Copy-on-write graph snapshots over CSR segments.
//!
//! A [`CsrGraph`] is immutable, but real graphs mutate. This module is the
//! substrate of the versioned graph store (`sgc-dyn`): the vertex set is cut
//! into contiguous segments, each holding a mini-CSR of its vertices'
//! adjacency lists behind an `Arc`, and applying an [`EdgeDelta`] writes
//! **only the segments owning a changed edge's endpoints** — every untouched
//! segment is shared by reference with the parent snapshot. A chain of small
//! deltas over a large graph therefore costs memory proportional to what
//! changed, not to the graph.
//!
//! A delta patches each dirty segment in one pass over the parent's flat
//! `offsets`/`neighbors`: its edits are sorted by vertex, the lists between
//! edited vertices are copied as whole slices, and each edited list is
//! merged with its edits. No per-vertex `Vec` is allocated, here or in
//! [`from_graph`](SegmentedSnapshot::from_graph), which copies CSR slices
//! the same way.
//!
//! The one hard contract is **materialization equivalence**: for any chain
//! of deltas, [`SegmentedSnapshot::materialize`] produces a [`CsrGraph`]
//! byte-identical (same offsets, same neighbor order, same
//! [`fingerprint`](CsrGraph::fingerprint)) to a fresh
//! [`CsrGraph::from_sorted_adjacency`] build of the final edge list —
//! adjacency lists stay sorted under insert and delete, so the CSR layout
//! is a pure function of the edge set.

use crate::csr::CsrGraph;
use crate::vertex::VertexId;
use std::ops::Range;
use std::sync::Arc;

/// Default number of vertices per snapshot segment.
///
/// Small enough that a single changed edge rewrites a sliver of a large
/// graph, large enough that the per-segment `Arc` overhead stays noise.
pub const DEFAULT_SEGMENT_VERTICES: usize = 1024;

/// A batch of edge insertions and deletions, canonicalized: every edge
/// normalized to `u < v`, each list sorted and duplicate-free, and the two
/// lists disjoint.
///
/// Deltas are **edge-only**: the vertex set is fixed at store creation.
/// That restriction is what makes incremental recounting sound — a trial's
/// random coloring depends only on `(num_vertices, colors, seed)`, so every
/// version of the graph shares the same per-trial colorings.
///
/// ```
/// use sgc_graph::snapshot::EdgeDelta;
///
/// let delta = EdgeDelta::new(vec![(3, 1), (0, 2)], vec![(5, 4)]).unwrap();
/// // Canonical form: u < v, sorted.
/// assert_eq!(delta.inserts(), &[(0, 2), (1, 3)]);
/// assert_eq!(delta.deletes(), &[(4, 5)]);
/// assert!(EdgeDelta::new(vec![(1, 1)], vec![]).is_err()); // self loop
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeDelta {
    inserts: Vec<(VertexId, VertexId)>,
    deletes: Vec<(VertexId, VertexId)>,
}

/// Why an [`EdgeDelta`] could not be constructed or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge connects a vertex to itself.
    SelfLoop {
        /// The offending vertex.
        vertex: VertexId,
    },
    /// The same edge appears twice in one list.
    DuplicateEdge {
        /// The duplicated edge (canonical `u < v`).
        edge: (VertexId, VertexId),
    },
    /// The same edge appears in both the insert and the delete list.
    InsertAndDelete {
        /// The conflicting edge (canonical `u < v`).
        edge: (VertexId, VertexId),
    },
    /// An endpoint is outside the graph's fixed vertex set.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// An inserted edge already exists in the snapshot.
    InsertExisting {
        /// The offending edge (canonical `u < v`).
        edge: (VertexId, VertexId),
    },
    /// A deleted edge does not exist in the snapshot.
    DeleteMissing {
        /// The offending edge (canonical `u < v`).
        edge: (VertexId, VertexId),
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::SelfLoop { vertex } => write!(f, "self loop at vertex {vertex}"),
            DeltaError::DuplicateEdge { edge } => {
                write!(f, "edge {}-{} appears twice in one list", edge.0, edge.1)
            }
            DeltaError::InsertAndDelete { edge } => {
                write!(f, "edge {}-{} is both inserted and deleted", edge.0, edge.1)
            }
            DeltaError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} is outside the graph's fixed vertex set (0..{num_vertices})"
            ),
            DeltaError::InsertExisting { edge } => {
                write!(f, "inserted edge {}-{} already exists", edge.0, edge.1)
            }
            DeltaError::DeleteMissing { edge } => {
                write!(f, "deleted edge {}-{} does not exist", edge.0, edge.1)
            }
        }
    }
}

impl std::error::Error for DeltaError {}

fn canonicalize(edges: Vec<(VertexId, VertexId)>) -> Result<Vec<(VertexId, VertexId)>, DeltaError> {
    let mut out: Vec<(VertexId, VertexId)> = edges
        .into_iter()
        .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
        .collect();
    for &(u, v) in &out {
        if u == v {
            return Err(DeltaError::SelfLoop { vertex: u });
        }
    }
    out.sort_unstable();
    for pair in out.windows(2) {
        if pair[0] == pair[1] {
            return Err(DeltaError::DuplicateEdge { edge: pair[0] });
        }
    }
    Ok(out)
}

impl EdgeDelta {
    /// Builds a canonical delta from raw insert and delete edge lists.
    ///
    /// # Errors
    /// [`DeltaError::SelfLoop`], [`DeltaError::DuplicateEdge`] or
    /// [`DeltaError::InsertAndDelete`] for malformed input. Range and
    /// existence checks happen at [`SegmentedSnapshot::apply`] time, where
    /// there is a graph to check against.
    pub fn new(
        inserts: Vec<(VertexId, VertexId)>,
        deletes: Vec<(VertexId, VertexId)>,
    ) -> Result<Self, DeltaError> {
        let inserts = canonicalize(inserts)?;
        let deletes = canonicalize(deletes)?;
        // Both lists are sorted: a linear merge finds any overlap.
        let (mut i, mut d) = (0usize, 0usize);
        while i < inserts.len() && d < deletes.len() {
            match inserts[i].cmp(&deletes[d]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => d += 1,
                std::cmp::Ordering::Equal => {
                    return Err(DeltaError::InsertAndDelete { edge: inserts[i] })
                }
            }
        }
        Ok(EdgeDelta { inserts, deletes })
    }

    /// The canonical (sorted, `u < v`) insert list.
    pub fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.inserts
    }

    /// The canonical (sorted, `u < v`) delete list.
    pub fn deletes(&self) -> &[(VertexId, VertexId)] {
        &self.deletes
    }

    /// Total number of changed edges.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Every changed edge (inserts then deletes), canonical order.
    pub fn changed_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.inserts.iter().chain(self.deletes.iter()).copied()
    }

    /// Every endpoint of a changed edge (with repeats).
    pub fn touched_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.changed_edges().flat_map(|(u, v)| [u, v])
    }

    /// A 64-bit FNV-1a digest of the canonical delta content.
    ///
    /// XORed with the parent version id, this forms the child's version id
    /// in the `sgc-dyn` version chain; two deltas with the same canonical
    /// edge lists always digest identically.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(PRIME);
            }
        };
        fold(self.inserts.len() as u64);
        for &(u, v) in &self.inserts {
            fold(((u as u64) << 32) | v as u64);
        }
        fold(self.deletes.len() as u64);
        for &(u, v) in &self.deletes {
            fold(((u as u64) << 32) | v as u64);
        }
        h
    }
}

/// One contiguous vertex range's adjacency lists in mini-CSR form.
///
/// Segments are immutable and `Arc`-shared between the snapshots that did
/// not change them.
#[derive(Debug)]
pub struct CsrSegment {
    start: VertexId,
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
}

/// One adjacency-list edit: at vertex `.0`, insert (`.2`) or delete the
/// neighbor `.1`.
type Edit = (VertexId, VertexId, bool);

impl CsrSegment {
    /// Copies the lists of vertices `range` out of `graph`'s flat CSR: one
    /// slice copy of the neighbors, and the offsets rebased to zero.
    fn copy_of(graph: &CsrGraph, range: Range<usize>) -> Self {
        let (offsets, neighbors) = graph.flat_parts();
        let base = offsets[range.start];
        CsrSegment {
            start: range.start as VertexId,
            offsets: offsets[range.start..=range.end]
                .iter()
                .map(|&o| (o - base) as u32)
                .collect(),
            neighbors: neighbors[base..offsets[range.end]].to_vec(),
        }
    }

    /// This segment with `edits` applied, written in one pass: the lists
    /// between edited vertices are copied as whole slices, and each edited
    /// list is merged with its edits. `edits` must be sorted, lie in
    /// [`range`](CsrSegment::range), and be valid (no insert of a present
    /// neighbor, no delete of an absent one).
    fn patched(&self, edits: &[Edit]) -> Self {
        let n = self.num_vertices();
        let inserts = edits.iter().filter(|e| e.2).count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut neighbors =
            Vec::with_capacity(self.neighbors.len() + inserts - (edits.len() - inserts));
        // Copies the untouched lists of local vertices `from..to`.
        let copy =
            |offsets: &mut Vec<u32>, neighbors: &mut Vec<VertexId>, from: usize, to: usize| {
                let (lo, hi) = (self.offsets[from], self.offsets[to]);
                let base = neighbors.len() as u32;
                neighbors.extend_from_slice(&self.neighbors[lo as usize..hi as usize]);
                offsets.extend(self.offsets[from + 1..=to].iter().map(|&o| o - lo + base));
            };
        let mut next = 0usize;
        let mut rest = edits;
        while let Some(&(v, _, _)) = rest.first() {
            let run = rest.partition_point(|e| e.0 == v);
            let (mine, tail) = rest.split_at(run);
            rest = tail;
            let local = (v - self.start) as usize;
            copy(&mut offsets, &mut neighbors, next, local);
            let list = self.neighbors(v);
            let mut pos = 0usize;
            for &(_, other, insert) in mine {
                let at = pos + list[pos..].partition_point(|&w| w < other);
                neighbors.extend_from_slice(&list[pos..at]);
                if insert {
                    debug_assert_ne!(list.get(at), Some(&other), "insert of a present edge");
                    neighbors.push(other);
                    pos = at;
                } else {
                    debug_assert_eq!(list.get(at), Some(&other), "delete of an absent edge");
                    pos = at + 1;
                }
            }
            neighbors.extend_from_slice(&list[pos..]);
            offsets.push(neighbors.len() as u32);
            next = local + 1;
        }
        copy(&mut offsets, &mut neighbors, next, n);
        CsrSegment {
            start: self.start,
            offsets,
            neighbors,
        }
    }

    /// The vertex range this segment owns.
    pub fn range(&self) -> Range<VertexId> {
        self.start..self.start + (self.offsets.len() - 1) as VertexId
    }

    /// Number of vertices in the segment.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted neighbor list of vertex `v` (which must be in
    /// [`range`](CsrSegment::range)).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = (v - self.start) as usize;
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A copy-on-write snapshot of one graph version: `Arc`-shared CSR segments
/// over a fixed vertex set.
///
/// ```
/// use sgc_graph::snapshot::{EdgeDelta, SegmentedSnapshot};
/// use sgc_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(6);
/// b.extend_edges([(0, 1), (1, 2), (2, 0), (3, 4)]);
/// let base = b.build();
/// let snap = SegmentedSnapshot::from_graph(&base, 2);
///
/// let next = snap
///     .apply(&EdgeDelta::new(vec![(4, 5)], vec![(0, 1)]).unwrap())
///     .unwrap();
/// let graph = next.materialize();
/// assert!(graph.has_edge(4, 5));
/// assert!(!graph.has_edge(0, 1));
/// // The untouched middle segment (vertices 2..4) is shared by reference.
/// assert_eq!(next.segments_shared_with(&snap), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SegmentedSnapshot {
    num_vertices: usize,
    num_edges: usize,
    segment_vertices: usize,
    segments: Vec<Arc<CsrSegment>>,
}

impl SegmentedSnapshot {
    /// Cuts `graph` into segments of `segment_vertices` vertices each
    /// (clamped to at least 1; the last segment may be shorter).
    pub fn from_graph(graph: &CsrGraph, segment_vertices: usize) -> Self {
        let segment_vertices = segment_vertices.max(1);
        let n = graph.num_vertices();
        let mut segments = Vec::with_capacity(n.div_ceil(segment_vertices).max(1));
        let mut start = 0usize;
        while start < n || (n == 0 && segments.is_empty()) {
            let end = (start + segment_vertices).min(n);
            segments.push(Arc::new(CsrSegment::copy_of(graph, start..end)));
            start = end;
            if n == 0 {
                break;
            }
        }
        SegmentedSnapshot {
            num_vertices: n,
            num_edges: graph.num_edges(),
            segment_vertices,
            segments,
        }
    }

    /// [`from_graph`](SegmentedSnapshot::from_graph) with
    /// [`DEFAULT_SEGMENT_VERTICES`].
    pub fn new(graph: &CsrGraph) -> Self {
        SegmentedSnapshot::from_graph(graph, DEFAULT_SEGMENT_VERTICES)
    }

    /// Number of vertices (fixed across every version).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges in this version.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// How many segments this snapshot shares (by `Arc` identity) with
    /// `other` — the copy-on-write bookkeeping tests pin.
    pub fn segments_shared_with(&self, other: &SegmentedSnapshot) -> usize {
        self.segments
            .iter()
            .zip(&other.segments)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    fn segment_of(&self, v: VertexId) -> usize {
        v as usize / self.segment_vertices
    }

    /// The sorted neighbor list of `v` in this version.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.segments[self.segment_of(v)].neighbors(v)
    }

    /// Whether edge `u-v` exists in this version.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether `delta` applies to this version: every endpoint in range,
    /// every inserted edge absent, every deleted edge present.
    ///
    /// # Errors
    /// [`DeltaError::VertexOutOfRange`], [`DeltaError::InsertExisting`] or
    /// [`DeltaError::DeleteMissing`] for the first violation found.
    pub fn check(&self, delta: &EdgeDelta) -> Result<(), DeltaError> {
        for (u, v) in delta.changed_edges() {
            for w in [u, v] {
                if (w as usize) >= self.num_vertices {
                    return Err(DeltaError::VertexOutOfRange {
                        vertex: w,
                        num_vertices: self.num_vertices,
                    });
                }
            }
        }
        for &(u, v) in delta.inserts() {
            if self.has_edge(u, v) {
                return Err(DeltaError::InsertExisting { edge: (u, v) });
            }
        }
        for &(u, v) in delta.deletes() {
            if !self.has_edge(u, v) {
                return Err(DeltaError::DeleteMissing { edge: (u, v) });
            }
        }
        Ok(())
    }

    /// Applies a canonical [`EdgeDelta`], producing the child snapshot.
    /// Only segments owning an endpoint of a changed edge are written anew,
    /// each patched in one pass over its parent; all others are `Arc`-shared
    /// with `self`.
    ///
    /// # Errors
    /// [`DeltaError::VertexOutOfRange`], [`DeltaError::InsertExisting`] or
    /// [`DeltaError::DeleteMissing`] when the delta does not fit this
    /// version; `self` is unchanged in every error case.
    pub fn apply(&self, delta: &EdgeDelta) -> Result<SegmentedSnapshot, DeltaError> {
        // Validate everything before touching any segment.
        self.check(delta)?;

        // Both directions of every changed edge, sorted by vertex: each
        // segment's edits are then one contiguous run, in list order.
        let mut edits: Vec<Edit> = Vec::with_capacity(2 * delta.len());
        for (edges, insert) in [(delta.inserts(), true), (delta.deletes(), false)] {
            for &(u, v) in edges {
                edits.push((u, v, insert));
                edits.push((v, u, insert));
            }
        }
        edits.sort_unstable();

        let mut rest = &edits[..];
        let segments = self
            .segments
            .iter()
            .map(|segment| {
                let run = rest.partition_point(|e| e.0 < segment.range().end);
                let (mine, tail) = rest.split_at(run);
                rest = tail;
                if mine.is_empty() {
                    Arc::clone(segment)
                } else {
                    Arc::new(segment.patched(mine))
                }
            })
            .collect();
        Ok(SegmentedSnapshot {
            num_vertices: self.num_vertices,
            num_edges: self.num_edges + delta.inserts().len() - delta.deletes().len(),
            segment_vertices: self.segment_vertices,
            segments,
        })
    }

    /// Materializes this version as a contiguous [`CsrGraph`].
    ///
    /// Bit-identical (offsets, neighbor order, fingerprint) to a fresh
    /// [`CsrGraph::from_sorted_adjacency`] build of the same edge list:
    /// segment lists stay sorted under every delta, so the flattening is
    /// canonical.
    pub fn materialize(&self) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.num_vertices + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(2 * self.num_edges);
        for segment in &self.segments {
            let base = neighbors.len();
            neighbors.extend_from_slice(&segment.neighbors);
            offsets.extend(segment.offsets[1..].iter().map(|&o| base + o as usize));
        }
        CsrGraph::from_flat_parts(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn line_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as VertexId, v as VertexId + 1);
        }
        b.build()
    }

    #[test]
    fn delta_canonicalizes_and_rejects_malformed_input() {
        let delta = EdgeDelta::new(vec![(5, 2), (1, 0)], vec![(9, 3)]).unwrap();
        assert_eq!(delta.inserts(), &[(0, 1), (2, 5)]);
        assert_eq!(delta.deletes(), &[(3, 9)]);
        assert_eq!(delta.len(), 3);
        assert!(!delta.is_empty());
        assert_eq!(
            EdgeDelta::new(vec![(2, 2)], vec![]),
            Err(DeltaError::SelfLoop { vertex: 2 })
        );
        assert_eq!(
            EdgeDelta::new(vec![(1, 2), (2, 1)], vec![]),
            Err(DeltaError::DuplicateEdge { edge: (1, 2) })
        );
        assert_eq!(
            EdgeDelta::new(vec![(1, 2)], vec![(2, 1)]),
            Err(DeltaError::InsertAndDelete { edge: (1, 2) })
        );
    }

    #[test]
    fn digest_depends_on_canonical_content_only() {
        let a = EdgeDelta::new(vec![(5, 2), (1, 0)], vec![(9, 3)]).unwrap();
        let b = EdgeDelta::new(vec![(0, 1), (2, 5)], vec![(3, 9)]).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = EdgeDelta::new(vec![(0, 1), (2, 5), (3, 9)], vec![]).unwrap();
        assert_ne!(a.digest(), c.digest());
        // Moving an edge between lists changes the digest even though the
        // flattened edge multiset matches.
        let d = EdgeDelta::new(vec![(3, 9)], vec![(0, 1)]).unwrap();
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn apply_validates_against_the_snapshot() {
        let snap = SegmentedSnapshot::from_graph(&line_graph(10), 4);
        assert_eq!(
            snap.apply(&EdgeDelta::new(vec![(0, 10)], vec![]).unwrap())
                .unwrap_err(),
            DeltaError::VertexOutOfRange {
                vertex: 10,
                num_vertices: 10
            }
        );
        assert_eq!(
            snap.apply(&EdgeDelta::new(vec![(0, 1)], vec![]).unwrap())
                .unwrap_err(),
            DeltaError::InsertExisting { edge: (0, 1) }
        );
        assert_eq!(
            snap.apply(&EdgeDelta::new(vec![], vec![(0, 2)]).unwrap())
                .unwrap_err(),
            DeltaError::DeleteMissing { edge: (0, 2) }
        );
    }

    #[test]
    fn apply_rebuilds_only_touched_segments() {
        let graph = line_graph(16);
        let snap = SegmentedSnapshot::from_graph(&graph, 4);
        assert_eq!(snap.num_segments(), 4);
        // Edge 1-2 touches only segment 0 (vertices 0..4).
        let next = snap
            .apply(&EdgeDelta::new(vec![], vec![(1, 2)]).unwrap())
            .unwrap();
        assert_eq!(next.segments_shared_with(&snap), 3);
        assert_eq!(next.num_edges(), graph.num_edges() - 1);
        // Edge 3-12 spans segments 0 and 3.
        let far = snap
            .apply(&EdgeDelta::new(vec![(3, 12)], vec![]).unwrap())
            .unwrap();
        assert_eq!(far.segments_shared_with(&snap), 2);
        assert!(far.has_edge(3, 12));
        assert!(far.has_edge(12, 3));
    }

    #[test]
    fn materialize_matches_a_fresh_build_bit_for_bit() {
        let graph = line_graph(20);
        let snap = SegmentedSnapshot::from_graph(&graph, 6);
        // Unchanged: materialization reproduces the source graph exactly.
        assert_eq!(snap.materialize().fingerprint(), graph.fingerprint());

        // A chain of deltas vs a fresh build of the final edge list.
        let d1 = EdgeDelta::new(vec![(0, 5), (7, 19)], vec![(3, 4)]).unwrap();
        let d2 = EdgeDelta::new(vec![(3, 4)], vec![(0, 5), (10, 11)]).unwrap();
        let v1 = snap.apply(&d1).unwrap();
        let v2 = v1.apply(&d2).unwrap();
        let materialized = v2.materialize();

        let mut b = GraphBuilder::new(20);
        for (u, v) in graph.edges() {
            if ![(3, 4), (0, 5), (10, 11)].contains(&(u, v)) {
                b.add_edge(u, v);
            }
        }
        b.add_edge(7, 19);
        b.add_edge(3, 4);
        let fresh = b.build();
        assert_eq!(materialized.fingerprint(), fresh.fingerprint());
        assert_eq!(materialized.num_edges(), fresh.num_edges());
        // And the parent version is untouched (COW, not mutation).
        assert!(v1.has_edge(0, 5));
        assert!(!v2.has_edge(0, 5));
    }

    /// Seeded random delta chains at several segment sizes, each delta
    /// forcing one edge case, against a mirrored edge set: after every
    /// `apply` the snapshot materializes to a fresh build of the mirror, and
    /// every segment owning no changed endpoint is still the parent's `Arc`.
    #[test]
    fn random_deltas_patch_like_a_fresh_build_and_share_untouched_segments() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        const N: usize = 23;
        let fresh = |edges: &BTreeSet<(VertexId, VertexId)>| {
            let mut b = GraphBuilder::new(N);
            b.extend_edges(edges.iter().copied());
            b.build()
        };
        for segment_vertices in [1usize, 3, 7, 1024] {
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed * 1031 + segment_vertices as u64);
                let mut edges = BTreeSet::new();
                for _ in 0..30 {
                    let (u, v) = (rng.gen_range(0..N as u32), rng.gen_range(0..N as u32));
                    if u != v {
                        edges.insert((u.min(v), u.max(v)));
                    }
                }
                let mut snap = SegmentedSnapshot::from_graph(&fresh(&edges), segment_vertices);
                assert_eq!(
                    snap.materialize().fingerprint(),
                    fresh(&edges).fingerprint()
                );
                for step in 0..40 {
                    let mut inserts = BTreeSet::new();
                    let mut deletes = BTreeSet::new();
                    let neighbors = |v: VertexId, edges: &BTreeSet<(VertexId, VertexId)>| {
                        (0..N as VertexId)
                            .filter(|&w| edges.contains(&(v.min(w), v.max(w))))
                            .collect::<Vec<_>>()
                    };
                    let canon = |u: VertexId, v: VertexId| (u.min(v), u.max(v));
                    let v = rng.gen_range(0..N as VertexId);
                    let adjacent = neighbors(v, &edges);
                    match step % 3 {
                        // An insert and a delete at one vertex.
                        0 => {
                            if let Some(&w) = adjacent.first() {
                                deletes.insert(canon(v, w));
                            }
                            if let Some(w) =
                                (0..N as VertexId).find(|&w| w != v && !adjacent.contains(&w))
                            {
                                inserts.insert(canon(v, w));
                            }
                        }
                        // Edits at a segment's first and last vertex.
                        1 => {
                            let first = v as usize / segment_vertices * segment_vertices;
                            let last = (first + segment_vertices).min(N) - 1;
                            let far = (last as VertexId + 1 + v) % N as VertexId;
                            for (a, b) in
                                [(first, last), (first, far as usize), (last, far as usize)]
                            {
                                if a == b {
                                    continue;
                                }
                                let e = canon(a as VertexId, b as VertexId);
                                if edges.contains(&e) {
                                    deletes.insert(e);
                                } else {
                                    inserts.insert(e);
                                }
                            }
                        }
                        // A vertex losing its last neighbour.
                        _ => {
                            for &w in &adjacent {
                                deletes.insert(canon(v, w));
                            }
                        }
                    }
                    // Random extra edits on top of the forced ones.
                    for _ in 0..rng.gen_range(0..4usize) {
                        let (a, b) = (rng.gen_range(0..N as u32), rng.gen_range(0..N as u32));
                        if a == b {
                            continue;
                        }
                        let e = canon(a, b);
                        if edges.contains(&e) && !inserts.contains(&e) {
                            deletes.insert(e);
                        } else if !edges.contains(&e) && !deletes.contains(&e) {
                            inserts.insert(e);
                        }
                    }
                    let delta = EdgeDelta::new(
                        inserts.iter().copied().collect(),
                        deletes.iter().copied().collect(),
                    )
                    .unwrap();
                    let next = snap.apply(&delta).unwrap();
                    edges.extend(inserts.iter().copied());
                    edges.retain(|e| !deletes.contains(e));
                    let context =
                        format!("segments of {segment_vertices}, seed {seed}, step {step}");
                    let expected = fresh(&edges);
                    let got = next.materialize();
                    assert_eq!(got.fingerprint(), expected.fingerprint(), "{context}");
                    assert_eq!(next.num_edges(), expected.num_edges(), "{context}");
                    let dirty: BTreeSet<usize> = delta
                        .touched_vertices()
                        .map(|w| w as usize / segment_vertices)
                        .collect();
                    for (i, (a, b)) in next.segments.iter().zip(&snap.segments).enumerate() {
                        assert_eq!(
                            Arc::ptr_eq(a, b),
                            !dirty.contains(&i),
                            "{context}, segment {i}"
                        );
                    }
                    snap = next;
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs_survive_segmentation() {
        let empty = GraphBuilder::new(0).build();
        let snap = SegmentedSnapshot::new(&empty);
        assert_eq!(snap.num_vertices(), 0);
        assert_eq!(snap.materialize().num_vertices(), 0);

        let one = GraphBuilder::new(1).build();
        let snap = SegmentedSnapshot::from_graph(&one, 8);
        assert_eq!(snap.num_segments(), 1);
        assert_eq!(snap.materialize().fingerprint(), one.fingerprint());
    }
}
