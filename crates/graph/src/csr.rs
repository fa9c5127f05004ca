//! Compressed sparse row (CSR) representation of an undirected data graph.
//!
//! The graph is stored as a single `offsets` array of length `n + 1` and a
//! `neighbors` array of length `2m` holding the sorted adjacency list of every
//! vertex. Neighbor lists are sorted by vertex id, which gives `O(log d)` edge
//! probes via binary search and cache-friendly sequential scans during the
//! path-extension joins of the PS and DB algorithms.

use crate::vertex::VertexId;

/// An immutable undirected graph in CSR form.
///
/// Self-loops and parallel edges are removed at construction time (see
/// [`crate::builder::GraphBuilder`]); the structure stores each undirected
/// edge twice, once per endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    num_edges: usize,
}

impl CsrGraph {
    /// Builds a graph directly from per-vertex sorted adjacency lists.
    ///
    /// This is the low-level constructor used by [`crate::builder::GraphBuilder`];
    /// callers must guarantee that the lists are sorted, deduplicated,
    /// self-loop free and symmetric. Debug builds assert these invariants.
    pub fn from_sorted_adjacency(adjacency: Vec<Vec<VertexId>>) -> Self {
        let n = adjacency.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let total: usize = adjacency.iter().map(|a| a.len()).sum();
        let mut neighbors = Vec::with_capacity(total);
        for (u, list) in adjacency.iter().enumerate() {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "adjacency list of {u} must be strictly sorted"
            );
            debug_assert!(!list.contains(&(u as VertexId)), "self loop on vertex {u}");
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        debug_assert_eq!(total % 2, 0, "undirected edge count must be even");
        CsrGraph {
            offsets,
            neighbors,
            num_edges: total / 2,
        }
    }

    /// Builds a graph from an already-flat CSR: `offsets` of length `n + 1`
    /// starting at 0, and `neighbors` holding every sorted list back to
    /// back. The same invariants as
    /// [`from_sorted_adjacency`](CsrGraph::from_sorted_adjacency) apply.
    pub(crate) fn from_flat_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&neighbors.len()));
        debug_assert!(offsets.windows(2).all(|w| {
            let list = &neighbors[w[0]..w[1]];
            list.windows(2).all(|p| p[0] < p[1])
        }));
        debug_assert_eq!(neighbors.len() % 2, 0, "undirected edge count must be even");
        let num_edges = neighbors.len() / 2;
        CsrGraph {
            offsets,
            neighbors,
            num_edges,
        }
    }

    /// The flat `offsets` (length `n + 1`) and `neighbors` arrays.
    pub(crate) fn flat_parts(&self) -> (&[usize], &[VertexId]) {
        (&self.offsets, &self.neighbors)
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted neighbor list of vertex `u`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Whether the undirected edge `(u, v)` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Probe the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over every vertex id.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// The degree sequence `d_0, ..., d_{n-1}` indexed by vertex id.
    pub fn degree_sequence(&self) -> Vec<usize> {
        (0..self.num_vertices() as VertexId)
            .map(|u| self.degree(u))
            .collect()
    }

    /// A 64-bit structural fingerprint of the graph: an FNV-1a fold of the
    /// vertex count and the full CSR adjacency structure.
    ///
    /// Two graphs have equal fingerprints exactly when they are equal as
    /// labelled graphs (up to the astronomically unlikely hash collision);
    /// the fingerprint is what result caches use to ask "is this the graph I
    /// computed that answer on" without retaining the graph itself. The scan
    /// is `O(n + m)`; callers that need it repeatedly should compute it once
    /// and store it.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(PRIME);
            }
        };
        fold(self.num_vertices() as u64);
        // The offsets array pins every adjacency list to its owning vertex,
        // so hashing offsets + neighbors distinguishes e.g. `0-1 2-3` from
        // `0-2 1-3` even though both flatten to the same neighbor multiset.
        for &offset in &self.offsets {
            fold(offset as u64);
        }
        for &v in &self.neighbors {
            fold(v as u64);
        }
        h
    }

    /// Returns the connected components as a vector mapping each vertex to a
    /// component id in `0..num_components`.
    pub fn connected_components(&self) -> Vec<usize> {
        let n = self.num_vertices();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            stack.push(start as VertexId);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    if comp[v as usize] == usize::MAX {
                        comp[v as usize] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, (i + 1) as VertexId);
        }
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_sorted_adjacency(vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn path_graph_shape() {
        let g = path_graph(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn edges_enumerated_once_each() {
        let g = path_graph(6);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 5);
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn connected_components_of_two_paths() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        b.add_edge(4, 5);
        let g = b.build();
        let comp = g.connected_components();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(comp.iter().copied().max().unwrap(), 1);
    }

    #[test]
    fn degree_sequence_matches_degrees() {
        let g = path_graph(4);
        assert_eq!(g.degree_sequence(), vec![1, 2, 2, 1]);
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let a = path_graph(5);
        let b = path_graph(5);
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Same vertex and edge counts, different edge set.
        let mut alt = GraphBuilder::new(5);
        alt.extend_edges([(0, 1), (1, 2), (2, 3), (2, 4)]);
        assert_ne!(a.fingerprint(), alt.build().fingerprint());

        // Same edges, one extra isolated vertex.
        let mut padded = GraphBuilder::new(6);
        padded.extend_edges([(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_ne!(a.fingerprint(), padded.build().fingerprint());
    }

    #[test]
    fn fingerprint_separates_matchings_with_equal_neighbor_multisets() {
        // 0-1 2-3 and 0-2 1-3 flatten to the same sorted neighbor arrays
        // unless the per-vertex offsets participate in the hash.
        let mut m1 = GraphBuilder::new(4);
        m1.extend_edges([(0, 1), (2, 3)]);
        let mut m2 = GraphBuilder::new(4);
        m2.extend_edges([(0, 2), (1, 3)]);
        assert_ne!(m1.build().fingerprint(), m2.build().fingerprint());
    }
}
