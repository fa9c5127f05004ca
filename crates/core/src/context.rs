//! The per-run counting context and the reusable graph preprocessing.
//!
//! The paper amortizes one expensive preprocessing pass over the data graph —
//! the degree-based total order and the rank-sorted adjacency lists — across
//! hundreds of random-coloring trials. That pass lives in [`GraphPrep`],
//! built once per [`Engine`](crate::Engine). [`Context`] then bundles a
//! `GraphPrep` with the *per-run* inputs — the coloring and the run's shard
//! layout, the one partition its work is both run and charged over — so
//! that the algorithm code passes a single reference around.

use crate::error::SgcError;
use sgc_engine::Signature;
use sgc_graph::{BlockPartition, Coloring, CsrGraph, DegreeOrder, VertexId};
use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Number of [`GraphPrep`] constructions performed by this thread. Used
    /// by tests to verify that an [`Engine`](crate::Engine) amortizes the
    /// preprocessing instead of redoing it per trial. Thread-local rather
    /// than process-global so that concurrently running tests (libtest runs
    /// tests on several threads of one process) cannot perturb each other's
    /// deltas.
    static PREP_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// Number of [`GraphPrep`] constructions performed by the calling thread.
///
/// To assert "no hidden rebuilds" across a multi-trial estimation, run the
/// estimation with `.parallel(false)` so every trial executes on the calling
/// thread and any rebuild would be visible here.
pub fn prep_build_count() -> usize {
    PREP_BUILDS.with(|c| c.get())
}

/// The coloring-independent preprocessing of a data graph: the degree-based
/// total order and the adjacency lists re-sorted by ascending degree rank.
///
/// Building this is `O(m log m)` (a sort of every adjacency list); everything
/// else in a counting run only reads it. Build it once and share it across
/// trials.
pub struct GraphPrep {
    /// Degree-based total order on data vertices (used by the DB algorithm).
    pub order: DegreeOrder,
    /// Adjacency lists re-sorted by ascending degree rank; `ranked_offsets`
    /// delimits each vertex's slice. Lets the DB algorithm enumerate only the
    /// neighbors below a given rank (the MINBUCKET-style pruning) instead of
    /// scanning the full list and rejecting.
    ranked_neighbors: Vec<VertexId>,
    /// `ranked_ranks[i]` = the degree rank of `ranked_neighbors[i]`, so the
    /// per-row binary search in [`Context::lower_neighbors`] scans one dense
    /// sorted array instead of chasing a rank lookup per probe.
    ranked_ranks: Vec<u32>,
    ranked_offsets: Vec<usize>,
}

impl GraphPrep {
    /// Runs the preprocessing pass over `graph`.
    pub fn new(graph: &CsrGraph) -> Self {
        PREP_BUILDS.with(|c| c.set(c.get() + 1));
        let order = DegreeOrder::new(graph);
        let mut ranked_neighbors = Vec::with_capacity(2 * graph.num_edges());
        let mut ranked_ranks = Vec::with_capacity(2 * graph.num_edges());
        let mut ranked_offsets = Vec::with_capacity(graph.num_vertices() + 1);
        ranked_offsets.push(0);
        let mut scratch: Vec<VertexId> = Vec::new();
        for v in graph.vertices() {
            scratch.clear();
            scratch.extend_from_slice(graph.neighbors(v));
            scratch.sort_unstable_by_key(|&w| order.rank(w));
            ranked_neighbors.extend_from_slice(&scratch);
            ranked_ranks.extend(scratch.iter().map(|&w| order.rank(w)));
            ranked_offsets.push(ranked_neighbors.len());
        }
        GraphPrep {
            order,
            ranked_neighbors,
            ranked_ranks,
            ranked_offsets,
        }
    }
}

/// Immutable state shared by every join of a counting run: the data graph,
/// its reusable preprocessing, and the per-run coloring and shard layout.
pub struct Context<'a> {
    /// The data graph.
    pub graph: &'a CsrGraph,
    /// The current random coloring (k colors, k = query size).
    pub coloring: &'a Coloring,
    prep: &'a GraphPrep,
    /// Path construction only enumerates start vertices in this range: one
    /// shard's owned vertex block (the executor sums the shards' partial
    /// tables back together in its exchange step), or every vertex.
    start: Range<VertexId>,
    /// The run's shard layout (one block for an unsharded context): every
    /// operation is charged to the block owning its vertex, and a block's
    /// projection rows are exported grouped by the owner of their first
    /// boundary image.
    pub(crate) owners: BlockPartition,
}

impl<'a> Context<'a> {
    /// Checks that `coloring` covers `graph` — the validation shared by
    /// [`Context::new`] and the executor (which validates once up front,
    /// then builds one context per shard infallibly).
    pub(crate) fn validate(graph: &CsrGraph, coloring: &Coloring) -> Result<(), SgcError> {
        if coloring.num_vertices() != graph.num_vertices() {
            return Err(SgcError::ColoringSizeMismatch {
                graph_vertices: graph.num_vertices(),
                coloring_vertices: coloring.num_vertices(),
            });
        }
        Ok(())
    }

    /// Builds a context for one unsharded run over all of `graph` with
    /// `coloring`, reusing the preprocessing in `prep`.
    ///
    /// # Errors
    /// [`SgcError::ColoringSizeMismatch`] if the coloring does not cover
    /// every vertex of the graph.
    pub fn new(
        graph: &'a CsrGraph,
        prep: &'a GraphPrep,
        coloring: &'a Coloring,
    ) -> Result<Self, SgcError> {
        Context::validate(graph, coloring)?;
        let whole = BlockPartition::new(graph.num_vertices(), 1);
        Ok(Context::for_shard(graph, prep, coloring, &whole, 0))
    }

    /// Builds a context restricted to block `shard` of `shards`: path
    /// construction enumerates only start vertices in that block. Inputs
    /// must already have passed [`Context::validate`].
    pub(crate) fn for_shard(
        graph: &'a CsrGraph,
        prep: &'a GraphPrep,
        coloring: &'a Coloring,
        shards: &BlockPartition,
        shard: usize,
    ) -> Self {
        debug_assert!(Context::validate(graph, coloring).is_ok());
        Context {
            graph,
            coloring,
            prep,
            start: shards.owned_range(shard),
            owners: shards.clone(),
        }
    }

    /// The range of start vertices this context enumerates when seeding a
    /// path table: the shard's owned range for shard contexts, every vertex
    /// otherwise.
    #[inline]
    pub fn start_vertices(&self) -> Range<VertexId> {
        self.start.clone()
    }

    /// Cuts [`start_vertices`](Self::start_vertices) into consecutive tiles
    /// of at most `max_edges` incident edges each (a vertex whose degree
    /// alone exceeds the budget is a tile of its own). A path row keeps its
    /// start vertex for life, so the tiles partition every path table of a
    /// block and the kernel solves them one at a time.
    pub(crate) fn start_tiles(
        &self,
        max_edges: usize,
    ) -> impl Iterator<Item = Range<VertexId>> + '_ {
        let end = self.start.end;
        let mut next = self.start.start;
        std::iter::from_fn(move || {
            let first = next;
            let mut edges = 0usize;
            while next < end {
                edges = edges.saturating_add(self.graph.degree(next));
                if edges > max_edges && next > first {
                    break;
                }
                next += 1;
            }
            (first < next).then_some(first..next)
        })
    }

    /// The degree-based total order on data vertices.
    #[inline]
    pub fn order(&self) -> &DegreeOrder {
        &self.prep.order
    }

    /// The neighbors of `v` that are strictly lower than `than` in the degree
    /// ordering — the only candidates a high-starting path from `than` may
    /// extend to.
    #[inline]
    pub fn lower_neighbors(&self, v: VertexId, than: VertexId) -> &[VertexId] {
        let v = v as usize;
        let span = self.prep.ranked_offsets[v]..self.prep.ranked_offsets[v + 1];
        let list = &self.prep.ranked_neighbors[span.clone()];
        let ranks = &self.prep.ranked_ranks[span];
        let bound = self.prep.order.rank(than);
        let cut = ranks.partition_point(|&r| r < bound);
        &list[..cut]
    }

    /// Color of data vertex `v`.
    #[inline]
    pub fn color(&self, v: VertexId) -> u8 {
        self.coloring.color(v)
    }

    /// Signature containing only the color of `v`.
    #[inline]
    pub fn color_sig(&self, v: VertexId) -> Signature {
        Signature::singleton(self.coloring.color(v))
    }

    /// Number of colors `k`.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.coloring.num_colors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_graph::GraphBuilder;

    fn tiny() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1), (1, 2), (2, 3)]);
        b.build()
    }

    #[test]
    fn context_exposes_colors_and_order() {
        let g = tiny();
        let prep = GraphPrep::new(&g);
        let col = Coloring::from_colors(vec![0, 1, 2, 0], 3);
        let ctx = Context::new(&g, &prep, &col).unwrap();
        assert_eq!(ctx.color(1), 1);
        assert_eq!(ctx.color_sig(2), Signature::singleton(2));
        assert_eq!(ctx.num_colors(), 3);
        // Vertex 1 and 2 have degree 2, higher than endpoints.
        assert!(ctx.order().higher(1, 0));
        // An unsharded context's layout is one block.
        assert_eq!(ctx.owners.num_ranks(), 1);
    }

    #[test]
    fn ranked_neighbors_are_sorted_and_prefixes_are_lower() {
        let g = tiny();
        let prep = GraphPrep::new(&g);
        let col = Coloring::from_colors(vec![0, 1, 2, 0], 3);
        let ctx = Context::new(&g, &prep, &col).unwrap();
        for v in g.vertices() {
            for than in g.vertices() {
                let lower = ctx.lower_neighbors(v, than);
                assert!(lower
                    .windows(2)
                    .all(|w| ctx.order().rank(w[0]) <= ctx.order().rank(w[1])));
                let mut got = lower.to_vec();
                got.sort_unstable();
                let mut want: Vec<VertexId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| ctx.order().higher(than, w))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "lower neighbors of {v} than {than}");
            }
        }
    }

    #[test]
    fn one_prep_serves_many_colorings() {
        let g = tiny();
        let before = prep_build_count();
        let prep = GraphPrep::new(&g);
        for seed in 0..5 {
            let col = Coloring::random(g.num_vertices(), 3, seed);
            let ctx = Context::new(&g, &prep, &col).unwrap();
            assert_eq!(ctx.num_colors(), 3);
        }
        assert_eq!(prep_build_count() - before, 1);
    }

    #[test]
    fn mismatched_coloring_is_an_error() {
        let g = tiny();
        let prep = GraphPrep::new(&g);
        let col = Coloring::from_colors(vec![0, 1], 2);
        match Context::new(&g, &prep, &col).err() {
            Some(SgcError::ColoringSizeMismatch {
                graph_vertices,
                coloring_vertices,
            }) => {
                assert_eq!(graph_vertices, 4);
                assert_eq!(coloring_vertices, 2);
            }
            other => panic!("expected ColoringSizeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn shard_scope_restricts_start_vertices() {
        let g = tiny();
        let prep = GraphPrep::new(&g);
        let col = Coloring::from_colors(vec![0, 1, 2, 0], 3);
        let full = Context::new(&g, &prep, &col).unwrap();
        assert_eq!(full.start_vertices(), 0..4);

        let shards = BlockPartition::new(g.num_vertices(), 2);
        let ctx0 = Context::for_shard(&g, &prep, &col, &shards, 0);
        let ctx1 = Context::for_shard(&g, &prep, &col, &shards, 1);
        assert_eq!(ctx0.start_vertices(), 0..2);
        assert_eq!(ctx1.start_vertices(), 2..4);
    }

    #[test]
    fn start_tiles_partition_the_range_within_budget() {
        // Degrees 1, 2, 2, 1 on the path 0-1-2-3.
        let g = tiny();
        let prep = GraphPrep::new(&g);
        let col = Coloring::from_colors(vec![0, 1, 2, 0], 3);
        let ctx = Context::new(&g, &prep, &col).unwrap();
        let tiles = |budget| ctx.start_tiles(budget).collect::<Vec<_>>();
        assert_eq!(tiles(0), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(tiles(3), vec![0..2, 2..4]);
        assert_eq!(tiles(4), vec![0..2, 2..4]);
        assert_eq!(tiles(5), vec![0..3, 3..4]);
        assert_eq!(tiles(usize::MAX), vec![0..4]);
        let shards = BlockPartition::new(g.num_vertices(), 2);
        let shard = Context::for_shard(&g, &prep, &col, &shards, 1);
        assert_eq!(shard.start_tiles(2).collect::<Vec<_>>(), vec![2..3, 3..4]);
    }
}
