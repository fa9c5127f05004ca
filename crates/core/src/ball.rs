//! Count the change, not the graph: the ball recount of an edge delta.
//!
//! Fix a coloring and a connected `k`-node query (every plannable query is
//! connected), and let `G′` be `G` with a few edges inserted or deleted. A
//! match that uses a changed edge `uv` lies entirely inside `B`, the ball of
//! radius `k − 2` around the changed edges' endpoints, measured over the
//! union of the old and the new adjacency: the match is connected, holds
//! `k` vertices and both `u` and `v`, so each of its vertices is at most
//! `k − 2` of its own edges away from `u` or `v`, and those edges all lie in
//! the graph the match lives in. A match that uses no changed edge exists in
//! both graphs alike. So, per trial,
//!
//! ```text
//! count(G′) = count(G) − count(G[B]) + count(G′[B])
//! ```
//!
//! where `G[B]` is the subgraph `B` induces: the matches inside `B` that
//! use no changed edge cancel, and those that use one are counted by the
//! ball graph they live in. The recount is the ordinary kernel run on two
//! small induced subgraphs, under the trial's coloring restricted to `B`.
//! Counts depend neither on the plan nor on the algorithm's vertex order,
//! so the ball's own degree order is as good as the graph's. Edge deltas fix
//! the vertex set, so trial `i` of a request draws the same coloring on `G`
//! and `G′`, and the recounted trial is bit-identical to a from-scratch
//! count of `G′` (`tests/dynamic.rs` pins this differentially).
//!
//! The arithmetic is wrapping: `count(G) ≥ count(G[B])` always holds, and the
//! result is exact whenever the true count of `G′` fits in a [`Count`].
//!
//! A [`DeltaBall`] reaches a request through
//! [`CountRequest::recount`](crate::CountRequest::recount), together with the
//! parent graph's per-trial counts; `sgc-dyn` builds the ball of a graph
//! version from an ancestor's snapshot, around every edge changed since.

use crate::context::GraphPrep;
use crate::driver::CountResult;
use crate::kernel::ArenaPool;
use crate::runtime::executor::{execute, Job};
use sgc_engine::Count;
use sgc_graph::{Coloring, CsrGraph, VertexId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The ball around an edge delta, induced in the graph before and after it:
/// what a trial recounts instead of the whole graph (see the
/// [module docs](self)).
pub struct DeltaBall {
    /// The ball's vertices as graph ids, ascending: ball vertex `i` is graph
    /// vertex `vertices[i]`, so the induced subgraphs keep the graph's id
    /// order.
    vertices: Vec<VertexId>,
    /// The ball induced in the graph before the delta, with its
    /// preprocessing.
    before: (CsrGraph, GraphPrep),
    /// The ball induced in the graph after the delta.
    after: (CsrGraph, GraphPrep),
}

impl DeltaBall {
    /// The ball for a `query_nodes`-node query around the endpoints of
    /// `changed`: every vertex within `query_nodes − 2` hops of one, over the
    /// union of the `before` and `after` adjacency (sorted neighbor lists of
    /// one graph's vertices before and after the delta).
    pub fn new<'g>(
        before: impl Fn(VertexId) -> &'g [VertexId],
        after: impl Fn(VertexId) -> &'g [VertexId],
        changed: impl IntoIterator<Item = (VertexId, VertexId)>,
        query_nodes: usize,
    ) -> Self {
        let radius = query_nodes.saturating_sub(2);
        let mut depth: HashMap<VertexId, usize> = HashMap::new();
        let mut frontier: Vec<VertexId> = Vec::new();
        for (u, v) in changed {
            for w in [u, v] {
                if depth.insert(w, 0).is_none() {
                    frontier.push(w);
                }
            }
        }
        for hop in 1..=radius {
            let mut next = Vec::new();
            for &v in &frontier {
                for &w in before(v).iter().chain(after(v)) {
                    if let Entry::Vacant(slot) = depth.entry(w) {
                        slot.insert(hop);
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        let mut vertices: Vec<VertexId> = depth.into_keys().collect();
        vertices.sort_unstable();
        let induced = |adjacency: &dyn Fn(VertexId) -> &'g [VertexId]| {
            let local = |w: &VertexId| vertices.binary_search(w).ok().map(|i| i as VertexId);
            let lists = vertices
                .iter()
                .map(|&v| adjacency(v).iter().filter_map(local).collect())
                .collect();
            let graph = CsrGraph::from_sorted_adjacency(lists);
            let prep = GraphPrep::new(&graph);
            (graph, prep)
        };
        DeltaBall {
            before: induced(&before),
            after: induced(&after),
            vertices,
        }
    }

    /// Number of vertices in the ball.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Edges of the two induced ball graphs together: what a trial's recount
    /// walks.
    pub fn num_edges(&self) -> usize {
        self.before.0.num_edges() + self.after.0.num_edges()
    }

    /// The cost rule between the two ways to count a trial of a graph with
    /// `graph_edges` edges: recount the ball when its two graphs together
    /// hold at most half as many edges, count from scratch otherwise. (A
    /// recount is two kernel runs; on a lattice the ball is a fraction of a
    /// percent of the graph, on a small-world graph it is most of it.)
    pub fn pays_off(&self, graph_edges: usize) -> bool {
        2 * self.num_edges() <= graph_edges
    }

    /// The trial coloring seeded `seed` with `num_colors` colors, restricted
    /// to the ball. [`Coloring::random`] colors vertices in id order from one
    /// seeded stream, so drawing only up to the ball's largest vertex gives
    /// every ball vertex the color a whole-graph draw gives it.
    pub(crate) fn coloring(&self, num_colors: usize, seed: u64) -> Coloring {
        let drawn = self.vertices.last().map_or(0, |&last| last as usize + 1);
        let whole = Coloring::random(drawn, num_colors, seed);
        let colors = self.vertices.iter().map(|&v| whole.color(v)).collect();
        Coloring::from_colors(colors, num_colors)
    }

    /// One trial after the delta, from its count `parent` before it: `job`
    /// runs, under its coloring from [`coloring`](DeltaBall::coloring), on
    /// both ball graphs. The result's metrics add up both runs.
    pub(crate) fn recount(&self, parent: Count, job: &Job<'_>, pool: &ArenaPool) -> CountResult {
        let run = |(graph, prep): &(CsrGraph, GraphPrep)| {
            execute(graph, prep, job, None, pool).expect("a ball coloring covers its ball")
        };
        let (before, after) = (run(&self.before), run(&self.after));
        let mut metrics = before.metrics;
        metrics.absorb_shard(&after.metrics);
        metrics.elapsed += after.metrics.elapsed;
        CountResult {
            colorful_matches: parent
                .wrapping_sub(before.colorful_matches)
                .wrapping_add(after.colorful_matches),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use sgc_graph::GraphBuilder;
    use sgc_query::catalog;

    fn path_graph(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n - 1 {
            b.add_edge(v, v + 1);
        }
        b.build()
    }

    /// `graph` with `edge` added.
    fn with_edge(graph: &CsrGraph, edge: (VertexId, VertexId)) -> CsrGraph {
        let mut b = GraphBuilder::new(graph.num_vertices());
        b.extend_edges(graph.edges());
        b.add_edge(edge.0, edge.1);
        b.build()
    }

    fn ball_of(
        old: &CsrGraph,
        new: &CsrGraph,
        changed: (VertexId, VertexId),
        k: usize,
    ) -> DeltaBall {
        DeltaBall::new(|v| old.neighbors(v), |v| new.neighbors(v), [changed], k)
    }

    /// The ball reaches `k − 2` hops over the old *and* the new adjacency:
    /// vertices near the far end of an inserted chord are reachable only
    /// through it.
    #[test]
    fn the_ball_covers_both_old_and_new_adjacency() {
        let old = path_graph(60);
        let new = with_edge(&old, (0, 50));
        let ball = ball_of(&old, &new, (0, 50), 5);
        let want: Vec<VertexId> = (0..=3).chain(47..=53).collect();
        assert_eq!(ball.vertices, want);
        // Induced: the old ball has the two path stretches, the new one adds
        // the chord.
        assert_eq!(ball.before.0.num_edges(), 3 + 6);
        assert_eq!(ball.after.0.num_edges(), 3 + 6 + 1);
        assert_eq!(ball.num_edges(), 19);
        assert!(ball.pays_off(2 * 19) && !ball.pays_off(2 * 19 - 1));
        // Edge deltas never change a single-node count: the ball is the two
        // endpoints, and a triangle's is one hop around them.
        assert_eq!(ball_of(&old, &new, (0, 50), 1).num_vertices(), 2);
        assert_eq!(ball_of(&old, &new, (0, 50), 3).num_vertices(), 5);
    }

    /// A ball coloring gives every ball vertex its whole-graph color.
    #[test]
    fn the_ball_coloring_is_the_trial_coloring_restricted() {
        let old = path_graph(40);
        let new = with_edge(&old, (5, 30));
        let ball = ball_of(&old, &new, (5, 30), 4);
        let whole = Coloring::random(40, 4, 99);
        let restricted = ball.coloring(4, 99);
        assert_eq!(restricted.num_vertices(), ball.num_vertices());
        for (i, &v) in ball.vertices.iter().enumerate() {
            assert_eq!(restricted.color(i as VertexId), whole.color(v));
        }
    }

    /// The identity itself, trial by trial, on an insert that closes cycles:
    /// the parent's count minus the old ball's plus the new ball's is the
    /// new graph's count from scratch.
    #[test]
    fn a_recounted_trial_is_the_new_graphs_count() {
        let old = path_graph(30);
        let new = with_edge(&old, (10, 14));
        for query in [catalog::cycle(5), catalog::path(4), catalog::triangle()] {
            let k = query.num_nodes();
            let ball = ball_of(&old, &new, (10, 14), k);
            let (before, after) = (Engine::new(&old), Engine::new(&new));
            let plan = after.plan(&query).unwrap();
            for seed in 0..8u64 {
                let count = |engine: &Engine<'_>| {
                    let request = engine.count(&query).seed(seed);
                    request.run().unwrap().colorful_matches
                };
                let coloring = ball.coloring(k, seed);
                let job = Job {
                    coloring: &coloring,
                    plan: &plan,
                    algorithm: crate::Algorithm::DegreeBased,
                    num_ranks: 1,
                };
                let recounted = ball.recount(count(&before), &job, &ArenaPool::new());
                assert_eq!(
                    recounted.colorful_matches,
                    count(&after),
                    "{k} nodes, seed {seed}"
                );
            }
        }
    }
}
