//! Delta-aware sharded counting: partial-sum retention and replay.
//!
//! The block-step executor (`runtime::executor`) computes, for every block
//! step, one **pre-exchange partial table per shard**, then combines them in
//! an exchange round. Those partials are the unit of incremental
//! recomputation: a trial's coloring depends only on
//! `(num_vertices, colors, seed)`, so after an edge-only delta the partial
//! of any shard whose vertices are far enough from every changed edge is
//! **bit-identical** on the new graph — there is no reason to re-solve it.
//!
//! A request opts into that trade with
//! [`CountRequest::retain`](crate::CountRequest::retain): its [`Retention`]
//! answers, per trial, which cached partials to replay and which shards are
//! dirty, and keeps the partials the trial produced. The trial loop turns the
//! answer into the executor's per-shard hook, so retained trials run through
//! the same loop, spans and metrics as every other trial. The `sgc-dyn`
//! partial store is the one implementation.
//!
//! [`dirty_shards`] computes a sound dirty set: a shard is dirty iff it
//! owns a vertex within graph distance `2k` of an endpoint of a changed
//! edge, measured over the **union** of the old and new adjacency (`k` =
//! query node count). Soundness argument (the bit-identity contract of the
//! replay path):
//!
//! 1. A shard's partial at a block step aggregates partial embeddings
//!    anchored at its owned vertices. Plannable queries are connected, so
//!    every vertex of such an embedding lies within `k−1` hops of the
//!    anchor.
//! 2. The solve probes child-table entries keyed by embedding vertices;
//!    a probed entry's value aggregates child-pattern embeddings within
//!    `k−1` hops of its key — so everything a shard's solve reads lives
//!    within `2(k−1)` hops of the anchor.
//! 3. The DB rank order ([`DegreeOrder`](sgc_graph::DegreeOrder)) sorts by
//!    `(degree, id)`; a delta changes only its endpoints' degrees, so the
//!    ranked adjacency of a vertex changes only if the vertex or one of its
//!    neighbors is a changed endpoint — one more hop of influence.
//! 4. Union adjacency covers both directions: inserted edges can only
//!    create embeddings reachable in the new graph, deleted edges only
//!    remove embeddings reachable in the old one.
//!
//! `2(k−1) + 1 ≤ 2k` hops therefore bound every input of a clean shard's
//! solve; outside that ball the solve is a pure function of unchanged
//! inputs, and replaying the cached output is exact. Exchange rounds merge
//! per-shard `u64` sums in a fixed order, so replayed partials produce
//! combined tables — and the final count — bit-identical to a from-scratch
//! run on the new graph. The differential suite in `tests/dynamic.rs` pins
//! this end to end.

use crate::config::Algorithm;
use crate::error::SgcError;
use crate::runtime::executor::PartialsHook;
use sgc_engine::RowGroups;
use sgc_graph::{BlockPartition, CsrGraph, VertexId};
use sgc_query::DecompositionTree;
use std::sync::Arc;

/// The retained pre-exchange partials of one `(coloring, plan, shards)`
/// trial: for every block step, every shard's partial table as produced
/// *before* the exchange round combined them. A shard the trial replayed
/// shares its partial with the partials it was replayed from.
///
/// Bounded stores (the `sgc-dyn` partial store) account for these via
/// [`bytes`](TrialPartials::bytes).
#[derive(Clone, Debug)]
pub struct TrialPartials {
    pub(super) num_shards: usize,
    /// `steps[step][shard]`: the shard's pre-exchange partial for the block
    /// solved at `step` (single-node plans have exactly one scalar step).
    pub(super) steps: Vec<Vec<Arc<RowGroups>>>,
}

impl TrialPartials {
    /// The shard count these partials were produced with; replay requires
    /// the same layout.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of block steps retained.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Retained size, for bounded-store accounting: every partial's rows
    /// and owner-group bounds, shared ones included.
    pub fn bytes(&self) -> usize {
        self.steps
            .iter()
            .flatten()
            .map(|partial| partial.bytes())
            .sum()
    }
}

/// Everything apart from the graph that shapes one trial's partials: what a
/// [`Retention`] keys them by. Partials of two trials with equal shapes on
/// equal graphs are equal.
#[derive(Clone, Copy, Debug)]
pub struct TrialShape<'a> {
    /// The decomposition plan; its query fixes the colour count.
    pub plan: &'a DecompositionTree,
    /// The cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// The trial's coloring seed: `seed + trial` of its request.
    pub coloring_seed: u64,
    /// The shard count the trial runs with.
    pub num_shards: usize,
}

impl TrialShape<'_> {
    /// The executor hook for this trial: replay `cached` on every shard not
    /// flagged in `dirty`, or solve every shard; either way retain.
    ///
    /// # Panics
    /// If `cached` or `dirty` do not fit this shape's shard and step counts
    /// (a [`Retention`] keys partials by shape, so a mismatch is a
    /// bookkeeping bug, not an input error).
    pub(crate) fn hook<'r>(
        &self,
        replay: Option<(&'r TrialPartials, &'r [bool])>,
    ) -> PartialsHook<'r> {
        if let Some((cached, dirty)) = replay {
            assert_eq!(
                cached.num_shards, self.num_shards,
                "cached partials were produced with a different shard count"
            );
            assert_eq!(
                cached.num_steps(),
                self.plan.blocks.len().max(1),
                "cached partials were produced with a different plan"
            );
            assert_eq!(dirty.len(), self.num_shards, "one dirty flag per shard");
        }
        PartialsHook {
            replay: replay.map(|(cached, dirty)| (dirty, cached)),
        }
    }
}

/// Where a request's trials find partials to replay and leave the partials
/// they produced. Set on a request with
/// [`CountRequest::retain`](crate::CountRequest::retain).
///
/// A trial offered nothing solves every shard. Replay is exact only if the
/// cached partials came from a trial of the same [`TrialShape`] on a graph
/// that differs from this one at most inside the shards flagged dirty (see
/// [`dirty_shards`]).
pub trait Retention: Sync {
    /// The cached partials to replay `trial` from, with one flag per shard
    /// marking the shards to solve anyway; `None` solves every shard.
    fn replay(&self, trial: &TrialShape<'_>) -> Option<(Arc<TrialPartials>, &[bool])>;

    /// Keeps the partials `trial` produced.
    fn retain(&self, trial: &TrialShape<'_>, partials: TrialPartials);
}

/// Computes the shards whose partials may change under `delta_endpoints`:
/// every shard owning a vertex within graph distance `2 * query_nodes` of a
/// changed-edge endpoint, BFS over the union of `old` and `new` adjacency.
///
/// See the module docs for why this radius makes replaying every other
/// shard exact. Returns one flag per shard.
///
/// # Errors
/// [`SgcError::ZeroShards`] when `num_shards` is zero.
pub fn dirty_shards(
    old: &CsrGraph,
    new: &CsrGraph,
    changed_edges: &[(VertexId, VertexId)],
    query_nodes: usize,
    num_shards: usize,
) -> Result<Vec<bool>, SgcError> {
    if num_shards == 0 {
        return Err(SgcError::ZeroShards);
    }
    let n = old.num_vertices();
    debug_assert_eq!(n, new.num_vertices(), "edge-only deltas fix the vertex set");
    let radius = 2 * query_nodes;
    let partition = BlockPartition::new(n, num_shards);
    let mut dirty = vec![false; num_shards];
    let mut depth = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for &(u, v) in changed_edges {
        for w in [u, v] {
            if (w as usize) < n && depth[w as usize] == usize::MAX {
                depth[w as usize] = 0;
                queue.push_back(w);
            }
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = depth[v as usize];
        dirty[partition.owner(v)] = true;
        if d == radius {
            continue;
        }
        for &w in old.neighbors(v).iter().chain(new.neighbors(v)) {
            if depth[w as usize] == usize::MAX {
                depth[w as usize] = d + 1;
                queue.push_back(w);
            }
        }
    }
    Ok(dirty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GraphPrep;
    use crate::kernel::ArenaPool;
    use crate::runtime::executor::{execute, Job, JobOutcome};
    use sgc_graph::{Coloring, GraphBuilder};
    use sgc_query::{catalog, heuristic_plan};

    fn grid_graph(side: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(side * side);
        let id = |r: usize, c: usize| (r * side + c) as VertexId;
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    b.add_edge(id(r, c), id(r, c + 1));
                }
                if r + 1 < side {
                    b.add_edge(id(r, c), id(r + 1, c));
                }
            }
        }
        b.build()
    }

    /// One hooked DB job over `shards` shards: replaying `replay`'s clean
    /// shards, or solving every shard.
    fn hooked(
        graph: &CsrGraph,
        coloring: &Coloring,
        tree: &DecompositionTree,
        shards: usize,
        replay: Option<(&TrialPartials, &[bool])>,
    ) -> JobOutcome {
        let shape = TrialShape {
            plan: tree,
            algorithm: Algorithm::DegreeBased,
            coloring_seed: 0,
            num_shards: shards,
        };
        let job = Job {
            coloring,
            plan: tree,
            algorithm: Algorithm::DegreeBased,
            num_ranks: 1,
            obs: true,
            partials: Some(shape.hook(replay)),
        };
        let prep = GraphPrep::new(graph);
        execute(graph, &prep, &job, Some(shards), &ArenaPool::new()).unwrap()
    }

    #[test]
    fn retain_matches_plain_sharded_and_replay_matches_scratch() {
        let old = grid_graph(12);
        // Delete one corner edge: a local change in a grid.
        let delta_edge = (0 as VertexId, 1 as VertexId);
        let mut adj: Vec<Vec<VertexId>> = (0..old.num_vertices())
            .map(|v| old.neighbors(v as VertexId).to_vec())
            .collect();
        adj[0].retain(|&w| w != 1);
        adj[1].retain(|&w| w != 0);
        let new = CsrGraph::from_sorted_adjacency(adj);

        let query = catalog::triangle();
        let tree = heuristic_plan(&query).unwrap();
        for num_shards in [1usize, 4] {
            for seed in [7u64, 21] {
                let coloring = Coloring::random(old.num_vertices(), query.num_nodes(), seed);
                let retained = hooked(&old, &coloring, &tree, num_shards, None);
                let scratch_new = hooked(&new, &coloring, &tree, num_shards, None);
                let retained = retained.retained.unwrap();
                let scratch_partials = scratch_new.retained.unwrap();

                let dirty =
                    dirty_shards(&old, &new, &[delta_edge], query.num_nodes(), num_shards).unwrap();
                let replayed = hooked(
                    &new,
                    &coloring,
                    &tree,
                    num_shards,
                    Some((&retained, &dirty)),
                );
                assert_eq!(
                    replayed.result.colorful_matches, scratch_new.result.colorful_matches,
                    "shards={num_shards} seed={seed}"
                );
                // With 4 shards on a 144-vertex grid and a corner delta,
                // at least one far shard must be clean and replayed.
                if num_shards == 4 {
                    assert!(
                        dirty.iter().any(|&d| !d),
                        "corner delta dirtied every shard"
                    );
                }
                // Exactly the clean shards replayed: they ran no DP
                // operation, and every dirty shard solved its blocks.
                let shards = replayed.result.metrics.shards.as_ref().unwrap();
                for (s, (&ops, &dirty)) in shards.ops_per_shard.iter().zip(&dirty).enumerate() {
                    assert_eq!(ops > 0, dirty, "shards={num_shards} seed={seed} shard={s}");
                }
                // Replayed partials equal the from-scratch partials — the
                // retained store stays valid for the *next* delta too.
                assert_eq!(
                    replayed.retained.unwrap().steps,
                    scratch_partials.steps,
                    "shards={num_shards} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn dirty_shards_covers_both_old_and_new_adjacency() {
        // Old: 0-1 plus a long path; new: adds 0-50 — vertices near 50 are
        // reachable only through the new adjacency, but must be dirty.
        let mut b = GraphBuilder::new(60);
        for v in 0..59u32 {
            b.add_edge(v, v + 1);
        }
        let old = b.build();
        let mut adj: Vec<Vec<VertexId>> = (0..60)
            .map(|v| old.neighbors(v as VertexId).to_vec())
            .collect();
        adj[0].push(50);
        adj[0].sort_unstable();
        adj[50].push(0);
        adj[50].sort_unstable();
        let new = CsrGraph::from_sorted_adjacency(adj);

        let dirty = dirty_shards(&old, &new, &[(0, 50)], 3, 6).unwrap();
        let partition = BlockPartition::new(60, 6);
        assert!(dirty[partition.owner(50)]);
        assert!(dirty[partition.owner(0)]);
        // Radius 2k = 6 from {0, 50}: vertex 30 is 24+ hops from both in
        // the union graph, so its shard stays clean.
        assert!(!dirty[partition.owner(30)]);
        assert!(matches!(
            dirty_shards(&old, &new, &[(0, 50)], 3, 0),
            Err(SgcError::ZeroShards)
        ));
    }

    #[test]
    fn partials_report_shape_and_size() {
        let graph = grid_graph(4);
        let query = catalog::path(3);
        let tree = heuristic_plan(&query).unwrap();
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 5);
        let partials = hooked(&graph, &coloring, &tree, 2, None).retained.unwrap();
        assert_eq!(partials.num_shards(), 2);
        assert_eq!(partials.num_steps(), tree.blocks.len());
        assert!(partials.bytes() > 0);
    }
}
