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
//! This module provides the two halves of that trade, both thin wrappers
//! that run one job through the executor with its `PartialsHook`:
//!
//! * [`count_sharded_retaining`] — a from-scratch sharded count that keeps
//!   each shard's pre-exchange partial in a [`TrialPartials`] record,
//! * [`recount_sharded_replay`] — the same count on a *new* graph version,
//!   re-solving only the shards marked dirty and replaying every clean
//!   shard's cached partial (under the `dp.recount.replay` span).
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
use crate::context::GraphPrep;
use crate::error::SgcError;
use crate::kernel::ArenaPool;
use crate::metrics::RunMetrics;
use crate::runtime::executor::{execute, Job, PartialsHook};
use sgc_engine::{Count, RowGroups};
use sgc_graph::{BlockPartition, Coloring, CsrGraph, VertexId};
use sgc_query::DecompositionTree;

/// The retained pre-exchange partials of one `(coloring, plan, shards)`
/// trial: for every block step, every shard's partial table as produced
/// *before* the exchange round combined them.
///
/// Bounded stores (the `sgc-dyn` partial store) account for these via
/// [`bytes`](TrialPartials::bytes).
#[derive(Clone, Debug)]
pub struct TrialPartials {
    pub(super) num_shards: usize,
    /// `steps[step][shard]`: the shard's pre-exchange partial for the block
    /// solved at `step` (single-node plans have exactly one scalar step).
    pub(super) steps: Vec<Vec<RowGroups>>,
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
    /// and owner-group bounds.
    pub fn bytes(&self) -> usize {
        self.steps.iter().flatten().map(RowGroups::bytes).sum()
    }
}

/// What an incremental-capable sharded count produced.
pub struct IncrementalOutcome {
    /// The trial's exact colorful count — bit-identical to an
    /// [`Engine`](crate::Engine) run on the same graph, sharded or not.
    pub colorful_matches: Count,
    /// The pre-exchange partials, ready to be retained for later replay.
    pub partials: TrialPartials,
    /// Execution metrics (replayed shards contribute no DP ops).
    pub metrics: RunMetrics,
    /// How many shard solves were replayed from cache instead of computed
    /// (`0` for a from-scratch run).
    pub shards_replayed: usize,
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

/// A from-scratch sharded count that retains every shard's pre-exchange
/// partial table. Identical in result to the plain sharded runtime, which
/// drops the partials after each round instead.
pub fn count_sharded_retaining(
    graph: &CsrGraph,
    prep: &GraphPrep,
    coloring: &Coloring,
    tree: &DecompositionTree,
    algorithm: Algorithm,
    num_shards: usize,
    pool: &ArenaPool,
) -> Result<IncrementalOutcome, SgcError> {
    run_hooked(
        graph,
        prep,
        coloring,
        tree,
        algorithm,
        num_shards,
        pool,
        PartialsHook { replay: None },
    )
}

/// Re-counts on a **new** graph version, re-solving only the shards
/// flagged in `dirty` and replaying every other shard's partial from
/// `cached` — bit-identical to a from-scratch count on `graph` as long as
/// `dirty` covers at least [`dirty_shards`] of the applied delta and
/// `cached` came from the parent version with the same
/// `(coloring, tree, algorithm, num_shards)`.
///
/// # Panics
/// If `cached` was produced with a different shard count or step count
/// (the caller keys its partial store by shard count, so a mismatch is a
/// bookkeeping bug, not an input error).
#[allow(clippy::too_many_arguments)]
pub fn recount_sharded_replay(
    graph: &CsrGraph,
    prep: &GraphPrep,
    coloring: &Coloring,
    tree: &DecompositionTree,
    algorithm: Algorithm,
    num_shards: usize,
    pool: &ArenaPool,
    dirty: &[bool],
    cached: &TrialPartials,
) -> Result<IncrementalOutcome, SgcError> {
    assert_eq!(
        cached.num_shards, num_shards,
        "cached partials were produced with a different shard count"
    );
    assert_eq!(
        cached.num_steps(),
        tree.blocks.len().max(1),
        "cached partials were produced with a different plan"
    );
    assert_eq!(dirty.len(), num_shards, "one dirty flag per shard");
    run_hooked(
        graph,
        prep,
        coloring,
        tree,
        algorithm,
        num_shards,
        pool,
        PartialsHook {
            replay: Some((dirty, cached)),
        },
    )
}

/// The shared body: one hooked job through the executor.
#[allow(clippy::too_many_arguments)]
fn run_hooked(
    graph: &CsrGraph,
    prep: &GraphPrep,
    coloring: &Coloring,
    tree: &DecompositionTree,
    algorithm: Algorithm,
    num_shards: usize,
    pool: &ArenaPool,
    hook: PartialsHook<'_>,
) -> Result<IncrementalOutcome, SgcError> {
    let job = Job {
        coloring,
        plan: tree,
        algorithm,
        num_ranks: 1,
        obs: sgc_obs::enabled(),
        partials: Some(hook),
    };
    let outcome = execute(graph, prep, &job, Some(num_shards), pool)?;
    Ok(IncrementalOutcome {
        colorful_matches: outcome.result.colorful_matches,
        partials: outcome.retained.expect("hooked jobs retain partials"),
        metrics: outcome.result.metrics,
        shards_replayed: outcome.shards_replayed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_graph::GraphBuilder;
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
        let pool = ArenaPool::new();
        for num_shards in [1usize, 4] {
            for seed in [7u64, 21] {
                let coloring = Coloring::random(old.num_vertices(), query.num_nodes(), seed);
                let old_prep = GraphPrep::new(&old);
                let new_prep = GraphPrep::new(&new);

                let retained = count_sharded_retaining(
                    &old,
                    &old_prep,
                    &coloring,
                    &tree,
                    Algorithm::DegreeBased,
                    num_shards,
                    &pool,
                )
                .unwrap();
                let scratch_new = count_sharded_retaining(
                    &new,
                    &new_prep,
                    &coloring,
                    &tree,
                    Algorithm::DegreeBased,
                    num_shards,
                    &pool,
                )
                .unwrap();

                let dirty =
                    dirty_shards(&old, &new, &[delta_edge], query.num_nodes(), num_shards).unwrap();
                let replayed = recount_sharded_replay(
                    &new,
                    &new_prep,
                    &coloring,
                    &tree,
                    Algorithm::DegreeBased,
                    num_shards,
                    &pool,
                    &dirty,
                    &retained.partials,
                )
                .unwrap();
                assert_eq!(
                    replayed.colorful_matches, scratch_new.colorful_matches,
                    "shards={num_shards} seed={seed}"
                );
                // With 4 shards on a 144-vertex grid and a corner delta,
                // at least one far shard must be clean and replayed.
                if num_shards == 4 {
                    assert!(
                        dirty.iter().any(|&d| !d),
                        "corner delta dirtied every shard"
                    );
                    assert!(replayed.shards_replayed > 0);
                }
                // Replayed partials equal the from-scratch partials — the
                // retained store stays valid for the *next* delta too.
                assert_eq!(
                    replayed.partials.steps, scratch_new.partials.steps,
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
        let prep = GraphPrep::new(&graph);
        let query = catalog::path(3);
        let tree = heuristic_plan(&query).unwrap();
        let coloring = Coloring::random(graph.num_vertices(), query.num_nodes(), 5);
        let pool = ArenaPool::new();
        let outcome = count_sharded_retaining(
            &graph,
            &prep,
            &coloring,
            &tree,
            Algorithm::DegreeBased,
            2,
            &pool,
        )
        .unwrap();
        assert_eq!(outcome.partials.num_shards(), 2);
        assert_eq!(outcome.partials.num_steps(), tree.blocks.len());
        assert!(outcome.partials.bytes() > 0);
        assert_eq!(outcome.shards_replayed, 0);
    }
}
