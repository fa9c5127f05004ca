//! The delta-aware trial runner: replay what the delta cannot have
//! changed, recompute only what it might have.

use crate::store::{PartialKey, PartialStore};
use crate::version::{DynError, VersionId, VersionedGraph};
use sgc_core::kernel::ArenaPool;
use sgc_core::{
    count_sharded_retaining, dirty_shards, estimator::summarize_trials, recount_sharded_replay,
    Algorithm, Estimate, SgcError,
};
use sgc_engine::Count;
use sgc_graph::Coloring;
use sgc_query::{canonical_key, heuristic_plan, DecompositionTree, QueryGraph};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Everything that shapes one versioned counting run (shared by all its
/// trials).
pub struct TrialSpec<'a> {
    /// The query pattern.
    pub query: &'a QueryGraph,
    /// Its decomposition plan. Per-trial counts are plan-independent
    /// (exact given a coloring), so any valid plan preserves the
    /// bit-identity contract.
    pub tree: &'a DecompositionTree,
    /// The cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// Base seed; trial `t` colors with `seed + t`, the same convention as
    /// [`Engine`](sgc_core::Engine) — which is what makes versioned counts
    /// bit-identical to engine counts on the materialized graph.
    pub seed: u64,
    /// Shard count for the sharded runtime (and the replay granularity).
    pub num_shards: usize,
}

/// What [`run_trials`] did, and how much of it was replayed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrialBatchOutcome {
    /// Exact per-trial colorful counts, in trial order — bit-identical to
    /// a from-scratch run on the version's materialized graph.
    pub per_trial: Vec<Count>,
    /// Trials answered entirely from this version's stored partials.
    pub trials_from_store: usize,
    /// Trials recounted incrementally from the parent version's partials.
    pub trials_incremental: usize,
    /// Trials computed from scratch.
    pub trials_scratch: usize,
    /// Shard solves (one per block step per shard) replayed from cached
    /// partials across all trials.
    pub shards_replayed: usize,
    /// Shard solves actually computed across all trials.
    pub shards_computed: usize,
}

/// Runs trials `trials` of `spec` against `version`, replaying stored
/// partial sums where the version chain proves them unchanged.
///
/// Per trial, in order of preference:
///
/// 1. **Store hit on this version** — every shard's partials are already
///    retained: replay them all (pure exchange, no DP).
/// 2. **Store hit on the parent version** — recompute only the shards in
///    the delta's invalidation ball ([`dirty_shards`]), replay the rest.
/// 3. **From scratch** — full sharded solve, retaining partials.
///
/// All three paths retain the trial's partials under this version, so a
/// subsequent delta recounts incrementally no matter how this one was
/// answered. The returned counts are bit-identical across the three paths;
/// `tests/dynamic.rs` pins that differentially.
pub fn run_trials(
    versions: &VersionedGraph,
    store: &PartialStore,
    version: VersionId,
    spec: &TrialSpec<'_>,
    trials: Range<usize>,
    pool: &ArenaPool,
) -> Result<TrialBatchOutcome, DynError> {
    let data = versions.data_at(version)?;
    let query_key = canonical_key(spec.query);
    let key_for = |v: VersionId, trial: usize| PartialKey {
        version: v,
        query: query_key.clone(),
        algorithm: spec.algorithm,
        seed: spec.seed,
        num_shards: spec.num_shards,
        trial,
    };
    let parent = versions.parent(version);
    // The invalidation ball depends only on the delta and the two graphs,
    // not the trial — computed at most once per call.
    let mut dirty: Option<Vec<bool>> = None;
    let all_clean = vec![false; spec.num_shards];

    let mut outcome = TrialBatchOutcome::default();
    for trial in trials {
        let coloring = Coloring::random(
            data.graph.num_vertices(),
            spec.query.num_nodes(),
            spec.seed.wrapping_add(trial as u64),
        );
        let cached_here = store.get(&key_for(version, trial));
        let cached_parent = match (&cached_here, parent) {
            (None, Some(p)) => store.get(&key_for(p, trial)),
            _ => None,
        };
        let run = if let Some(cached) = &cached_here {
            outcome.trials_from_store += 1;
            recount_sharded_replay(
                &data.graph,
                &data.prep,
                &coloring,
                spec.tree,
                spec.algorithm,
                spec.num_shards,
                pool,
                &all_clean,
                cached,
            )?
        } else if let Some(cached) = &cached_parent {
            if dirty.is_none() {
                let parent = parent.expect("parent hit implies a parent");
                let delta = versions
                    .delta(version)
                    .expect("non-root versions record their delta");
                let changed: Vec<_> = delta.changed_edges().collect();
                let old = versions.data_at(parent)?;
                dirty = Some(dirty_shards(
                    &old.graph,
                    &data.graph,
                    &changed,
                    spec.query.num_nodes(),
                    spec.num_shards,
                )?);
            }
            let dirty = dirty.as_deref().expect("just computed");
            outcome.trials_incremental += 1;
            recount_sharded_replay(
                &data.graph,
                &data.prep,
                &coloring,
                spec.tree,
                spec.algorithm,
                spec.num_shards,
                pool,
                dirty,
                cached,
            )?
        } else {
            outcome.trials_scratch += 1;
            count_sharded_retaining(
                &data.graph,
                &data.prep,
                &coloring,
                spec.tree,
                spec.algorithm,
                spec.num_shards,
                pool,
            )?
        };
        let solves = spec.tree.blocks.len().max(1) * spec.num_shards;
        outcome.shards_replayed += run.shards_replayed;
        outcome.shards_computed += solves - run.shards_replayed;
        outcome.per_trial.push(run.colorful_matches);
        store.insert(key_for(version, trial), Arc::new(run.partials));
    }
    Ok(outcome)
}

/// Convenience: plan `query`, run trials `0..trials` at `version`, and
/// fold them into an [`Estimate`] exactly as the engine would
/// ([`summarize_trials`] over the same per-trial counts).
#[allow(clippy::too_many_arguments)]
pub fn estimate_at(
    versions: &VersionedGraph,
    store: &PartialStore,
    version: VersionId,
    query: &QueryGraph,
    algorithm: Algorithm,
    seed: u64,
    trials: usize,
    num_shards: usize,
) -> Result<(Estimate, TrialBatchOutcome), DynError> {
    if trials == 0 {
        return Err(DynError::Count(SgcError::ZeroTrials));
    }
    let tree = heuristic_plan(query).map_err(|e| DynError::Count(SgcError::Query(e)))?;
    let spec = TrialSpec {
        query,
        tree: &tree,
        algorithm,
        seed,
        num_shards,
    };
    let started = Instant::now();
    let outcome = run_trials(
        versions,
        store,
        version,
        &spec,
        0..trials,
        &ArenaPool::new(),
    )?;
    let estimate = summarize_trials(
        outcome.per_trial.clone(),
        query,
        started.elapsed().as_secs_f64(),
    );
    Ok((estimate, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_core::Engine;
    use sgc_graph::{EdgeDelta, GraphBuilder};
    use sgc_query::catalog;

    fn grid(side: usize) -> sgc_graph::CsrGraph {
        let mut b = GraphBuilder::new(side * side);
        let id = |r: usize, c: usize| (r * side + c) as u32;
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
    fn versioned_counts_match_the_engine_on_the_materialized_graph() {
        let mut versions = VersionedGraph::new(&grid(10));
        let store = PartialStore::default();
        let query = catalog::path(4);
        let delta = EdgeDelta::new(vec![(0, 3)], vec![(0, 1)]).unwrap();
        let v1 = versions.apply_to_head(&delta).unwrap();

        let (estimate, outcome) = estimate_at(
            &versions,
            &store,
            v1,
            &query,
            Algorithm::DegreeBased,
            42,
            6,
            4,
        )
        .unwrap();
        // First sight of this chain: everything is scratch.
        assert_eq!(outcome.trials_scratch, 6);

        // The hard contract: bit-identical to the engine on a fresh build
        // of the same edge list.
        let data = versions.data_at(v1).unwrap();
        let reference = Engine::new(&data.graph)
            .count(&query)
            .seed(42)
            .trials(6)
            .estimate()
            .unwrap();
        assert_eq!(estimate.per_trial, reference.per_trial);
        assert_eq!(estimate.estimated_subgraphs, reference.estimated_subgraphs);

        // Asking again answers every trial from the store.
        let (again, outcome2) = estimate_at(
            &versions,
            &store,
            v1,
            &query,
            Algorithm::DegreeBased,
            42,
            6,
            4,
        )
        .unwrap();
        assert_eq!(outcome2.trials_from_store, 6);
        assert_eq!(outcome2.shards_computed, 0);
        assert_eq!(again.per_trial, estimate.per_trial);
    }

    #[test]
    fn incremental_recount_replays_clean_shards_bit_identically() {
        let base = grid(16);
        let mut versions = VersionedGraph::new(&base);
        let store = PartialStore::default();
        let query = catalog::triangle();
        let tree = heuristic_plan(&query).unwrap();
        let spec = TrialSpec {
            query: &query,
            tree: &tree,
            algorithm: Algorithm::DegreeBased,
            seed: 7,
            num_shards: 8,
        };
        let pool = ArenaPool::new();
        let root = versions.root();
        run_trials(&versions, &store, root, &spec, 0..4, &pool).unwrap();

        // A corner-local delta: close the top-left unit square's diagonal.
        let delta = EdgeDelta::new(vec![(0, 17)], vec![]).unwrap();
        let v1 = versions.apply_to_head(&delta).unwrap();
        let incremental = run_trials(&versions, &store, v1, &spec, 0..4, &pool).unwrap();
        assert_eq!(incremental.trials_incremental, 4);
        assert!(
            incremental.shards_replayed > 0,
            "a corner delta on a 256-vertex grid must leave clean shards"
        );

        // Scratch reference on an empty store.
        let fresh = PartialStore::default();
        let scratch = run_trials(&versions, &fresh, v1, &spec, 0..4, &pool).unwrap();
        assert_eq!(scratch.trials_scratch, 4);
        assert_eq!(incremental.per_trial, scratch.per_trial);
    }
}
