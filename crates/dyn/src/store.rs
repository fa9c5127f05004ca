//! The bounded partial-sum store, and the one [`Retention`] over it.

use crate::version::{DynError, VersionId, VersionedGraph};
use sgc_core::{
    dirty_shards, Algorithm, CountRequest, Engine, Retention, TrialPartials, TrialShape,
};
use sgc_graph::VertexId;
use sgc_query::QueryGraph;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default capacity of a [`PartialStore`]: 64 MiB of retained partials.
pub const DEFAULT_STORE_CAPACITY_BYTES: usize = 64 << 20;

/// Identifies one trial's retained partials: the graph version plus the
/// trial's [`TrialShape`], everything else that shapes the partial tables.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PartialKey {
    /// The graph version the partials were computed on.
    pub version: VersionId,
    /// Fingerprint of the decomposition plan, its query included: the
    /// partials of two plans never mix, even with equal block counts.
    pub plan: u64,
    /// The cycle-solving algorithm (PS and DB tables differ in shape).
    pub algorithm: Algorithm,
    /// The trial's coloring seed.
    pub coloring_seed: u64,
    /// Shard count the partials were produced with.
    pub num_shards: usize,
}

impl PartialKey {
    /// The key of `trial`'s partials on `version`.
    pub fn new(version: VersionId, trial: &TrialShape<'_>) -> Self {
        let mut plan = DefaultHasher::new();
        trial.plan.hash(&mut plan);
        PartialKey {
            version,
            plan: plan.finish(),
            algorithm: trial.algorithm,
            coloring_seed: trial.coloring_seed,
            num_shards: trial.num_shards,
        }
    }
}

/// A point-in-time snapshot of a store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries currently held.
    pub entries: usize,
    /// Retained bytes: the sum of the held entries'
    /// [`TrialPartials::bytes`].
    pub bytes: usize,
    /// Lookups that found their entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
}

struct StoreInner {
    map: HashMap<PartialKey, (u64, Arc<TrialPartials>)>,
    bytes: usize,
    tick: u64,
}

/// A bounded, thread-safe LRU store of per-trial partial sums.
///
/// Capacity is accounted in the bytes the partials' rows and group bounds
/// occupy ([`TrialPartials::bytes`]); inserting past capacity evicts
/// least-recently-used entries (get and insert both refresh recency). An
/// entry larger than the whole capacity is simply not retained — the
/// incremental path then falls back to from-scratch counting, it never
/// fails.
pub struct PartialStore {
    inner: Mutex<StoreInner>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PartialStore {
    /// A store holding at most `capacity_bytes` of partials.
    pub fn new(capacity_bytes: usize) -> Self {
        PartialStore {
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetches the partials under `key`, refreshing their recency.
    pub fn get(&self, key: &PartialKey) -> Option<Arc<TrialPartials>> {
        let mut inner = self.inner.lock().expect("partial store poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((last_used, partials)) => {
                *last_used = tick;
                let hit = Arc::clone(partials);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `partials` under `key`, evicting LRU entries as needed.
    /// Replacing an existing entry first releases its accounted bytes.
    pub fn insert(&self, key: PartialKey, partials: Arc<TrialPartials>) {
        let size = partials.bytes();
        if size > self.capacity_bytes {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut inner = self.inner.lock().expect("partial store poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((_, old)) = inner.map.remove(&key) {
                inner.bytes -= old.bytes();
            }
            while inner.bytes + size > self.capacity_bytes {
                let oldest = inner
                    .map
                    .iter()
                    .min_by_key(|(_, (last_used, _))| *last_used)
                    .map(|(k, _)| k.clone())
                    .expect("over capacity implies a resident entry");
                let (_, gone) = inner.map.remove(&oldest).expect("key just observed");
                inner.bytes -= gone.bytes();
                evicted += 1;
            }
            inner.bytes += size;
            inner.map.insert(key, (tick, partials));
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// This store seen from `version`: [`StoreAt::count`] builds the
    /// requests that count at `version`, replaying and keeping partials
    /// here.
    ///
    /// # Errors
    /// [`DynError::UnknownVersion`] when `version` is not in `versions`.
    pub fn at<'s>(
        &'s self,
        versions: &VersionedGraph,
        version: VersionId,
    ) -> Result<StoreAt<'s>, DynError> {
        let engine = versions.data_at(version)?;
        let parent = versions
            .parent(version)
            .and_then(|parent| Some((parent, versions.bound(parent)?)));
        let changed = match (&parent, versions.delta(version)) {
            (Some(_), Some(delta)) => delta.changed_edges().collect(),
            _ => Vec::new(),
        };
        Ok(StoreAt(VersionRetention {
            store: self,
            version,
            engine,
            parent,
            changed,
            clean: OnceLock::new(),
            dirty: OnceLock::new(),
        }))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("partial store poisoned");
        StoreStats {
            entries: inner.map.len(),
            bytes: inner.bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl Default for PartialStore {
    fn default() -> Self {
        PartialStore::new(DEFAULT_STORE_CAPACITY_BYTES)
    }
}

/// A [`PartialStore`] seen from one graph version ([`PartialStore::at`]).
/// Its [`count`](StoreAt::count) requests run on the version's engine and
/// carry the one [`Retention`] this crate implements: the cheapest sound
/// replay for each trial, and the trial's partials kept under this version.
/// The retention is reachable only through those requests, so partials kept
/// under a version are always computed on that version's graph.
///
/// Per trial, in order of preference:
///
/// 1. **This version's partials** — replay every shard (pure exchange, no
///    DP).
/// 2. **The parent version's partials** — re-solve only the shards in the
///    delta's invalidation ball ([`dirty_shards`], computed at most once
///    per request), replay the rest.
/// 3. **Nothing** — solve every shard.
///
/// All three keep the trial's partials under this version, so a later delta
/// recounts incrementally however this trial was answered.
pub struct StoreAt<'s>(VersionRetention<'s>);

impl StoreAt<'_> {
    /// A request for `query` on this version's engine that replays and keeps
    /// its trials' partials in the store. Partials are cut by the request's
    /// [`sharded`](sgc_core::CountRequest::sharded) count, parallel trials
    /// included; a finer cut leaves more shards clean after a delta.
    pub fn count<'r>(&'r mut self, query: &'r QueryGraph) -> CountRequest<'r, 'static, 'r> {
        // A request fixes the query and the shard count: the ball's radius
        // and cut. The previous request's flags may fit neither.
        self.0.clean.take();
        self.0.dirty.take();
        self.0.engine.count(query).retain(&self.0)
    }
}

/// [`StoreAt`]'s retention, kept private so that no request on another
/// engine can carry it.
struct VersionRetention<'s> {
    store: &'s PartialStore,
    version: VersionId,
    /// This version's engine: the new side of the invalidation ball.
    engine: Arc<Engine<'static>>,
    /// The parent version and its engine, when the parent is bound.
    parent: Option<(VersionId, Arc<Engine<'static>>)>,
    /// The edges the parent → version delta changed.
    changed: Vec<(VertexId, VertexId)>,
    /// No dirty shard: the replay of this version's own partials.
    clean: OnceLock<Vec<bool>>,
    /// The delta's invalidation ball, for replays of the parent's partials.
    dirty: OnceLock<Vec<bool>>,
}

impl Retention for VersionRetention<'_> {
    fn replay(&self, trial: &TrialShape<'_>) -> Option<(Arc<TrialPartials>, &[bool])> {
        if let Some(here) = self.store.get(&PartialKey::new(self.version, trial)) {
            let clean = self.clean.get_or_init(|| vec![false; trial.num_shards]);
            return Some((here, clean));
        }
        let (parent, old) = self.parent.as_ref()?;
        let cached = self.store.get(&PartialKey::new(*parent, trial))?;
        let dirty = self.dirty.get_or_init(|| {
            let (new, query_nodes) = (self.engine.graph(), trial.plan.query.num_nodes());
            dirty_shards(
                old.graph(),
                new,
                &self.changed,
                query_nodes,
                trial.num_shards,
            )
            .expect("a trial runs at least one shard")
        });
        Some((cached, dirty))
    }

    fn retain(&self, trial: &TrialShape<'_>, partials: TrialPartials) {
        self.store
            .insert(PartialKey::new(self.version, trial), Arc::new(partials));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_engine::Count;
    use sgc_graph::{CsrGraph, EdgeDelta, GraphBuilder};
    use sgc_query::{catalog, enumerate_plans, QueryGraph};

    /// One trial of `path(3)` on a 12-vertex path under coloring `seed`,
    /// over two shards: from scratch, or replaying both shards of `cached`.
    /// Returns its count and its partials.
    fn sample(seed: u64, cached: Option<Arc<TrialPartials>>) -> (Count, TrialPartials) {
        struct Once {
            cached: Option<Arc<TrialPartials>>,
            kept: Mutex<Option<TrialPartials>>,
        }
        impl Retention for Once {
            fn replay(&self, _: &TrialShape<'_>) -> Option<(Arc<TrialPartials>, &[bool])> {
                Some((self.cached.clone()?, &[false, false]))
            }
            fn retain(&self, _: &TrialShape<'_>, partials: TrialPartials) {
                *self.kept.lock().unwrap() = Some(partials);
            }
        }
        let mut b = GraphBuilder::new(12);
        for v in 0..11u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let once = Once {
            cached,
            kept: Mutex::new(None),
        };
        let estimate = Engine::new(&g)
            .count(&catalog::path(3))
            .seed(seed)
            .trials(1)
            .parallel(false)
            .sharded(2)
            .retain(&once)
            .estimate()
            .unwrap();
        let partials = once.kept.into_inner().unwrap().expect("the trial retained");
        (estimate.per_trial[0], partials)
    }

    fn sample_partials(seed: u64) -> Arc<TrialPartials> {
        Arc::new(sample(seed, None).1)
    }

    fn key(trial: usize) -> PartialKey {
        PartialKey {
            version: VersionId::from_u64(1),
            plan: 0,
            algorithm: Algorithm::DegreeBased,
            coloring_seed: trial as u64,
            num_shards: 2,
        }
    }

    fn grid(side: usize) -> CsrGraph {
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
    fn lru_evicts_oldest_and_counts() {
        let one = sample_partials(0);
        let size = one.bytes();
        // Room for exactly two entries.
        let store = PartialStore::new(2 * size);
        store.insert(key(0), Arc::clone(&one));
        store.insert(key(1), sample_partials(1));
        assert_eq!(store.stats().entries, 2);
        // Touch 0 so 1 becomes the LRU victim.
        assert!(store.get(&key(0)).is_some());
        store.insert(key(2), sample_partials(2));
        assert_eq!(store.stats().evictions, 1);
        assert!(store.get(&key(1)).is_none());
        assert!(store.get(&key(0)).is_some());
        assert!(store.get(&key(2)).is_some());
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 2 * size);
        assert_eq!(stats.misses, 1);

        // An entry bigger than the whole store is skipped, not stored.
        let tiny = PartialStore::new(size / 2);
        tiny.insert(key(3), one);
        assert_eq!(tiny.stats().entries, 0);
        assert_eq!(tiny.stats().evictions, 0);
    }

    #[test]
    fn replacing_an_entry_releases_its_bytes() {
        let p = sample_partials(0);
        let size = p.bytes();
        let store = PartialStore::new(3 * size);
        store.insert(key(0), Arc::clone(&p));
        store.insert(key(0), Arc::clone(&p));
        store.insert(key(0), p);
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, size);
        assert_eq!(stats.evictions, 0);
    }

    /// The accounted bytes are the held partials' own, through inserts past
    /// capacity; and an entry that survived eviction still replays to the
    /// count of a from-scratch run (an evicted one is a miss, which the
    /// caller answers from scratch). Replayed under a colouring that counts
    /// differently, it still gives its own trial's count: the engine took
    /// every shard from the cache and solved none.
    #[test]
    fn accounted_bytes_are_the_held_partials_and_survivors_still_replay() {
        let scratch: Vec<(Count, TrialPartials)> = (0..5).map(|seed| sample(seed, None)).collect();
        let total: usize = scratch.iter().map(|(_, partials)| partials.bytes()).sum();
        let store = PartialStore::new(total / 2);
        for (trial, (_, partials)) in scratch.iter().enumerate() {
            store.insert(key(trial), Arc::new(partials.clone()));
        }
        let held: Vec<(usize, Arc<TrialPartials>)> = (0..5)
            .filter_map(|trial| Some((trial, store.get(&key(trial))?)))
            .collect();
        assert!(
            store.stats().evictions > 0,
            "five entries into room for half"
        );
        assert!(!held.is_empty());
        let stats = store.stats();
        assert_eq!(stats.entries, held.len());
        assert_eq!(
            stats.bytes,
            held.iter().map(|(_, p)| p.bytes()).sum::<usize>()
        );
        for (trial, partials) in held {
            let (replayed, _) = sample(trial as u64, Some(Arc::clone(&partials)));
            assert_eq!(replayed, scratch[trial].0, "trial {trial}");
            let other = (0..5)
                .find(|&seed| scratch[seed].0 != scratch[trial].0)
                .expect("the five colourings do not all count alike");
            let (replayed, _) = sample(other as u64, Some(partials));
            assert_eq!(replayed, scratch[trial].0, "trial {trial} under {other}");
        }
    }

    #[test]
    fn versioned_counts_match_the_engine_on_the_materialized_graph() {
        let mut versions = VersionedGraph::new(&grid(10));
        let store = PartialStore::default();
        let query = catalog::path(4);
        let delta = EdgeDelta::new(vec![(0, 3)], vec![(0, 1)]).unwrap();
        let v1 = versions.apply_to_head(&delta).unwrap();
        let estimate = || {
            let mut at = store.at(&versions, v1).unwrap();
            let request = at.count(&query).seed(42).trials(6);
            request.sharded(4).estimate().unwrap()
        };

        let estimate_v1 = estimate();
        // First sight of this chain: no trial finds partials here or at the
        // root, and every trial keeps its own.
        let first = store.stats();
        assert_eq!((first.hits, first.misses, first.entries), (0, 12, 6));

        // The hard contract: bit-identical to the engine on a fresh build
        // of the same edge list.
        let fresh = versions.data_at(v1).unwrap().graph().clone();
        let reference = Engine::new(&fresh)
            .count(&query)
            .seed(42)
            .trials(6)
            .estimate()
            .unwrap();
        assert_eq!(estimate_v1.per_trial, reference.per_trial);
        assert_eq!(
            estimate_v1.estimated_subgraphs,
            reference.estimated_subgraphs
        );

        // Asking again answers every trial from this version's partials.
        let again = estimate();
        let second = store.stats();
        assert_eq!((second.hits, second.misses), (6, 12));
        assert_eq!(again.per_trial, estimate_v1.per_trial);
    }

    #[test]
    fn incremental_recount_replays_clean_shards_bit_identically() {
        let mut versions = VersionedGraph::new(&grid(16));
        let query = catalog::triangle();
        // The counts, and the invalidation ball the request replayed around.
        let run = |versions: &VersionedGraph, store: &PartialStore, version| {
            let mut at = store.at(versions, version).unwrap();
            let request = at.count(&query).seed(7).trials(4).parallel(false);
            let estimate = request.sharded(8).estimate().unwrap();
            (estimate.per_trial, at.0.dirty.take())
        };
        let store = PartialStore::default();
        run(&versions, &store, versions.root());

        // A corner-local delta: close the top-left unit square's diagonal.
        let delta = EdgeDelta::new(vec![(0, 17)], vec![]).unwrap();
        let v1 = versions.apply_to_head(&delta).unwrap();
        let before = store.stats();
        let (incremental, ball) = run(&versions, &store, v1);
        let after = store.stats();
        // Every trial missed here and recounted from the root's partials.
        assert_eq!(after.hits - before.hits, 4);
        assert_eq!(after.misses - before.misses, 4);
        let ball = ball.expect("the trials replayed the root's partials");
        assert!(
            ball.contains(&false),
            "a corner delta on a 256-vertex grid must leave clean shards"
        );

        // Scratch reference on an empty store.
        let (scratch, ball) = run(&versions, &PartialStore::default(), v1);
        assert_eq!(ball, None);
        assert_eq!(incremental, scratch);
    }

    /// Two plans of one query with equal block counts: at a child version
    /// whose parent holds the first plan's partials, the second plan must not
    /// replay them — and both count what a fresh build counts.
    #[test]
    fn a_parent_hit_never_replays_another_plans_partials() {
        let query = catalog::glet1();
        let plans = enumerate_plans(&query).unwrap();
        let (a, b) = plans
            .iter()
            .enumerate()
            .flat_map(|(i, a)| plans[i + 1..].iter().map(move |b| (a, b)))
            .find(|(a, b)| a.blocks.len() == b.blocks.len())
            .expect("glet1 has two plans with equal block counts");
        let mut versions = VersionedGraph::new(&grid(16));
        let store = PartialStore::default();
        let run = |versions: &VersionedGraph, version, plan| {
            let mut at = store.at(versions, version).unwrap();
            let request = at.count(&query).plan(plan).seed(3).trials(2);
            request.parallel(false).sharded(4).estimate().unwrap()
        };
        run(&versions, versions.root(), a);
        let v1 = versions
            .apply_to_head(&EdgeDelta::new(vec![(0, 17)], vec![]).unwrap())
            .unwrap();
        let fresh = versions.data_at(v1).unwrap().graph().clone();
        let reference = Engine::new(&fresh)
            .count(&query)
            .seed(3)
            .trials(2)
            .estimate()
            .unwrap();

        let before = store.stats().hits;
        let by_b = run(&versions, v1, b);
        assert_eq!(
            store.stats().hits,
            before,
            "plan B replayed plan A's partials"
        );
        assert_eq!(by_b.per_trial, reference.per_trial);

        let by_a = run(&versions, v1, a);
        assert_eq!(
            store.stats().hits,
            before + 2,
            "plan A recounts from its own"
        );
        assert_eq!(by_a.per_trial, reference.per_trial);
    }

    /// A reused [`StoreAt`] cuts each request's own invalidation ball: after
    /// a triangle request, a path(5) request replays outside path(5)'s larger
    /// ball, and counts what a fresh build counts.
    #[test]
    fn a_reused_store_at_cuts_each_requests_own_ball() {
        let mut versions = VersionedGraph::new(&grid(16));
        let store = PartialStore::default();
        let (small, large) = (catalog::triangle(), catalog::path(5));
        let count = |request: CountRequest<'_, '_, '_>| {
            let request = request.seed(3).trials(2).parallel(false);
            request.sharded(8).estimate().unwrap().per_trial
        };
        let mut at = store.at(&versions, versions.root()).unwrap();
        count(at.count(&small));
        count(at.count(&large));
        let v1 = versions
            .apply_to_head(&EdgeDelta::new(vec![(0, 17)], vec![]).unwrap())
            .unwrap();
        let mut at = store.at(&versions, v1).unwrap();
        count(at.count(&small));
        let by_large = count(at.count(&large));

        let (old, new) = (versions.data_at(versions.root()), versions.data_at(v1));
        let (old, new) = (old.unwrap(), new.unwrap());
        let ball = |query: &QueryGraph| {
            dirty_shards(old.graph(), new.graph(), &[(0, 17)], query.num_nodes(), 8).unwrap()
        };
        assert_ne!(ball(&small), ball(&large));
        assert_eq!(at.0.dirty.get(), Some(&ball(&large)));
        let fresh = Engine::new(new.graph());
        let reference = fresh.count(&large).seed(3).trials(2).estimate();
        assert_eq!(by_large, reference.unwrap().per_trial);
    }
}
