//! The bounded partial-sum store.

use crate::version::VersionId;
use sgc_core::{Algorithm, TrialPartials};
use sgc_query::CanonicalQueryKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default capacity of a [`PartialStore`]: 64 MiB of retained partials.
pub const DEFAULT_STORE_CAPACITY_BYTES: usize = 64 << 20;

/// Identifies one trial's retained partials. Everything that shapes the
/// partial tables is in the key: the graph version, the canonical query
/// (two isomorphic patterns share an entry), the algorithm, the trial
/// seed base, the shard layout, and the trial index.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PartialKey {
    /// The graph version the partials were computed on.
    pub version: VersionId,
    /// Canonical form of the query pattern.
    pub query: CanonicalQueryKey,
    /// The cycle-solving algorithm (PS and DB tables differ in shape).
    pub algorithm: Algorithm,
    /// The run's base seed (trial `t` colors with `seed + t`).
    pub seed: u64,
    /// Shard count the partials were produced with.
    pub num_shards: usize,
    /// Trial index within the run.
    pub trial: usize,
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

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
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

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_core::context::GraphPrep;
    use sgc_core::kernel::ArenaPool;
    use sgc_core::{count_sharded_retaining, recount_sharded_replay, IncrementalOutcome};
    use sgc_graph::{Coloring, GraphBuilder};
    use sgc_query::{canonical_key, catalog, heuristic_plan};

    /// One trial of `path(3)` on a 12-vertex path under coloring `seed`,
    /// over two shards: from scratch, or replaying both shards of `cached`.
    fn sample(seed: u64, cached: Option<&TrialPartials>) -> IncrementalOutcome {
        let mut b = GraphBuilder::new(12);
        for v in 0..11u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let prep = GraphPrep::new(&g);
        let query = catalog::path(3);
        let tree = heuristic_plan(&query).unwrap();
        let coloring = Coloring::random(12, 3, seed);
        let (algorithm, pool) = (Algorithm::DegreeBased, ArenaPool::new());
        match cached {
            None => count_sharded_retaining(&g, &prep, &coloring, &tree, algorithm, 2, &pool),
            Some(cached) => recount_sharded_replay(
                &g,
                &prep,
                &coloring,
                &tree,
                algorithm,
                2,
                &pool,
                &[false, false],
                cached,
            ),
        }
        .unwrap()
    }

    fn sample_partials(seed: u64) -> Arc<TrialPartials> {
        Arc::new(sample(seed, None).partials)
    }

    fn key(trial: usize) -> PartialKey {
        PartialKey {
            version: VersionId::from_u64(1),
            query: canonical_key(&catalog::path(3)),
            algorithm: Algorithm::DegreeBased,
            seed: 0,
            num_shards: 2,
            trial,
        }
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
        assert_eq!(store.evictions(), 1);
        assert!(store.get(&key(1)).is_none());
        assert!(store.get(&key(0)).is_some());
        assert!(store.get(&key(2)).is_some());
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= store.capacity_bytes());
        assert_eq!(stats.misses, 1);

        // An entry bigger than the whole store is skipped, not stored.
        let tiny = PartialStore::new(size / 2);
        tiny.insert(key(3), one);
        assert_eq!(tiny.stats().entries, 0);
        assert_eq!(tiny.evictions(), 0);
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
    /// caller answers from scratch).
    #[test]
    fn accounted_bytes_are_the_held_partials_and_survivors_still_replay() {
        let scratch: Vec<IncrementalOutcome> = (0..5).map(|seed| sample(seed, None)).collect();
        let total: usize = scratch.iter().map(|run| run.partials.bytes()).sum();
        let store = PartialStore::new(total / 2);
        for (trial, run) in scratch.iter().enumerate() {
            store.insert(key(trial), Arc::new(run.partials.clone()));
        }
        let held: Vec<(usize, Arc<TrialPartials>)> = (0..5)
            .filter_map(|trial| Some((trial, store.get(&key(trial))?)))
            .collect();
        assert!(store.evictions() > 0, "five entries into room for half");
        assert!(!held.is_empty());
        let stats = store.stats();
        assert_eq!(stats.entries, held.len());
        assert_eq!(
            stats.bytes,
            held.iter().map(|(_, p)| p.bytes()).sum::<usize>()
        );
        for (trial, partials) in held {
            let replayed = sample(trial as u64, Some(&partials));
            assert_eq!(replayed.shards_replayed, 2 * partials.num_steps());
            assert_eq!(
                replayed.colorful_matches, scratch[trial].colorful_matches,
                "trial {trial}"
            );
        }
    }
}
