//! The version chain: snapshot lineage with fingerprint-⊕-digest ids.

use sgc_core::{DeltaBall, Engine};
use sgc_graph::{CsrGraph, DeltaError, EdgeDelta, SegmentedSnapshot, VertexId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifies one graph version in a [`VersionedGraph`].
///
/// The root version's id is the base graph's
/// [`fingerprint`](CsrGraph::fingerprint); a child's id is
/// `parent ⊕ delta.digest()`. XOR-chaining has two properties the system
/// leans on:
///
/// * **Deterministic**: the same base graph plus the same delta sequence
///   yields the same id on every node and every run, so version ids are
///   meaningful across the wire (protocol v3 sends them verbatim).
/// * **Path-dependent in exactly the right way**: the id commits to the
///   *multiset* of applied delta digests — two clients that converge on
///   the same edit sequence converge on the same id. (XOR also means a
///   delta that exactly undoes another lands on a pre-existing id; deltas
///   are therefore always validated against their parent before the store
///   trusts an id collision as "version already known".)
///
/// Like the result cache's graph fingerprints, ids are 64-bit hashes:
/// collisions are possible in principle and accepted with the same
/// trade-off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionId(u64);

impl VersionId {
    /// Wraps a raw id (e.g. one received off the wire).
    pub fn from_u64(raw: u64) -> Self {
        VersionId(raw)
    }

    /// The raw 64-bit id (what protocol v3 puts on the wire).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The id a child produced from this version by `delta` will have.
    pub fn child(self, delta: &EdgeDelta) -> VersionId {
        VersionId(self.0 ^ delta.digest())
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:016x}", self.0)
    }
}

struct VersionEntry {
    snapshot: SegmentedSnapshot,
    parent: Option<VersionId>,
    delta: Option<EdgeDelta>,
    /// The engine bound to the materialized snapshot: built lazily, at most
    /// once, shared by all readers. The root's may come bound
    /// ([`VersionedGraph::from_engine`]).
    engine: OnceLock<Arc<Engine<'static>>>,
}

/// `entry`'s engine, bound on first use: the root's from its own snapshot,
/// any other version's as a [`rebind`](Engine::rebind) of the root's.
fn bound(entry: &VersionEntry, root: &VersionEntry) -> Arc<Engine<'static>> {
    Arc::clone(entry.engine.get_or_init(|| {
        let graph = Arc::new(entry.snapshot.materialize());
        Arc::new(match entry.parent {
            None => Engine::from_shared(graph),
            Some(_) => bound(root, root).rebind(graph),
        })
    }))
}

/// One version, detached from its chain: its snapshot and its (lazily
/// bound) engine, usable after the chain — or the lock a caller keeps it
/// under — is released. Cloning shares everything.
#[derive(Clone)]
pub struct Version {
    entry: Arc<VersionEntry>,
    root: Arc<VersionEntry>,
}

impl Version {
    /// The version's copy-on-write snapshot.
    pub fn snapshot(&self) -> &SegmentedSnapshot {
        &self.entry.snapshot
    }

    /// The engine bound to the version's materialized graph, built on first
    /// use (under the `bind` span) and shared by every handle and by
    /// [`VersionedGraph::data_at`].
    pub fn engine(&self) -> Arc<Engine<'static>> {
        bound(&self.entry, &self.root)
    }
}

/// The way down the chain from an ancestor to one of its descendants: both
/// snapshots and every edge a delta changed on the way, detached from the
/// chain like [`Version`].
pub struct Descent {
    ancestor: Arc<VersionEntry>,
    version: Arc<VersionEntry>,
    changed: Vec<(VertexId, VertexId)>,
}

impl Descent {
    /// The ball a trial at the descendant recounts from its count at the
    /// ancestor, for a `query_nodes`-node query: the one around every edge
    /// changed on the way, induced in both snapshots (see [`DeltaBall`]).
    /// An edge flipped and flipped back is in it too, which only widens
    /// the ball; the ball identity holds for any superset of the edges
    /// that differ.
    pub fn ball(&self, query_nodes: usize) -> DeltaBall {
        DeltaBall::new(
            |v| self.ancestor.snapshot.neighbors(v),
            |v| self.version.snapshot.neighbors(v),
            self.changed.iter().copied(),
            query_nodes,
        )
    }
}

/// Errors from the versioned store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynError {
    /// The referenced version is not in the store.
    UnknownVersion(VersionId),
    /// The delta does not apply to the parent snapshot (missing delete,
    /// duplicate insert, vertex out of range, ...).
    Delta(DeltaError),
}

impl fmt::Display for DynError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynError::UnknownVersion(v) => write!(f, "unknown graph version {v}"),
            DynError::Delta(e) => write!(f, "delta rejected: {e}"),
        }
    }
}

impl std::error::Error for DynError {}

impl From<DeltaError> for DynError {
    fn from(e: DeltaError) -> Self {
        DynError::Delta(e)
    }
}

/// A chain (in general, a tree) of copy-on-write graph versions.
///
/// The store owns one [`SegmentedSnapshot`] per version; siblings and
/// ancestors share every CSR segment a delta did not touch, so holding many
/// versions of a large graph costs far less than many full copies. A trial
/// an ancestor ran is recounted from the [`ball`](VersionedGraph::ball)
/// around the edges changed since, read off the two snapshots; any other
/// trial counts through an [`Engine`]
/// bound to the version's materialized graph
/// ([`data_at`](VersionedGraph::data_at)): built lazily, memoized per
/// version, and rebound from the root's engine, whose plan cache and arena
/// pool every version shares.
///
/// ```
/// use sgc_dyn::VersionedGraph;
/// use sgc_graph::{EdgeDelta, GraphBuilder};
///
/// let mut b = GraphBuilder::new(4);
/// b.extend_edges([(0, 1), (1, 2), (2, 3)]);
/// let mut versions = VersionedGraph::new(&b.build());
/// let root = versions.root();
///
/// let delta = EdgeDelta::new(vec![(0, 3)], vec![]).unwrap();
/// let v1 = versions.apply_delta(root, &delta).unwrap();
/// assert_eq!(v1, root.child(&delta));
/// assert_eq!(versions.head(), v1);
/// assert!(versions.snapshot(v1).unwrap().has_edge(0, 3));
/// assert!(!versions.snapshot(root).unwrap().has_edge(0, 3));
/// ```
pub struct VersionedGraph {
    root: VersionId,
    head: VersionId,
    versions: HashMap<VersionId, Arc<VersionEntry>>,
}

impl VersionedGraph {
    /// Starts a version chain at `graph` (the root version's id is the
    /// graph's fingerprint). No engine is bound until a version is first
    /// counted ([`data_at`](VersionedGraph::data_at)).
    pub fn new(graph: &CsrGraph) -> Self {
        let root = VersionId(graph.fingerprint());
        let mut versions = HashMap::new();
        versions.insert(
            root,
            Arc::new(VersionEntry {
                snapshot: SegmentedSnapshot::new(graph),
                parent: None,
                delta: None,
                engine: OnceLock::new(),
            }),
        );
        VersionedGraph {
            root,
            head: root,
            versions,
        }
    }

    /// Starts a version chain at `engine`'s graph, with `engine` as the root
    /// version's engine: the root is never bound a second time.
    pub fn from_engine(engine: Arc<Engine<'static>>) -> Self {
        let chain = Self::new(engine.graph());
        chain.versions[&chain.root].engine.get_or_init(|| engine);
        chain
    }

    /// The id of the base version.
    pub fn root(&self) -> VersionId {
        self.root
    }

    /// The most recently created version on the main line: advanced by
    /// every [`apply_delta`](VersionedGraph::apply_delta) whose parent *is*
    /// the head (applying to an older version creates a branch and leaves
    /// the head alone).
    pub fn head(&self) -> VersionId {
        self.head
    }

    /// Number of versions in the store.
    pub fn num_versions(&self) -> usize {
        self.versions.len()
    }

    /// Whether `version` exists.
    pub fn contains(&self, version: VersionId) -> bool {
        self.versions.contains_key(&version)
    }

    /// The version's snapshot, if it exists.
    pub fn snapshot(&self, version: VersionId) -> Option<&SegmentedSnapshot> {
        self.versions.get(&version).map(|e| &e.snapshot)
    }

    /// The version's parent id (`None` for the root or unknown versions).
    pub fn parent(&self, version: VersionId) -> Option<VersionId> {
        self.versions.get(&version).and_then(|e| e.parent)
    }

    /// The delta that produced `version` from its parent (`None` for the
    /// root or unknown versions).
    pub fn delta(&self, version: VersionId) -> Option<&EdgeDelta> {
        self.versions.get(&version).and_then(|e| e.delta.as_ref())
    }

    /// Applies `delta` to `parent`, storing the child snapshot and
    /// returning its id (`parent ⊕ delta.digest()`). Re-applying a delta
    /// that already produced a child is idempotent. Runs under the
    /// `delta.apply` observability stage.
    ///
    /// # Errors
    /// [`DynError::UnknownVersion`] when `parent` is not in the store;
    /// [`DynError::Delta`] when the delta does not apply to it.
    // The entry API cannot express this insert: building the child
    // snapshot is fallible and borrows the parent's entry from the same
    // map the vacancy check would hold open.
    #[allow(clippy::map_entry)]
    pub fn apply_delta(
        &mut self,
        parent: VersionId,
        delta: &EdgeDelta,
    ) -> Result<VersionId, DynError> {
        let _span = sgc_obs::span(sgc_obs::Stage::DeltaApply);
        let entry = self
            .versions
            .get(&parent)
            .ok_or(DynError::UnknownVersion(parent))?;
        // Validate even when the child id already exists: with XOR
        // chaining, re-applying a delta's digest lands back on the parent's
        // parent, and skipping validation there would accept (say) an
        // insert of an edge the parent already has — silently moving the
        // head to a graph missing that edge.
        entry.snapshot.check(delta)?;
        let child = parent.child(delta);
        if !self.versions.contains_key(&child) {
            let snapshot = entry.snapshot.apply(delta)?;
            self.versions.insert(
                child,
                Arc::new(VersionEntry {
                    snapshot,
                    parent: Some(parent),
                    delta: Some(delta.clone()),
                    engine: OnceLock::new(),
                }),
            );
        }
        if parent == self.head {
            self.head = child;
        }
        Ok(child)
    }

    /// Applies `delta` to the current head.
    pub fn apply_to_head(&mut self, delta: &EdgeDelta) -> Result<VersionId, DynError> {
        self.apply_delta(self.head, delta)
    }

    /// `version`, detached from the chain (two reference-count bumps).
    ///
    /// # Errors
    /// [`DynError::UnknownVersion`] when `version` is not in the store.
    pub fn version(&self, version: VersionId) -> Result<Version, DynError> {
        let entry = self
            .versions
            .get(&version)
            .ok_or(DynError::UnknownVersion(version))?;
        Ok(Version {
            entry: Arc::clone(entry),
            root: Arc::clone(&self.versions[&self.root]),
        })
    }

    /// The engine bound to `version`'s materialized graph, built on first
    /// use and shared afterwards. The root's is the one
    /// [`from_engine`](VersionedGraph::from_engine) supplied, or else bound
    /// here; every other version's is a [`rebind`](Engine::rebind) of the
    /// root's, so binding a version first binds the root.
    ///
    /// # Errors
    /// [`DynError::UnknownVersion`] when `version` is not in the store.
    pub fn data_at(&self, version: VersionId) -> Result<Arc<Engine<'static>>, DynError> {
        Ok(self.version(version)?.engine())
    }

    /// The way down from `ancestor` to `version`: `None` when `ancestor` is
    /// neither `version` nor one of its ancestors. Collects the changed
    /// edges of every delta on the way; builds nothing.
    ///
    /// # Errors
    /// [`DynError::UnknownVersion`] when `version` is not in the store.
    pub fn descent(
        &self,
        version: VersionId,
        ancestor: VersionId,
    ) -> Result<Option<Descent>, DynError> {
        let entry = self
            .versions
            .get(&version)
            .ok_or(DynError::UnknownVersion(version))?;
        let mut changed = Vec::new();
        let mut at = version;
        while at != ancestor {
            let step = &self.versions[&at];
            let (Some(parent), Some(delta)) = (step.parent, &step.delta) else {
                return Ok(None);
            };
            changed.extend(delta.changed_edges());
            at = parent;
        }
        Ok(Some(Descent {
            ancestor: Arc::clone(&self.versions[&ancestor]),
            version: Arc::clone(entry),
            changed,
        }))
    }

    /// The ball a trial at `version` recounts from its count at `ancestor`,
    /// for a `query_nodes`-node query: [`Descent::ball`] of the
    /// [`descent`](VersionedGraph::descent) between them, so `None` when
    /// `ancestor` is not on `version`'s chain. Binds no engine: the ball is
    /// read off the copy-on-write snapshots.
    ///
    /// # Errors
    /// [`DynError::UnknownVersion`] when `version` is not in the store.
    pub fn ball(
        &self,
        version: VersionId,
        ancestor: VersionId,
        query_nodes: usize,
    ) -> Result<Option<DeltaBall>, DynError> {
        Ok(self
            .descent(version, ancestor)?
            .map(|descent| descent.ball(query_nodes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_graph::GraphBuilder;

    fn path_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1);
        }
        b.build()
    }

    #[test]
    fn ids_chain_by_xor_and_head_advances() {
        let g = path_graph(8);
        let mut versions = VersionedGraph::new(&g);
        let root = versions.root();
        assert_eq!(root.as_u64(), g.fingerprint());
        assert_eq!(versions.head(), root);

        let d1 = EdgeDelta::new(vec![(0, 7)], vec![]).unwrap();
        let d2 = EdgeDelta::new(vec![], vec![(3, 4)]).unwrap();
        let v1 = versions.apply_to_head(&d1).unwrap();
        let v2 = versions.apply_to_head(&d2).unwrap();
        assert_eq!(v1.as_u64(), root.as_u64() ^ d1.digest());
        assert_eq!(v2.as_u64(), v1.as_u64() ^ d2.digest());
        assert_eq!(versions.head(), v2);
        let chain: Vec<VersionId> =
            std::iter::successors(Some(v2), |&v| versions.parent(v)).collect();
        assert_eq!(chain, vec![v2, v1, root]);
        assert_eq!(versions.parent(v2), Some(v1));
        assert_eq!(versions.delta(v2), Some(&d2));
        assert_eq!(versions.num_versions(), 3);
    }

    #[test]
    fn branching_leaves_head_alone_and_reapply_is_idempotent() {
        let g = path_graph(6);
        let mut versions = VersionedGraph::new(&g);
        let root = versions.root();
        let d1 = EdgeDelta::new(vec![(0, 2)], vec![]).unwrap();
        let v1 = versions.apply_to_head(&d1).unwrap();

        // Branch off the root: a new version, but head stays at v1.
        let d2 = EdgeDelta::new(vec![(0, 3)], vec![]).unwrap();
        let b1 = versions.apply_delta(root, &d2).unwrap();
        assert_ne!(b1, v1);
        assert_eq!(versions.head(), v1);

        // Same parent + same delta = same version, nothing new stored.
        let before = versions.num_versions();
        assert_eq!(versions.apply_delta(root, &d1).unwrap(), v1);
        assert_eq!(versions.num_versions(), before);
    }

    #[test]
    fn reapplying_a_delta_at_its_child_is_rejected_not_a_silent_walk_back() {
        // XOR chaining makes d1's digest at v1 land exactly on the root id;
        // the store must still reject it (v1 already has the edge) instead
        // of trusting the id collision and moving the head back to a graph
        // missing it.
        let g = path_graph(6);
        let mut versions = VersionedGraph::new(&g);
        let root = versions.root();
        let d1 = EdgeDelta::new(vec![(0, 2)], vec![]).unwrap();
        let v1 = versions.apply_to_head(&d1).unwrap();
        assert_eq!(v1.child(&d1), root);
        assert!(matches!(
            versions.apply_to_head(&d1),
            Err(DynError::Delta(DeltaError::InsertExisting { edge: (0, 2) }))
        ));
        assert_eq!(versions.head(), v1);

        // The true inverse (deleting what was inserted) is valid; its
        // digest differs from d1's, so it creates a new version whose edge
        // set matches the root rather than aliasing the root's id.
        let undo = EdgeDelta::new(vec![], vec![(0, 2)]).unwrap();
        let v2 = versions.apply_to_head(&undo).unwrap();
        assert_ne!(v2, root);
        assert!(!versions.snapshot(v2).unwrap().has_edge(0, 2));
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let g = path_graph(4);
        let mut versions = VersionedGraph::new(&g);
        let ghost = VersionId::from_u64(0xdead_beef);
        let d = EdgeDelta::new(vec![(0, 2)], vec![]).unwrap();
        assert_eq!(
            versions.apply_delta(ghost, &d),
            Err(DynError::UnknownVersion(ghost))
        );
        assert!(versions.data_at(ghost).is_err());
        // Deleting an absent edge is a Delta error, not a panic.
        let bad = EdgeDelta::new(vec![], vec![(0, 3)]).unwrap();
        assert!(matches!(
            versions.apply_to_head(&bad),
            Err(DynError::Delta(DeltaError::DeleteMissing { .. }))
        ));
    }

    #[test]
    fn materialized_version_matches_a_fresh_build() {
        let g = path_graph(10);
        let mut versions = VersionedGraph::new(&g);
        let d = EdgeDelta::new(vec![(0, 9), (2, 7)], vec![(4, 5)]).unwrap();
        let v1 = versions.apply_to_head(&d).unwrap();

        let mut b = GraphBuilder::new(10);
        for v in 0..9u32 {
            if (v, v + 1) != (4, 5) {
                b.add_edge(v, v + 1);
            }
        }
        b.add_edge(0, 9);
        b.add_edge(2, 7);
        let fresh = b.build();

        let data = versions.data_at(v1).unwrap();
        assert_eq!(data.graph().fingerprint(), fresh.fingerprint());
        // Memoized: second call hands back the same allocation.
        let again = versions.data_at(v1).unwrap();
        assert!(Arc::ptr_eq(&data, &again));
    }

    /// A chain binds its root once: on first use, or never when it was
    /// handed a bound engine, whose plan cache every version then shares.
    #[test]
    fn the_root_is_bound_once_and_shared() {
        let builds = sgc_core::context::prep_build_count;
        let before = builds();
        let versions = VersionedGraph::new(&path_graph(8));
        assert_eq!(builds(), before, "a new chain binds nothing");
        versions.data_at(versions.root()).unwrap();
        versions.data_at(versions.root()).unwrap();
        assert_eq!(builds(), before + 1);

        let engine = Arc::new(Engine::from_shared(Arc::new(path_graph(8))));
        engine.plan(&sgc_query::catalog::triangle()).unwrap();
        let mut versions = VersionedGraph::from_engine(Arc::clone(&engine));
        let root = versions.data_at(versions.root()).unwrap();
        assert!(
            Arc::ptr_eq(&root, &engine),
            "the root binds no second engine"
        );
        let v1 = versions.apply_to_head(&EdgeDelta::new(vec![(0, 7)], vec![]).unwrap());
        assert_eq!(versions.data_at(v1.unwrap()).unwrap().cached_plans(), 1);
    }

    fn grid(side: u32) -> CsrGraph {
        let mut b = GraphBuilder::new((side * side) as usize);
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    b.add_edge(r * side + c, r * side + c + 1);
                }
                if r + 1 < side {
                    b.add_edge(r * side + c, (r + 1) * side + c);
                }
            }
        }
        b.build()
    }

    /// DB trials `0..6` of `query` on `engine`, seeded 3, recounted from
    /// `parent` through `ball` when both are given.
    fn trials(
        engine: &Engine<'_>,
        query: &sgc_query::QueryGraph,
        recount: Option<(&[u64], &DeltaBall)>,
    ) -> Vec<u64> {
        let mut request = engine.count(query).seed(3).trials(6);
        if let Some((parent, ball)) = recount {
            request = request.recount(parent, ball);
        }
        request.estimate().unwrap().per_trial
    }

    /// What a fresh engine on a rebuild of `version`'s edge list counts.
    fn fresh(
        versions: &VersionedGraph,
        version: VersionId,
        query: &sgc_query::QueryGraph,
    ) -> Vec<u64> {
        let graph = versions.version(version).unwrap().snapshot().materialize();
        trials(&Engine::new(&graph), query, None)
    }

    /// A version's ball is read off the snapshots, small against a lattice,
    /// and recounts the parent's trials into what a fresh build of the
    /// version counts — an empty delta's empty ball included. The root has
    /// no ancestor to recount from.
    #[test]
    fn a_version_recounts_its_parents_trials_from_its_ball() {
        let query = sgc_query::catalog::cycle(4);
        let mut versions = VersionedGraph::new(&grid(12));
        let root = versions.root();
        let mut parent = trials(&versions.data_at(root).unwrap(), &query, None);
        for delta in [
            EdgeDelta::new(vec![(0, 13), (40, 53)], vec![(0, 1)]).unwrap(),
            EdgeDelta::new(vec![], vec![]).unwrap(),
        ] {
            let from = versions.head();
            let version = versions.apply_to_head(&delta).unwrap();
            assert!(versions.ball(from, version, 4).unwrap().is_none());
            let ball = versions
                .ball(version, from, 4)
                .unwrap()
                .expect("the parent");
            let graph_edges = versions.snapshot(version).unwrap().num_edges();
            assert!(
                ball.pays_off(graph_edges),
                "{} ball edges",
                ball.num_edges()
            );
            let engine = versions.data_at(version).unwrap();
            let recounted = trials(&engine, &query, Some((&parent, &ball)));
            assert_eq!(recounted, fresh(&versions, version, &query));
            parent = recounted;
        }
        assert!(versions.ball(VersionId::from_u64(7), root, 4).is_err());
    }

    /// Down a three-delta chain, the ball around every edge changed since
    /// an ancestor recounts that ancestor's trials into the head's: from
    /// the parent, the grandparent and the root alike. None of it binds
    /// the head.
    #[test]
    fn a_version_recounts_from_any_ancestors_counts() {
        let query = sgc_query::catalog::cycle(4);
        let mut versions = VersionedGraph::new(&grid(12));
        let mut chain = vec![versions.root()];
        for delta in [
            EdgeDelta::new(vec![(0, 13)], vec![(0, 1)]).unwrap(),
            EdgeDelta::new(vec![(50, 63), (100, 113)], vec![]).unwrap(),
            EdgeDelta::new(vec![(0, 1)], vec![(50, 51)]).unwrap(),
        ] {
            chain.push(versions.apply_to_head(&delta).unwrap());
        }
        let head = versions.head();
        let want = fresh(&versions, head, &query);
        let root_engine = versions.data_at(versions.root()).unwrap();
        for &ancestor in &chain[..3] {
            let counts = fresh(&versions, ancestor, &query);
            let ball = versions.ball(head, ancestor, 4).unwrap().unwrap();
            assert_eq!(trials(&root_engine, &query, Some((&counts, &ball))), want);
        }
        // The head's own descent is empty: its ball recounts nothing.
        let ball = versions.ball(head, head, 4).unwrap().unwrap();
        assert_eq!(ball.num_vertices(), 0);
    }

    /// An edge inserted and then deleted leaves the grandparent's graph
    /// under a new id: the ball around it recounts the grandparent's
    /// trials into exactly those trials, which a fresh build agrees with.
    #[test]
    fn an_edge_flipped_and_flipped_back_recounts_to_the_grandparents_counts() {
        let query = sgc_query::catalog::cycle(4);
        let mut versions = VersionedGraph::new(&grid(12));
        let root = versions.root();
        let edge = (0, 13);
        versions
            .apply_to_head(&EdgeDelta::new(vec![edge], vec![]).unwrap())
            .unwrap();
        let back = versions
            .apply_to_head(&EdgeDelta::new(vec![], vec![edge]).unwrap())
            .unwrap();
        assert_ne!(back, root);
        let counts = fresh(&versions, root, &query);
        let ball = versions.ball(back, root, 4).unwrap().unwrap();
        assert!(ball.num_vertices() > 0, "the flipped edge is in the ball");
        let recounted = trials(
            &versions.data_at(root).unwrap(),
            &query,
            Some((&counts, &ball)),
        );
        assert_eq!(recounted, counts);
        assert_eq!(recounted, fresh(&versions, back, &query));
    }
}
