//! The bind-once counting front door.
//!
//! [`Engine::new`] binds to a data graph and runs the expensive
//! coloring-independent preprocessing (degree order, rank-sorted adjacency)
//! exactly once. Every subsequent request — exact colorful counts or
//! multi-trial estimates, for any query — reuses that work. Decomposition
//! plans are cached per query, so repeated queries skip the planner too.
//!
//! ```
//! use sgc_core::{Algorithm, Engine};
//! use sgc_graph::GraphBuilder;
//! use sgc_query::catalog;
//!
//! let mut b = GraphBuilder::new(5);
//! b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
//! let graph = b.build();
//!
//! let engine = Engine::new(&graph); // preprocessing happens here, once
//! let estimate = engine
//!     .count(&catalog::triangle())
//!     .algorithm(Algorithm::DegreeBased)
//!     .trials(32)
//!     .seed(7)
//!     .estimate()
//!     .unwrap();
//! assert!(estimate.estimated_matches >= 0.0);
//! ```

use crate::ball::DeltaBall;
use crate::config::Algorithm;
use crate::context::GraphPrep;
use crate::driver::CountResult;
use crate::error::SgcError;
use crate::estimator::{relative_half_width, summarize_trials, Estimate};
use crate::explain::PlanReport;
use crate::kernel::ArenaPool;
use crate::runtime::executor::{execute, Job};
use sgc_engine::parallel::parallel_indexed;
use sgc_engine::Count;
use sgc_graph::{Coloring, CsrGraph};
use sgc_query::{
    canonical_key, heuristic_plan, CanonicalQueryKey, DecompositionTree, Pattern, QueryGraph,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The engine's hold on its data graph: either a borrow (the classic
/// bind-once-in-scope usage) or shared ownership through an `Arc` (what a
/// long-lived service needs so that `Engine<'static>` can cross into worker
/// threads without a self-referential struct).
enum GraphRef<'g> {
    Borrowed(&'g CsrGraph),
    Shared(Arc<CsrGraph>),
}

impl std::ops::Deref for GraphRef<'_> {
    type Target = CsrGraph;

    fn deref(&self) -> &CsrGraph {
        match self {
            GraphRef::Borrowed(graph) => graph,
            GraphRef::Shared(graph) => graph,
        }
    }
}

/// The plan memo: one decomposition plan per canonical query.
type PlanCache = Mutex<HashMap<CanonicalQueryKey, Arc<DecompositionTree>>>;

/// A long-lived counting engine bound to one data graph.
///
/// Construction runs the `O(m log m)` preprocessing pass ([`GraphPrep`]);
/// requests created with [`Engine::count`] share it across queries, trials
/// and threads. The engine also memoizes decomposition plans per query,
/// keyed by the canonical form from [`sgc_query::canonical_key`].
pub struct Engine<'g> {
    graph: GraphRef<'g>,
    prep: GraphPrep,
    /// Shared with every engine [`rebind`](Engine::rebind) derives from this
    /// one: a plan depends only on the query, never on the graph.
    plan_cache: Arc<PlanCache>,
    /// Reusable DP-kernel arenas, shared by every request (and every worker
    /// task) of this engine and of the engines it rebinds: trial `i + 1`
    /// solves into the buffers trial `i` grew.
    arena_pool: Arc<ArenaPool>,
}

impl Engine<'static> {
    /// Binds an engine to a shared graph.
    ///
    /// The returned engine owns a reference count on the graph and has no
    /// borrowed lifetime, so it can be stored in `'static` contexts — worker
    /// threads, services, globals. The `sgc-service` worker pool is the
    /// canonical caller: one shared `Engine<'static>` serves every job.
    pub fn from_shared(graph: Arc<CsrGraph>) -> Self {
        Engine::build(GraphRef::Shared(graph))
    }
}

impl<'g> Engine<'g> {
    /// Binds an engine to `graph`, running the preprocessing pass once.
    pub fn new(graph: &'g CsrGraph) -> Self {
        Engine::build(GraphRef::Borrowed(graph))
    }

    /// Binds a second engine to `graph` — another version of this engine's
    /// graph, say. It runs its own preprocessing pass and shares this
    /// engine's plan cache (so a query is planned once for both graphs) and
    /// arena pool.
    pub fn rebind(&self, graph: Arc<CsrGraph>) -> Engine<'static> {
        Engine {
            plan_cache: Arc::clone(&self.plan_cache),
            arena_pool: Arc::clone(&self.arena_pool),
            ..Engine::build(GraphRef::Shared(graph))
        }
    }

    fn build(graph: GraphRef<'g>) -> Self {
        let _span = sgc_obs::span(sgc_obs::Stage::Bind);
        let prep = GraphPrep::new(&graph);
        Engine {
            graph,
            prep,
            plan_cache: Arc::default(),
            arena_pool: Arc::default(),
        }
    }

    /// The bound data graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The reusable preprocessing (degree order, rank-sorted adjacency).
    pub fn prep(&self) -> &GraphPrep {
        &self.prep
    }

    /// The decomposition plan for `query`, planned with
    /// [`heuristic_plan`] on first use and served from the cache afterwards.
    ///
    /// # Errors
    /// [`SgcError::Query`] if the query has no treewidth-≤2 decomposition.
    pub fn plan(&self, query: &QueryGraph) -> Result<Arc<DecompositionTree>, SgcError> {
        let key = canonical_key(query);
        if let Some(plan) = self.lock_cache().get(&key) {
            return Ok(Arc::clone(plan));
        }
        // Plan outside the critical section: concurrent planners of distinct
        // queries don't serialize, and a panicking planner can't poison the
        // cache for the rest of the engine's life. Racing threads may both
        // plan the same query; the first insert wins and both get that plan.
        let plan = {
            let _span = sgc_obs::span(sgc_obs::Stage::Plan);
            Arc::new(heuristic_plan(query)?)
        };
        Ok(Arc::clone(self.lock_cache().entry(key).or_insert(plan)))
    }

    /// Number of distinct queries currently held in the plan cache.
    pub fn cached_plans(&self) -> usize {
        self.lock_cache().len()
    }

    /// Locks the plan cache, recovering from poisoning: the cache only holds
    /// completed `Arc<DecompositionTree>` entries, so a panic elsewhere
    /// cannot leave it in a torn state.
    fn lock_cache(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<CanonicalQueryKey, Arc<DecompositionTree>>> {
        self.plan_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Starts a counting request for `query`, to be finished with
    /// [`CountRequest::run`] or [`CountRequest::estimate`]. The trial count
    /// defaults to 3 and the seed to `0x5eed`.
    ///
    /// ```
    /// use sgc_core::Engine;
    /// use sgc_graph::{Coloring, GraphBuilder};
    /// use sgc_query::catalog;
    ///
    /// let mut b = GraphBuilder::new(3);
    /// b.extend_edges([(0, 1), (1, 2), (2, 0)]);
    /// let graph = b.build();
    ///
    /// // A rainbow-colored data triangle has 3! = 6 colorful matches of the
    /// // triangle query (one per orientation of the mapping).
    /// let coloring = Coloring::from_colors(vec![0, 1, 2], 3);
    /// let result = Engine::new(&graph)
    ///     .count(&catalog::triangle())
    ///     .coloring(&coloring)
    ///     .run()
    ///     .unwrap();
    /// assert_eq!(result.colorful_matches, 6);
    /// ```
    pub fn count<'e, 'a>(&'e self, query: &'a QueryGraph) -> CountRequest<'e, 'g, 'a> {
        self.request(Cow::Borrowed(query))
    }

    /// Starts a counting request for a textual pattern: the parsing front
    /// door. The text is parsed with the built-in
    /// [`Registry`](sgc_query::Registry) (edge lists, generator macros and
    /// catalog names all work; see [`sgc_query::parse`] for the grammar) and
    /// the resulting request behaves exactly like
    /// [`count`](Engine::count) of the equivalent constructor-built query —
    /// same plan cache entry, bit-identical counts.
    ///
    /// ```
    /// use sgc_core::Engine;
    /// use sgc_graph::GraphBuilder;
    /// use sgc_query::catalog;
    ///
    /// let mut b = GraphBuilder::new(5);
    /// b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
    /// let graph = b.build();
    /// let engine = Engine::new(&graph);
    ///
    /// let by_text = engine.count_str("a-b, b-c, c-a").unwrap().seed(7).run().unwrap();
    /// let by_ctor = engine.count(&catalog::triangle()).seed(7).run().unwrap();
    /// assert_eq!(by_text.colorful_matches, by_ctor.colorful_matches);
    /// ```
    ///
    /// # Errors
    /// [`SgcError::Pattern`] with the byte span of the offending token for
    /// malformed patterns (never a panic).
    pub fn count_str<'e, 'a>(
        &'e self,
        pattern: &str,
    ) -> Result<CountRequest<'e, 'g, 'a>, SgcError> {
        let query = Pattern::parse(pattern)?.into_query();
        Ok(self.request(Cow::Owned(query)))
    }

    /// Explains what a request for `query` would do, without running it: the
    /// candidate decomposition trees with their plan-cost vectors, the
    /// heuristic's choice (exactly the plan [`Engine::plan`] caches), the
    /// treewidth verdict, and upper bounds on the projection-table sizes on
    /// this engine's graph. The returned [`PlanReport`] `Display`s as the
    /// explain text.
    ///
    /// `&Pattern` dereferences to `&QueryGraph`, so parsed patterns can be
    /// explained directly: `engine.explain(&pattern)`.
    ///
    /// # Errors
    /// [`SgcError::Query`] for unplannable queries (empty, disconnected,
    /// treewidth > 2).
    pub fn explain(&self, query: &QueryGraph) -> Result<PlanReport, SgcError> {
        crate::explain::build_report(self.graph().num_vertices(), query, Algorithm::DegreeBased)
    }

    /// [`explain`](Engine::explain) for a textual pattern.
    ///
    /// ```
    /// use sgc_core::Engine;
    /// use sgc_graph::GraphBuilder;
    ///
    /// let mut b = GraphBuilder::new(4);
    /// b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
    /// let graph = b.build();
    /// let report = Engine::new(&graph).explain_str("cycle(3)").unwrap();
    /// assert_eq!(report.num_nodes, 3);
    /// assert_eq!(report.candidates.len(), 1);
    /// println!("{report}"); // the explain text
    /// ```
    ///
    /// # Errors
    /// [`SgcError::Pattern`] for malformed patterns, plus everything
    /// [`explain`](Engine::explain) reports.
    pub fn explain_str(&self, pattern: &str) -> Result<PlanReport, SgcError> {
        let query = Pattern::parse(pattern)?.into_query();
        self.explain(&query)
    }

    /// Estimates many counting requests in one call: a loop over the solo
    /// path, one [`TrialStream`] per *distinct* request. Structurally
    /// identical requests (same [`canonical_key`], algorithm and seed) run
    /// once, to the longest member's trial count, and each twin is handed
    /// its prefix; everything else runs exactly as its own
    /// [`estimate`](CountRequest::estimate) would.
    ///
    /// Every request's estimate is therefore **bit-identical** to its solo
    /// `estimate`: trial `i` of a request colors with `seed + i` and runs
    /// the same DP. The returned [`BatchMetrics`](crate::BatchMetrics)
    /// report how many DP runs the twins shared.
    ///
    /// Requests must come from this engine (so they share its graph,
    /// preprocessing and plan cache); a request carrying an explicit
    /// coloring is rejected exactly like a solo `estimate`. A twin group
    /// runs with its first member's settings
    /// ([`parallel`](CountRequest::parallel),
    /// [`sharded`](CountRequest::sharded), ranks, observability) — counts
    /// are identical under all of them.
    ///
    /// ```
    /// use sgc_core::Engine;
    /// use sgc_graph::GraphBuilder;
    /// use sgc_query::catalog;
    ///
    /// let mut b = GraphBuilder::new(6);
    /// b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
    /// let graph = b.build();
    /// let engine = Engine::new(&graph);
    ///
    /// let queries = [catalog::triangle(), catalog::cycle(4)];
    /// let requests: Vec<_> = queries
    ///     .iter()
    ///     .map(|q| engine.count(q).trials(8).seed(7))
    ///     .collect();
    /// let batch = engine.count_batch(&requests).unwrap();
    ///
    /// // Bit-identical to the solo runs.
    /// for (query, estimate) in queries.iter().zip(&batch.estimates) {
    ///     let solo = engine.count(query).trials(8).seed(7).estimate().unwrap();
    ///     assert_eq!(estimate.per_trial, solo.per_trial);
    /// }
    /// ```
    ///
    /// # Errors
    /// [`SgcError::EngineMismatch`] for a request built by another engine,
    /// [`SgcError::ColoringWithEstimate`] for an explicit coloring,
    /// [`SgcError::ZeroTrials`] / [`SgcError::ZeroRanks`] /
    /// [`SgcError::ZeroShards`] for zero trials, ranks or shards, plus the
    /// planning errors of [`run`](CountRequest::run).
    pub fn count_batch<'a>(
        &self,
        requests: &[CountRequest<'_, 'g, 'a>],
    ) -> Result<crate::batch::BatchResult, SgcError> {
        crate::batch::execute(self, requests)
    }

    /// Runs one job through the block-step executor on this engine's graph,
    /// preprocessing and arena pool.
    fn execute(&self, job: &Job<'_>, shards: Option<usize>) -> Result<CountResult, SgcError> {
        execute(&self.graph, &self.prep, job, shards, &self.arena_pool)
    }

    fn request<'e, 'a>(&'e self, query: Cow<'a, QueryGraph>) -> CountRequest<'e, 'g, 'a> {
        CountRequest {
            engine: self,
            query,
            algorithm: Algorithm::DegreeBased,
            num_ranks: 64,
            coloring: None,
            plan: None,
            trials: 3,
            seed: 0x5eed,
            parallel: true,
            shards: None,
            obs: true,
            recount: None,
        }
    }
}

/// Either a caller-supplied plan or a cache-owned one.
enum PlanRef<'a> {
    Borrowed(&'a DecompositionTree),
    Cached(Arc<DecompositionTree>),
}

impl std::ops::Deref for PlanRef<'_> {
    type Target = DecompositionTree;

    fn deref(&self) -> &DecompositionTree {
        match self {
            PlanRef::Borrowed(tree) => tree,
            PlanRef::Cached(tree) => tree,
        }
    }
}

/// A builder for one counting or estimation request.
///
/// Created by [`Engine::count`]; terminated by [`run`](CountRequest::run)
/// (one exact colorful count) or [`estimate`](CountRequest::estimate)
/// (multi-trial approximate counting).
#[must_use = "a CountRequest does nothing until .run() or .estimate() is called"]
pub struct CountRequest<'e, 'g, 'a> {
    pub(crate) engine: &'e Engine<'g>,
    pub(crate) query: Cow<'a, QueryGraph>,
    pub(crate) algorithm: Algorithm,
    num_ranks: usize,
    coloring: Option<&'a Coloring>,
    plan: Option<&'a DecompositionTree>,
    pub(crate) trials: usize,
    pub(crate) seed: u64,
    parallel: bool,
    shards: Option<usize>,
    obs: bool,
    recount: Option<(&'a [Count], &'a DeltaBall)>,
}

impl<'e, 'g, 'a> CountRequest<'e, 'g, 'a> {
    /// Selects the cycle-solving algorithm (default: Degree Based).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the number of simulated ranks for load attribution (default:
    /// 64). Zero is rejected at run time with [`SgcError::ZeroRanks`].
    pub fn ranks(mut self, num_ranks: usize) -> Self {
        self.num_ranks = num_ranks;
        self
    }

    /// Enables or disables observability for this request (default: on):
    /// stage spans on the threads that execute the
    /// run and publication of run counters into the `sgc-obs` registry.
    /// Counts are bit-identical either way — observability reads, never
    /// branches, the DP.
    pub fn obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }

    /// Uses an explicit coloring for [`run`](CountRequest::run) instead of a
    /// seeded random one. Incompatible with
    /// [`estimate`](CountRequest::estimate), which draws its own per-trial
    /// colorings and rejects the combination with
    /// [`SgcError::ColoringWithEstimate`].
    pub fn coloring(mut self, coloring: &'a Coloring) -> Self {
        self.coloring = Some(coloring);
        self
    }

    /// Uses an explicit decomposition plan instead of the engine's cached
    /// heuristic plan. The plan must decompose the same query.
    pub fn plan(mut self, plan: &'a DecompositionTree) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Number of independent random colorings for
    /// [`estimate`](CountRequest::estimate) (default 3).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Base RNG seed. Trial `i` always colors with `seed + i`, regardless of
    /// how trials are scheduled over threads.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables trial-level parallelism for
    /// [`estimate`](CountRequest::estimate) (default on). It spreads only
    /// unsharded trials: a [`sharded`](CountRequest::sharded) request
    /// parallelises within each trial instead. The estimate is
    /// bit-identical either way; this only exists for measurement and tests.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Routes the request through the sharded rank-runtime: the data graph's
    /// vertices are block-partitioned into `num_shards` shards, each shard
    /// solves every block of the plan over the paths starting in its own
    /// vertex range on a worker thread, and the per-shard partial-sum tables
    /// are combined in an explicit exchange round per block
    /// ([`runtime`](crate::runtime), mirroring the paper's rank model and
    /// alltoall, Sections 5–7).
    ///
    /// The count is **bit-identical** to the unsharded path for every shard
    /// count ≥ 1; what changes is the execution (real per-shard parallelism)
    /// and the metrics: the result's
    /// [`RunMetrics::shards`](crate::RunMetrics::shards) reports what each
    /// shard actually did. Zero shards is rejected at run time with
    /// [`SgcError::ZeroShards`].
    ///
    /// Every trial of an [`estimate`](CountRequest::estimate) is sharded
    /// too; the trials then run in order on the calling thread, whatever
    /// [`parallel`](CountRequest::parallel) says.
    ///
    /// ```
    /// use sgc_core::Engine;
    /// use sgc_graph::GraphBuilder;
    /// use sgc_query::catalog;
    ///
    /// let mut b = GraphBuilder::new(5);
    /// b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
    /// let graph = b.build();
    /// let engine = Engine::new(&graph);
    ///
    /// let serial = engine.count(&catalog::triangle()).seed(3).run().unwrap();
    /// let sharded = engine
    ///     .count(&catalog::triangle())
    ///     .seed(3)
    ///     .sharded(4)
    ///     .run()
    ///     .unwrap();
    /// assert_eq!(sharded.colorful_matches, serial.colorful_matches);
    ///
    /// let shards = sharded.metrics.shards.expect("sharded runs report shard metrics");
    /// assert_eq!(shards.num_shards(), 4);
    /// assert!(shards.imbalance() >= 1.0);
    /// ```
    pub fn sharded(mut self, num_shards: usize) -> Self {
        self.shards = Some(num_shards);
        self
    }

    /// Counts the trials `parent` holds from `ball` instead of the whole
    /// graph: trial `i < parent.len()` is `parent[i]` minus the ball's count
    /// before the delta plus its count after it (see [`ball`](crate::ball)).
    /// `parent` must hold this request's per-trial counts (same query,
    /// algorithm and seed) on the graph before the delta. The trials past
    /// `parent` count the whole graph on this engine, which must then be
    /// bound to the graph after the delta; for the trials `parent` holds the
    /// engine lends only its plan cache and arenas. Applies to the trials of
    /// [`estimate`](CountRequest::estimate) and
    /// [`estimate_incremental`](CountRequest::estimate_incremental); like
    /// [`trials`](CountRequest::trials), [`run`](CountRequest::run) ignores
    /// it. The counts are those of a request without it, bit for bit.
    pub fn recount(mut self, parent: &'a [Count], ball: &'a DeltaBall) -> Self {
        self.recount = Some((parent, ball));
        self
    }

    fn resolve_plan(&self) -> Result<PlanRef<'a>, SgcError> {
        match self.plan {
            Some(tree) => {
                // Same canonical form as the cache key, so "is this plan for
                // this query" and "would the cache treat these queries as
                // equal" can never diverge.
                if canonical_key(&tree.query) != canonical_key(&self.query) {
                    return Err(SgcError::PlanQueryMismatch {
                        query_nodes: self.query.num_nodes(),
                        plan_nodes: tree.query.num_nodes(),
                        query_edges: self.query.num_edges(),
                        plan_edges: tree.query.num_edges(),
                    });
                }
                Ok(PlanRef::Borrowed(tree))
            }
            None => Ok(PlanRef::Cached(self.engine.plan(&self.query)?)),
        }
    }

    /// Runs one colorful count under the request's coloring (explicit via
    /// [`coloring`](CountRequest::coloring), or a random one drawn from
    /// [`seed`](CountRequest::seed)).
    ///
    /// # Errors
    /// [`SgcError::Query`] for unplannable queries,
    /// [`SgcError::PlanQueryMismatch`] for a plan of a different query,
    /// [`SgcError::WrongColorCount`] / [`SgcError::ColoringSizeMismatch`]
    /// for an unusable coloring, [`SgcError::ZeroRanks`] for a zero rank
    /// count, and [`SgcError::ZeroShards`] for a sharded request with zero
    /// shards.
    pub fn run(mut self) -> Result<CountResult, SgcError> {
        // A disabled request suspends span recording on this thread for the
        // whole run; the fan-outs' workers inherit the suspension.
        let _pause = (!self.obs).then(sgc_obs::suspend);
        // Like `trials`, a recount applies to estimates only.
        self.recount = None;
        let plan = self.resolve_plan()?;
        self.trial(&plan, 0)
    }

    /// Trial `trial` of this request on `plan`: the one per-trial path of
    /// [`run`](CountRequest::run) and of every [`TrialStream`] chunk. It
    /// draws the trial's coloring (the explicit one; else seeded
    /// `seed + trial`, restricted to the ball for a trial the
    /// [`recount`](CountRequest::recount) parent holds), builds the job,
    /// recounts the ball or counts the whole graph over the request's
    /// shards, and publishes the run's metrics when observability is on.
    fn trial(&self, plan: &DecompositionTree, trial: usize) -> Result<CountResult, SgcError> {
        let k = plan.query.num_nodes();
        let seed = self.seed.wrapping_add(trial as u64);
        let ball = self
            .recount
            .filter(|(parent, _)| trial < parent.len())
            .map(|(parent, ball)| (parent[trial], ball));
        let drawn;
        let coloring = match self.coloring {
            Some(coloring) if coloring.num_colors() != k => {
                return Err(SgcError::WrongColorCount {
                    expected: k,
                    actual: coloring.num_colors(),
                })
            }
            Some(coloring) => coloring,
            None => {
                let _span = sgc_obs::span(sgc_obs::Stage::Coloring);
                drawn = match ball {
                    Some((_, ball)) => ball.coloring(k, seed),
                    None => Coloring::random(self.engine.graph().num_vertices(), k, seed),
                };
                &drawn
            }
        };
        let job = Job {
            coloring,
            plan,
            algorithm: self.algorithm,
            num_ranks: self.num_ranks,
        };
        let result = match ball {
            Some((parent, ball)) => ball.recount(parent, &job, &self.engine.arena_pool),
            None => self.engine.execute(&job, self.shards)?,
        };
        if sgc_obs::enabled() {
            result.metrics.publish();
        }
        Ok(result)
    }

    /// Runs `trials` independent colorful counts (trial `i` colored with
    /// `seed + i`) and scales them into an estimate of the match count.
    ///
    /// Trials run in parallel over the current thread pool unless
    /// [`parallel(false)`](CountRequest::parallel) or
    /// [`sharded`](CountRequest::sharded) was set: a sharded estimate runs
    /// its trials in order on the calling thread, each one over its shards.
    /// The result is bit-identical in every mode. The engine's
    /// preprocessing is reused by every trial — nothing graph-dependent is
    /// rebuilt.
    ///
    /// ```
    /// use sgc_core::Engine;
    /// use sgc_graph::GraphBuilder;
    /// use sgc_query::catalog;
    ///
    /// let mut b = GraphBuilder::new(4);
    /// b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
    /// let graph = b.build();
    /// let engine = Engine::new(&graph);
    ///
    /// let estimate = engine
    ///     .count(&catalog::triangle())
    ///     .trials(8)
    ///     .seed(1)
    ///     .estimate()
    ///     .unwrap();
    /// assert_eq!(estimate.per_trial.len(), 8);
    /// // Rerunning with the same seed is deterministic.
    /// let again = engine
    ///     .count(&catalog::triangle())
    ///     .trials(8)
    ///     .seed(1)
    ///     .estimate()
    ///     .unwrap();
    /// assert_eq!(estimate.per_trial, again.per_trial);
    /// ```
    ///
    /// # Errors
    /// [`SgcError::ZeroTrials`] for zero trials,
    /// [`SgcError::ColoringWithEstimate`] if an explicit coloring was set,
    /// plus every error [`run`](CountRequest::run) can report except the
    /// coloring-shape ones.
    pub fn estimate(self) -> Result<Estimate, SgcError> {
        if self.trials == 0 {
            return Err(SgcError::ZeroTrials);
        }
        // `estimate` is literally one full chunk of the incremental API:
        // fixed-trial and early-stopped estimation share every line of the
        // trial loop, which is what makes the anytime-consistency contract
        // (stream stopped after `t` trials ≡ batch run of `t` trials) hold
        // by construction.
        let mut stream = self.estimate_incremental()?;
        stream.run_chunk(stream.request.trials);
        stream.estimate()
    }

    /// Starts an incremental estimation: a [`TrialStream`] that runs trials
    /// in caller-controlled chunks and reports the precision of the counts
    /// so far after each, instead of committing to a trial count up front.
    ///
    /// The per-trial determinism contract is unchanged — trial `i` colors
    /// with `seed + i` no matter how the trials are chunked or scheduled —
    /// so an early-stopped stream is *anytime-consistent*: its estimate
    /// after `t` trials is bit-identical to
    /// [`trials(t)`](CountRequest::trials)`.estimate()`. This is the engine
    /// half of adaptive trial scheduling; the `sgc-service` worker loop is
    /// the canonical consumer.
    ///
    /// ```
    /// use sgc_core::Engine;
    /// use sgc_graph::GraphBuilder;
    /// use sgc_query::catalog;
    ///
    /// let mut b = GraphBuilder::new(5);
    /// b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
    /// let graph = b.build();
    /// let engine = Engine::new(&graph);
    /// let triangle = catalog::triangle();
    ///
    /// let mut stream = engine
    ///     .count(&triangle)
    ///     .seed(3)
    ///     .estimate_incremental()
    ///     .unwrap();
    /// while stream.trials_run() < 24 && stream.relative_half_width(0.95) > 0.25 {
    ///     stream.run_chunk(4);
    /// }
    /// let adaptive = stream.estimate().unwrap();
    ///
    /// // Anytime consistency: a batch run of exactly that many trials is
    /// // bit-identical.
    /// let batch = engine
    ///     .count(&triangle)
    ///     .seed(3)
    ///     .trials(adaptive.per_trial.len())
    ///     .estimate()
    ///     .unwrap();
    /// assert_eq!(adaptive.per_trial, batch.per_trial);
    /// assert_eq!(adaptive.estimated_matches, batch.estimated_matches);
    /// ```
    ///
    /// # Errors
    /// [`SgcError::ColoringWithEstimate`] if an explicit coloring was set,
    /// [`SgcError::ZeroRanks`] / [`SgcError::ZeroShards`] for zero ranks or
    /// shards, plus the planning errors of [`run`](CountRequest::run).
    pub fn estimate_incremental(self) -> Result<TrialStream<'e, 'g, 'a>, SgcError> {
        if self.coloring.is_some() {
            return Err(SgcError::ColoringWithEstimate);
        }
        if self.num_ranks == 0 {
            return Err(SgcError::ZeroRanks);
        }
        if self.shards == Some(0) {
            return Err(SgcError::ZeroShards);
        }
        Ok(TrialStream {
            plan: self.resolve_plan()?,
            request: self,
            per_trial: Vec::new(),
            seconds: 0.0,
        })
    }

    /// This request with its query borrowed, for [`Engine::count_batch`]'s
    /// borrowed requests.
    pub(crate) fn reborrow(&self) -> CountRequest<'e, 'g, '_> {
        CountRequest {
            query: Cow::Borrowed(&self.query),
            ..*self
        }
    }
}

/// An in-progress incremental estimation over one engine-bound query: the
/// request it was built from, its resolved plan, and the counts and seconds
/// of the trials run so far.
///
/// Created by [`CountRequest::estimate_incremental`]. Each
/// [`run_chunk`](TrialStream::run_chunk) call executes the next batch of
/// trials (trial `i` always colored with `seed + i`); callers consult
/// [`relative_half_width`](TrialStream::relative_half_width) between chunks
/// and stop as soon as their precision target is met. See
/// [`CountRequest::estimate_incremental`] for the anytime-consistency
/// contract and an example.
#[must_use = "a TrialStream does nothing until run_chunk() is called"]
pub struct TrialStream<'e, 'g, 'a> {
    request: CountRequest<'e, 'g, 'a>,
    plan: PlanRef<'a>,
    per_trial: Vec<Count>,
    seconds: f64,
}

impl TrialStream<'_, '_, '_> {
    /// Runs the next `trials` trials (a no-op for zero).
    ///
    /// A [`sharded`](CountRequest::sharded) request runs them in order on
    /// the calling thread, each one over its shards; any other spreads them
    /// over the current thread pool unless it set
    /// [`parallel(false)`](CountRequest::parallel). Results are
    /// bit-identical either way, and independent of how trials are split
    /// into chunks.
    pub fn run_chunk(&mut self, trials: usize) {
        if trials == 0 {
            return;
        }
        // Chunk-level instrumentation: suspended on this thread for obs-off
        // requests, and on the workers the trials fan out to.
        let _pause = (!self.request.obs).then(sgc_obs::suspend);
        let _chunk_span = sgc_obs::span(sgc_obs::Stage::EstimatorChunk);
        let (request, plan, start) = (&self.request, &*self.plan, self.per_trial.len());
        let run_trial = |offset: usize| {
            let result = request
                .trial(plan, start + offset)
                .expect("engine-drawn colorings always cover the graph");
            (
                result.colorful_matches,
                result.metrics.elapsed.as_secs_f64(),
            )
        };
        let outcomes: Vec<(Count, f64)> = if request.parallel && request.shards.is_none() {
            parallel_indexed(trials, run_trial)
        } else {
            (0..trials).map(run_trial).collect()
        };
        for (count, seconds) in outcomes {
            self.per_trial.push(count);
            self.seconds += seconds;
        }
    }

    /// Number of trials executed so far.
    pub fn trials_run(&self) -> usize {
        self.per_trial.len()
    }

    /// Colorful-match count of every trial executed so far.
    pub fn per_trial(&self) -> &[Count] {
        &self.per_trial
    }

    /// Relative half-width of the confidence interval around the mean of
    /// the counts so far (see [`Estimate::relative_half_width`]) — the
    /// quantity adaptive callers compare against their precision target
    /// after each chunk. `f64::INFINITY` until at least two trials have run.
    pub fn relative_half_width(&self, confidence: f64) -> f64 {
        relative_half_width(&self.per_trial, confidence)
    }

    /// Summarizes the trials executed so far into an [`Estimate`] —
    /// bit-identical to what a batch
    /// [`estimate`](CountRequest::estimate) of exactly
    /// [`trials_run`](TrialStream::trials_run) trials would return.
    ///
    /// # Errors
    /// [`SgcError::ZeroTrials`] if no trials have been run yet.
    pub fn estimate(&self) -> Result<Estimate, SgcError> {
        if self.per_trial.is_empty() {
            return Err(SgcError::ZeroTrials);
        }
        Ok(summarize_trials(
            self.per_trial.clone(),
            &self.plan.query,
            self.seconds,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::prep_build_count;
    use sgc_graph::GraphBuilder;
    use sgc_query::{catalog, decompose, enumerate_plans, QueryError};

    fn demo_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(10);
        b.extend_edges([
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (0, 5),
            (5, 6),
            (6, 1),
            (2, 7),
            (7, 8),
            (8, 3),
            (4, 9),
            (9, 0),
            (5, 2),
            (6, 3),
        ]);
        b.build()
    }

    #[test]
    fn default_is_degree_based() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let query = catalog::triangle();
        let request = engine.count(&query);
        assert_eq!(request.algorithm, Algorithm::DegreeBased);
        assert_eq!(request.num_ranks, 64);
        assert!(request.obs, "observability defaults to on");
    }

    #[test]
    fn engine_counts_match_the_standalone_path() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let query = catalog::triangle();
        let coloring = Coloring::random(g.num_vertices(), 3, 5);
        let via_engine = engine
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap()
            .colorful_matches;
        let expected = crate::brute::count_colorful_matches(&g, &query, &coloring);
        assert_eq!(via_engine, expected);
    }

    #[test]
    fn both_algorithms_agree_through_the_engine() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let query = catalog::glet1();
        let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), 3);
        let ps = engine
            .count(&query)
            .algorithm(Algorithm::PathSplitting)
            .coloring(&coloring)
            .run()
            .unwrap();
        let db = engine
            .count(&query)
            .algorithm(Algorithm::DegreeBased)
            .coloring(&coloring)
            .run()
            .unwrap();
        assert_eq!(ps.colorful_matches, db.colorful_matches);
    }

    #[test]
    fn estimation_reuses_the_preprocessing() {
        let g = demo_graph();
        let engine = Engine::new(&g); // one build
        let before = prep_build_count();
        // Sequential trials keep every (hypothetical) rebuild on this
        // thread, where the thread-local build counter would see it.
        let est = engine
            .count(&catalog::triangle())
            .trials(25)
            .seed(11)
            .parallel(false)
            .estimate()
            .unwrap();
        assert_eq!(est.per_trial.len(), 25);
        assert_eq!(
            prep_build_count() - before,
            0,
            "estimation must not rebuild the graph preprocessing"
        );
    }

    #[test]
    fn plans_are_cached_per_query() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        assert_eq!(engine.cached_plans(), 0);
        let p1 = engine.plan(&catalog::triangle()).unwrap();
        let p2 = engine.plan(&catalog::triangle()).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second lookup must hit the cache");
        assert_eq!(engine.cached_plans(), 1);
        engine.plan(&catalog::cycle(4)).unwrap();
        assert_eq!(engine.cached_plans(), 2);
        // Structurally equal queries built independently share a plan.
        let again = QueryGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let p3 = engine.plan(&again).unwrap();
        assert!(Arc::ptr_eq(&p1, &p3));
        assert_eq!(engine.cached_plans(), 2);
    }

    #[test]
    fn serial_and_parallel_estimates_are_bit_identical() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let query = catalog::triangle();
        let serial = engine
            .count(&query)
            .trials(16)
            .seed(42)
            .parallel(false)
            .estimate()
            .unwrap();
        // Force a 3-thread pool so the parallel path crosses real threads
        // even when the host reports a single CPU.
        let parallel = sgc_engine::parallel::run_with_threads(3, || {
            engine.count(&query).trials(16).seed(42).estimate().unwrap()
        });
        assert_eq!(serial.per_trial, parallel.per_trial);
        assert_eq!(serial.estimated_matches, parallel.estimated_matches);
    }

    /// `.sharded(n)` holds for every trial of an estimate, under the
    /// default `.parallel(true)` too. With one worker thread every shard
    /// solve runs on this thread, so the job's span totals hold one
    /// `dp_block_columnar` span per shard, block and trial.
    #[test]
    fn a_sharded_estimate_shards_every_trial() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let query = catalog::glet1();
        let blocks = engine.plan(&query).unwrap().blocks.len() as u64;
        assert!(blocks > 1, "a plan of several blocks");
        let plain = engine.count(&query).trials(3).estimate().unwrap();
        let (sharded, spans) = sgc_engine::parallel::run_with_threads(1, || {
            sgc_obs::start_job();
            let sharded = engine.count(&query).sharded(2).trials(3).estimate();
            (sharded.unwrap(), sgc_obs::end_job())
        });
        let solves = spans.count(sgc_obs::Stage::DpBlockColumnar);
        assert_eq!(solves, 2 * blocks * 3);
        assert_eq!(sharded.per_trial, plain.per_trial);
    }

    /// A recounting request answers the parent's trials from the ball and
    /// the rest from the whole graph; either way, serial or parallel, it
    /// counts what a plain request counts.
    #[test]
    fn a_recounting_request_counts_what_a_plain_one_counts() {
        let old = demo_graph();
        let mut b = GraphBuilder::new(old.num_vertices());
        b.extend_edges(old.edges());
        b.add_edge(1, 8);
        let new = b.build();
        let query = catalog::cycle(4);
        let estimate = |engine: &Engine<'_>, trials| {
            let request = engine.count(&query).trials(trials).seed(9);
            request.estimate().unwrap().per_trial
        };
        let parent = estimate(&Engine::new(&old), 4);
        let ball = DeltaBall::new(
            |v| old.neighbors(v),
            |v| new.neighbors(v),
            [(1, 8)],
            query.num_nodes(),
        );
        let engine = Engine::new(&new);
        let plain = estimate(&engine, 6);
        for parallel in [false, true] {
            let request = engine.count(&query).trials(6).seed(9).parallel(parallel);
            let recounted = request.recount(&parent, &ball).estimate().unwrap();
            assert_eq!(recounted.per_trial, plain, "parallel {parallel}");
        }
        // The parent's four trials really come from the parent's counts.
        let shifted: Vec<Count> = parent.iter().map(|count| count + 1).collect();
        let request = engine.count(&query).trials(6).seed(9);
        let off = request
            .recount(&shifted, &ball)
            .estimate()
            .unwrap()
            .per_trial;
        let plus_one: Vec<Count> = plain[..4].iter().map(|count| count + 1).collect();
        assert_eq!((&off[..4], &off[4..]), (&plus_one[..], &plain[4..]));
    }

    #[test]
    fn explicit_plans_are_honored_and_validated() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let query = catalog::cycle(4);
        let coloring = Coloring::random(g.num_vertices(), query.num_nodes(), 2);
        let reference = engine
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap()
            .colorful_matches;
        for plan in enumerate_plans(&query).unwrap() {
            let got = engine
                .count(&query)
                .plan(&plan)
                .coloring(&coloring)
                .run()
                .unwrap()
                .colorful_matches;
            assert_eq!(got, reference);
        }
        // A plan for a different query is rejected.
        let wrong = decompose(&catalog::triangle()).unwrap();
        let err = engine
            .count(&query)
            .plan(&wrong)
            .coloring(&coloring)
            .run()
            .unwrap_err();
        assert!(matches!(err, SgcError::PlanQueryMismatch { .. }));
    }

    #[test]
    fn error_paths_return_typed_errors() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let triangle = catalog::triangle();

        // Wrong number of colors for the query.
        let two_colors = Coloring::random(g.num_vertices(), 2, 0);
        assert_eq!(
            engine
                .count(&triangle)
                .coloring(&two_colors)
                .run()
                .unwrap_err(),
            SgcError::WrongColorCount {
                expected: 3,
                actual: 2
            }
        );

        // Coloring that does not cover the graph.
        let short = Coloring::from_colors(vec![0, 1, 2], 3);
        assert!(matches!(
            engine.count(&triangle).coloring(&short).run(),
            Err(SgcError::ColoringSizeMismatch { .. })
        ));

        // Zero trials and zero ranks.
        assert_eq!(
            engine.count(&triangle).trials(0).estimate().unwrap_err(),
            SgcError::ZeroTrials
        );
        assert_eq!(
            engine.count(&triangle).ranks(0).estimate().unwrap_err(),
            SgcError::ZeroRanks
        );
        assert!(matches!(
            engine.count(&triangle).ranks(0).run(),
            Err(SgcError::ZeroRanks)
        ));

        // Treewidth > 2 queries are rejected, not panicked on.
        let mut k4 = QueryGraph::new(4);
        for a in 0..4u8 {
            for b in (a + 1)..4 {
                k4.add_edge(a, b).unwrap();
            }
        }
        assert_eq!(
            engine.count(&k4).run().unwrap_err(),
            SgcError::Query(QueryError::TreewidthExceeded)
        );
    }

    #[test]
    fn shared_and_borrowed_engines_are_interchangeable() {
        let g = demo_graph();
        let borrowed = Engine::new(&g);
        let shared = Engine::from_shared(Arc::new(g.clone()));
        let query = catalog::triangle();
        let a = borrowed.count(&query).trials(8).seed(3).estimate().unwrap();
        let b = shared.count(&query).trials(8).seed(3).estimate().unwrap();
        assert_eq!(a.per_trial, b.per_trial);
        assert_eq!(
            borrowed
                .count(&query)
                .seed(1)
                .run()
                .unwrap()
                .colorful_matches,
            shared.count(&query).seed(1).run().unwrap().colorful_matches
        );
        // The shared engine is 'static: it can move into a spawned thread.
        let moved = std::thread::spawn(move || {
            shared
                .count(&catalog::triangle())
                .seed(1)
                .run()
                .unwrap()
                .colorful_matches
        })
        .join()
        .unwrap();
        assert_eq!(
            moved,
            borrowed
                .count(&query)
                .seed(1)
                .run()
                .unwrap()
                .colorful_matches
        );
    }

    #[test]
    fn incremental_chunking_is_invariant_and_anytime_consistent() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let query = catalog::cycle(4);
        let batch = engine.count(&query).trials(11).seed(77).estimate().unwrap();
        // 3 + 5 + 3 trials through the stream: same per-trial counts, same
        // estimate, regardless of the chunk boundaries.
        let mut stream = engine
            .count(&query)
            .seed(77)
            .estimate_incremental()
            .unwrap();
        stream.run_chunk(3);
        stream.run_chunk(5);
        assert_eq!(stream.trials_run(), 8);
        assert_eq!(stream.per_trial(), &batch.per_trial[..8]);
        // A prefix estimate equals a batch run of exactly that length.
        let prefix = stream.estimate().unwrap();
        let batch8 = engine.count(&query).trials(8).seed(77).estimate().unwrap();
        assert_eq!(prefix.per_trial, batch8.per_trial);
        assert_eq!(prefix.estimated_matches, batch8.estimated_matches);
        stream.run_chunk(3);
        let full = stream.estimate().unwrap();
        assert_eq!(full.per_trial, batch.per_trial);
        assert_eq!(full.estimated_matches, batch.estimated_matches);
        // The stream's statistics are the batch summary's, bit for bit.
        assert_eq!(full.mean_colorful.to_bits(), batch.mean_colorful.to_bits());
        assert_eq!(full.variance.to_bits(), batch.variance.to_bits());
        assert_eq!(
            stream.relative_half_width(0.95).to_bits(),
            batch.relative_half_width(0.95).to_bits()
        );
    }

    #[test]
    fn empty_stream_reports_zero_trials_and_infinite_width() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let triangle = catalog::triangle();
        let stream = engine.count(&triangle).estimate_incremental().unwrap();
        assert_eq!(stream.trials_run(), 0);
        assert_eq!(stream.relative_half_width(0.95), f64::INFINITY);
        assert_eq!(stream.estimate().unwrap_err(), SgcError::ZeroTrials);
        // Validation errors surface at stream construction.
        assert_eq!(
            engine
                .count(&catalog::triangle())
                .ranks(0)
                .estimate_incremental()
                .err(),
            Some(SgcError::ZeroRanks)
        );
        let coloring = Coloring::random(g.num_vertices(), 3, 0);
        assert_eq!(
            engine
                .count(&catalog::triangle())
                .coloring(&coloring)
                .estimate_incremental()
                .err(),
            Some(SgcError::ColoringWithEstimate)
        );
    }

    #[test]
    fn run_without_an_explicit_coloring_is_seeded_and_deterministic() {
        let g = demo_graph();
        let engine = Engine::new(&g);
        let query = catalog::triangle();
        let a = engine.count(&query).seed(9).run().unwrap().colorful_matches;
        let b = engine.count(&query).seed(9).run().unwrap().colorful_matches;
        assert_eq!(a, b);
        let coloring = Coloring::random(g.num_vertices(), 3, 9);
        let explicit = engine
            .count(&query)
            .coloring(&coloring)
            .run()
            .unwrap()
            .colorful_matches;
        assert_eq!(a, explicit);
    }
}
