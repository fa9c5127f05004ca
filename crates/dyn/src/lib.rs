//! # sgc-dyn — versioned graphs and delta-aware incremental recount
//!
//! The rest of the workspace treats the data graph as immutable: build a
//! [`CsrGraph`](sgc_graph::CsrGraph), count against it forever. This crate
//! makes the graph *mutable without giving that up*: every edge
//! insert/delete batch ([`EdgeDelta`](sgc_graph::EdgeDelta)) produces a new
//! immutable copy-on-write snapshot, identified by a [`VersionId`], and
//! counting always targets a specific version. Three pieces:
//!
//! * [`VersionedGraph`] — the version chain. Applying a delta to a parent
//!   version yields a child whose id is `parent ⊕ delta.digest()` and which
//!   shares every untouched CSR segment with its parent. A version is
//!   counted through an [`Engine`](sgc_core::Engine) bound to its
//!   materialized graph on first use (memoized); the root's may come bound
//!   (the service's own engine), and every other version's is a rebind of
//!   the root's, sharing its plan cache and arena pool.
//! * [`PartialStore`] — a bounded LRU store of per-trial, per-shard partial
//!   sums ([`TrialPartials`](sgc_core::TrialPartials)) keyed by
//!   `(version, plan, algorithm, coloring seed, shards)`.
//! * [`StoreAt`] — the store seen from one version. Its
//!   [`count`](StoreAt::count) is an engine request on that version's
//!   engine carrying the store's [`Retention`](sgc_core::Retention), this
//!   crate's only one. A trial whose parent-version partials are in the store
//!   recomputes only the shards within the delta's invalidation ball
//!   ([`dirty_shards`](sgc_core::dirty_shards)) and **replays** the rest —
//!   with the hard contract that the per-trial counts are bit-identical to
//!   a from-scratch run on the new snapshot (per-trial colorful counts are
//!   exact given a coloring, and colorings depend only on
//!   `(num_vertices, colors, seed + trial)`, which edge deltas never
//!   change). The trials themselves run in the engine's one trial loop.
//!
//! `sgc-service` builds its `apply_delta` / `count_at` / `watch` jobs on
//! top of this crate; `sgc-net` exposes them as protocol-v3 verbs.

pub mod store;
pub mod version;

pub use store::{PartialKey, PartialStore, StoreAt, StoreStats, DEFAULT_STORE_CAPACITY_BYTES};
pub use version::{DynError, VersionId, VersionedGraph};
