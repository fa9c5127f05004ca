//! # sgc-dyn — versioned graphs and delta-aware incremental recount
//!
//! The rest of the workspace treats the data graph as immutable: build a
//! [`CsrGraph`](sgc_graph::CsrGraph), count against it forever. This crate
//! makes the graph *mutable without giving that up*: every edge
//! insert/delete batch ([`EdgeDelta`](sgc_graph::EdgeDelta)) produces a new
//! immutable copy-on-write snapshot, identified by a [`VersionId`], and
//! counting always targets a specific version. Two pieces:
//!
//! * [`VersionedGraph`] — the version chain. Applying a delta to a parent
//!   version yields a child whose id is `parent ⊕ delta.digest()` and which
//!   shares every untouched CSR segment with its parent. A version is
//!   counted through an [`Engine`](sgc_core::Engine) bound to its
//!   materialized graph on first use (memoized); the root's may come bound
//!   (the service's own engine), and every other version's is a rebind of
//!   the root's, sharing its plan cache and arena pool.
//! * [`VersionedGraph::ball`] — what a version's trials recount instead of
//!   the whole graph: the [`DeltaBall`](sgc_core::DeltaBall) around the
//!   edges changed since an ancestor (its parent, or any version further
//!   up the chain), read off the ancestor's and the version's snapshots.
//!   Given the ancestor's per-trial counts, a request on the version's
//!   engine [`recount`](sgc_core::CountRequest::recount)s each of those
//!   trials from the ball — with the hard contract that the per-trial
//!   counts are bit-identical to a from-scratch run on the new snapshot
//!   (per-trial colorful counts are exact given a coloring, and colorings
//!   depend only on `(num_vertices, colors, seed + trial)`, which edge
//!   deltas never change). The trials themselves run in the engine's one
//!   trial loop, and the ancestor's counts are whatever the caller kept: the
//!   service reads them off its result cache, from the nearest ancestor
//!   that has them. [`Version`] and [`Descent`] carry a version and the
//!   way down to it out of the chain, so a caller holding the chain under
//!   a lock can bind engines and build balls after releasing it.
//!
//! `sgc-service` builds its `apply_delta` / `count_at` / `watch` jobs on
//! top of this crate; `sgc-net` exposes them as protocol-v3 verbs.

#![forbid(unsafe_code)]

pub mod version;

pub use version::{Descent, DynError, Version, VersionId, VersionedGraph};
