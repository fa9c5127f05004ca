//! # sgc-gen — synthetic data-graph generators
//!
//! The paper evaluates on nine SNAP graphs plus a human-brain network
//! (Table 1) and on R-MAT graphs for weak scaling. Those datasets cannot be
//! redistributed here, so this crate provides the generators used to build
//! *synthetic analogs* with the same sizes and degree-distribution skew:
//!
//! * [`mod@chung_lu`] — the Chung-Lu random-graph model (the model analysed in
//!   Section 9 of the paper) with an exact O(n + m) sampler,
//! * [`power_law`] — truncated power-law expected-degree sequences
//!   (Section 9.2's definition),
//! * [`mod@rmat`] — the R-MAT generator with the Graph 500 parameters used for
//!   the weak-scaling study (Section 8.4),
//! * [`erdos_renyi`] — uniform random graphs for baselines and tests,
//! * [`road`] — a low-skew, grid-like generator standing in for roadNetCA,
//! * [`catalog`] — named analogs of each row of Table 1, scalable down to
//!   laptop sizes,
//! * [`small`] — deterministic small graphs (cliques, cycles, Petersen,
//!   Zachary's karate club) for unit tests and examples.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod chung_lu;
pub mod erdos_renyi;
pub mod power_law;
pub mod rmat;
pub mod road;
pub mod small;

pub use catalog::{GraphSpec, TABLE1_ANALOGS};
pub use chung_lu::chung_lu;
pub use erdos_renyi::{gnm, gnp};
pub use power_law::power_law_degrees;
pub use rmat::{rmat, RmatParams};
pub use road::road_like;
