//! # sgc-theory — Section 9/10 analysis machinery
//!
//! The paper complements its experiments with an analysis of cycle queries on
//! Chung-Lu random graphs (Section 9): the simplified PS procedure enumerates
//! paths whose *first node has the highest id* (count `Y(q)`, Equation 2),
//! while the simplified DB procedure enumerates *high-starting* paths whose
//! first node is highest in the degree ordering (count `X(q)`, Equation 3).
//! Theorem 9.1 lower-bounds `E[Y(q)]` and upper-bounds `E[X(q)]` in terms of
//! the degree-sequence moments, and shows `X(q)` is polynomially smaller on
//! truncated power-law sequences.
//!
//! This crate provides:
//!
//! * [`paths`] — exact counters for `X(q)` and `Y(q)` on a concrete graph
//!   (used to validate the bounds empirically),
//! * [`bounds`] — the closed-form bounds of Lemmas 9.5, 9.6 and 9.8 evaluated
//!   on a degree sequence,
//! * [`balanced`] — the λ-balancedness measure of Section 9.2 and the
//!   power-law ⇒ balanced check of Claim 10.1.

#![forbid(unsafe_code)]

pub mod balanced;
pub mod bounds;
pub mod paths;

pub use balanced::balancedness;
pub use bounds::{x_upper_bound, y_lower_bound};
pub use paths::{count_high_starting_paths, count_id_ordered_paths};
