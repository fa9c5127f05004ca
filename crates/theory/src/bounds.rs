//! Closed-form moment bounds of Theorem 9.1.
//!
//! With `2m = Σ d_u`:
//!
//! * Lemma 9.5 (lower bound):
//!   `E[Y(q)] ≥ (1 − o(1)) · (1/q) · (2m)^{3−q} · (Σ d_u²)^{q−2}`,
//! * Lemma 9.6 (upper bound):
//!   `E[X(q)] ≤ C · (2m)^{2−q} · (Σ d_u^{2−1/(q−1)})^{q−1}`.
//!
//! These are evaluated on a concrete (expected) degree sequence so they can
//! be compared against the measured `X(q)` / `Y(q)` counts on sampled
//! Chung-Lu graphs.

/// Sum of `d_u^s` over the degree sequence.
pub fn moment(degrees: &[f64], s: f64) -> f64 {
    degrees.iter().map(|&d| d.powf(s)).sum()
}

/// Twice the number of edges, `2m = Σ d_u`.
pub fn two_m(degrees: &[f64]) -> f64 {
    degrees.iter().sum()
}

/// The Lemma 9.5 lower bound on `E[Y(q)]` (without the `1 − o(1)` factor).
pub fn y_lower_bound(degrees: &[f64], q: usize) -> f64 {
    assert!(q >= 3, "the bounds are stated for q >= 3");
    let m2 = two_m(degrees);
    let d2 = moment(degrees, 2.0);
    (1.0 / q as f64) * m2.powi(3 - q as i32) * d2.powi(q as i32 - 2)
}

/// The Lemma 9.6 upper bound on `E[X(q)]` with `C = 1` (the constant is
/// absorbed when comparing growth rates).
pub fn x_upper_bound(degrees: &[f64], q: usize) -> f64 {
    assert!(q >= 3, "the bounds are stated for q >= 3");
    let m2 = two_m(degrees);
    let exponent = 2.0 - 1.0 / (q as f64 - 1.0);
    let dm = moment(degrees, exponent);
    m2.powi(2 - q as i32) * dm.powi(q as i32 - 1)
}

/// The ratio `x_upper_bound / y_lower_bound`; Lemma 9.7 shows it is `O(1)`
/// for balanced sequences and Lemma 9.8 / Corollary 9.9 show it is `o(1)`
/// (polynomially small) for truncated power-law sequences.
pub fn bound_ratio(degrees: &[f64], q: usize) -> f64 {
    x_upper_bound(degrees, q) / y_lower_bound(degrees, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_gen::power_law::power_law_degrees;

    #[test]
    fn moments_and_two_m() {
        let d = vec![1.0, 2.0, 3.0];
        assert!((two_m(&d) - 6.0).abs() < 1e-12);
        assert!((moment(&d, 2.0) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_on_a_regular_sequence() {
        // Regular degree d on n nodes: Y(q) bound = (1/q) (nd)^{3-q} (nd²)^{q-2}
        // = (1/q) n d^{q-1}; X(q) bound = (nd)^{2-q} (n d^{2-1/(q-1)})^{q-1}
        // = n d^{q-2+... } — for a regular sequence the two are within a
        // factor q of each other (Lemma 9.7 with lambda = 1/n … ≤ 1).
        let d = vec![4.0; 1000];
        for q in 3..6 {
            let ratio = bound_ratio(&d, q);
            assert!(
                ratio <= q as f64 + 1e-9,
                "regular-sequence ratio {ratio} should be at most q = {q}"
            );
            assert!(ratio > 0.0);
        }
    }

    #[test]
    fn power_law_sequences_give_polynomially_smaller_x_bound() {
        // Corollary 9.9: the X bound should shrink relative to the Y bound as
        // n grows, for alpha in (1, 2).
        let alpha = 1.5;
        let small = power_law_degrees(1 << 10, alpha);
        let large = power_law_degrees(1 << 16, alpha);
        for q in [3usize, 4] {
            let r_small = bound_ratio(&small, q);
            let r_large = bound_ratio(&large, q);
            assert!(
                r_large < r_small,
                "q={q}: ratio should decrease with n (got {r_small} -> {r_large})"
            );
        }
    }

    #[test]
    fn y_bound_grows_with_q_on_skewed_sequences() {
        // Remark 9.2: both bounds are monotone in q when Σd² ≥ Σd.
        let d = power_law_degrees(4096, 1.4);
        assert!(y_lower_bound(&d, 4) > y_lower_bound(&d, 3));
        assert!(x_upper_bound(&d, 4) > x_upper_bound(&d, 3));
    }

    #[test]
    #[should_panic]
    fn bounds_require_q_at_least_three() {
        let _ = y_lower_bound(&[1.0, 2.0], 2);
    }
}
