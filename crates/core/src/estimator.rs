//! Approximate subgraph counting via repeated random colorings.
//!
//! Section 2 of the paper: for a `k`-node query, one random coloring gives a
//! colorful count whose expectation, scaled by `k^k / k!`, equals the true
//! number of matches. Averaging over independent colorings reduces the
//! variance; Figure 15 evaluates the precision by the coefficient of
//! variation of the per-trial estimates over 3 and 10 trials.
//!
//! The estimation loop itself lives in
//! [`CountRequest::estimate`](crate::CountRequest::estimate) (and its
//! incremental form, [`TrialStream`](crate::engine::TrialStream)); this
//! module holds the statistics of the per-trial counts: [`Estimate`],
//! [`scaling_factor`], and the one precision statistic adaptive callers
//! stop on, [`Estimate::relative_half_width`] (which
//! [`TrialStream::relative_half_width`](crate::engine::TrialStream::relative_half_width)
//! computes on the counts so far).

use sgc_engine::Count;
use sgc_query::automorphism::count_automorphisms;
use sgc_query::QueryGraph;

/// The result of an estimation run.
#[derive(Clone, Debug)]
pub struct Estimate {
    /// Colorful-match count of every trial.
    pub per_trial: Vec<Count>,
    /// Mean colorful count over the trials.
    pub mean_colorful: f64,
    /// The `k^k / k!` scaling factor applied to colorful counts.
    pub scale: f64,
    /// Estimated number of matches (injective mappings), `scale × mean`.
    pub estimated_matches: f64,
    /// Estimated number of subgraphs, `estimated_matches / aut(Q)`.
    pub estimated_subgraphs: f64,
    /// Number of automorphisms of the query.
    pub automorphisms: u64,
    /// Unbiased sample variance of the per-trial colorful counts.
    pub variance: f64,
    /// Coefficient of variation of the per-trial counts (standard deviation
    /// divided by the mean) — the precision metric plotted in Figure 15.
    pub coefficient_of_variation: f64,
    /// Total elapsed time across trials, in seconds.
    pub total_seconds: f64,
}

impl Estimate {
    /// Unbiased sample standard deviation of the per-trial colorful counts
    /// (the square root of [`variance`](Estimate::variance)).
    pub fn sample_std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Relative half-width of the normal-approximation confidence interval
    /// around the estimate: `z(confidence) · s / (√n · mean)`.
    ///
    /// This is the per-trial precision signal the counting service's
    /// adaptive scheduler stops on, exposed here so batch callers of
    /// [`estimate`](crate::CountRequest::estimate) can apply the same
    /// criterion after the fact. Because the `k^k/k!` scaling is a constant
    /// factor, the relative width is identical whether measured on the mean
    /// colorful count or on the scaled match estimate.
    ///
    /// Returns `0.0` when every trial produced the same *positive* count
    /// (the interval has collapsed) and `f64::INFINITY` when fewer than two
    /// trials were run or the mean is not positive — the latter includes
    /// the all-zero case, where a run of zero counts on a rare subgraph is
    /// "no information yet", not "precise zero".
    pub fn relative_half_width(&self, confidence: f64) -> f64 {
        relative_half_width(&self.per_trial, confidence)
    }
}

/// The precision statistic of the counts `per_trial`, behind both
/// [`Estimate::relative_half_width`] and
/// [`TrialStream::relative_half_width`](crate::engine::TrialStream::relative_half_width):
/// the mean and the sum of squared deviations by Welford's recurrence in
/// trial order, then `z(confidence) · s / √n / mean`, with the degenerate
/// cases ordered so that a stop decision stays sound.
pub(crate) fn relative_half_width(per_trial: &[Count], confidence: f64) -> f64 {
    let (mut n, mut mean, mut m2) = (0u64, 0.0f64, 0.0f64);
    for &count in per_trial {
        let value = count as f64;
        n += 1;
        let delta = value - mean;
        mean += delta / n as f64;
        m2 += delta * (value - mean);
    }
    if n < 2 || mean <= 0.0 {
        return f64::INFINITY;
    }
    if m2 == 0.0 {
        return 0.0;
    }
    let standard_error = (m2 / (n - 1) as f64).sqrt() / (n as f64).sqrt();
    z_for_confidence(confidence) * standard_error / mean
}

/// The two-sided critical value `z` with `P(|N(0,1)| ≤ z) = confidence`.
///
/// `confidence` is clamped to `(0, 1)`; e.g. `0.95` gives `z ≈ 1.96`.
pub fn z_for_confidence(confidence: f64) -> f64 {
    let confidence = confidence.clamp(1e-9, 1.0 - 1e-9);
    normal_quantile(0.5 + confidence / 2.0)
}

/// Inverse standard normal CDF `Φ⁻¹(p)` for `p ∈ (0, 1)`, via Acklam's
/// rational approximation (absolute error below `1.2e-9` — far finer than
/// anything a trial-count stopping rule can resolve).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile needs p in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The `k^k / k!` factor that makes the colorful count an unbiased estimator
/// of the match count (Section 2).
pub fn scaling_factor(k: usize) -> f64 {
    let k_f = k as f64;
    let mut factor = 1.0;
    for i in 1..=k {
        factor *= k_f / i as f64;
    }
    factor
}

/// Folds per-trial colorful counts into the scaled estimate and its
/// precision statistics.
///
/// Public so callers that hold per-trial counts (the service's adaptive
/// loop, between chunks) can turn them into estimates that are
/// bit-identical to what [`Engine`](crate::Engine) would produce from the
/// same trials.
pub fn summarize_trials(per_trial: Vec<Count>, query: &QueryGraph, total_seconds: f64) -> Estimate {
    let k = query.num_nodes();
    let n = per_trial.len() as f64;
    let mean = per_trial.iter().map(|&c| c as f64).sum::<f64>() / n;
    let variance = if per_trial.len() > 1 {
        per_trial
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0)
    } else {
        0.0
    };
    let coefficient_of_variation = if mean > 0.0 {
        variance.sqrt() / mean
    } else {
        0.0
    };
    let scale = scaling_factor(k);
    let automorphisms = count_automorphisms(query).max(1);
    let estimated_matches = scale * mean;
    Estimate {
        per_trial,
        mean_colorful: mean,
        scale,
        estimated_matches,
        estimated_subgraphs: estimated_matches / automorphisms as f64,
        automorphisms,
        variance,
        coefficient_of_variation,
        total_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::count_matches;
    use crate::engine::Engine;
    use crate::error::SgcError;
    use sgc_graph::GraphBuilder;
    use sgc_query::catalog;

    #[test]
    fn scaling_factor_values() {
        assert!((scaling_factor(1) - 1.0).abs() < 1e-12);
        assert!((scaling_factor(2) - 2.0).abs() < 1e-12);
        assert!((scaling_factor(3) - 4.5).abs() < 1e-12);
        // k=10: 10^10 / 10! ≈ 2755.73
        assert!((scaling_factor(10) - 2755.731922).abs() < 1e-3);
    }

    #[test]
    fn estimator_converges_to_brute_force_on_a_small_graph() {
        // Small random-ish graph where brute force is exact.
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
        let g = b.build();
        let query = catalog::triangle();
        let exact = count_matches(&g, &query) as f64;
        let est = Engine::new(&g)
            .count(&query)
            .trials(400)
            .seed(11)
            .estimate()
            .unwrap();
        // 400 trials of a 3-color coding: expect within ~30% of the truth.
        let rel_err = (est.estimated_matches - exact).abs() / exact.max(1.0);
        assert!(
            rel_err < 0.3,
            "estimate {} too far from exact {exact} (rel err {rel_err})",
            est.estimated_matches
        );
        assert_eq!(est.automorphisms, 6);
        assert!(est.coefficient_of_variation >= 0.0);
        assert_eq!(est.per_trial.len(), 400);
    }

    #[test]
    fn variance_is_zero_with_single_trial() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let g = b.build();
        let est = Engine::new(&g)
            .count(&catalog::triangle())
            .trials(1)
            .estimate()
            .unwrap();
        assert_eq!(est.variance, 0.0);
        assert_eq!(est.per_trial.len(), 1);
    }

    #[test]
    fn subgraph_estimate_divides_by_automorphisms() {
        let mut b = GraphBuilder::new(4);
        b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let g = b.build();
        let est = Engine::new(&g)
            .count(&catalog::triangle())
            .estimate()
            .unwrap();
        assert!((est.estimated_subgraphs * 6.0 - est.estimated_matches).abs() < 1e-9);
    }

    #[test]
    fn normal_quantile_hits_textbook_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.995) - 2.575829).abs() < 1e-4);
        // Symmetry and the tail branches.
        assert!((normal_quantile(0.01) + normal_quantile(0.99)).abs() < 1e-9);
        assert!((z_for_confidence(0.95) - 1.959964).abs() < 1e-4);
        assert!((z_for_confidence(0.99) - 2.575829).abs() < 1e-4);
    }

    #[test]
    fn precision_statistic_matches_two_pass_statistics() {
        let samples: [Count; 7] = [3, 7, 7, 19, 24, 4, 11];
        let n = samples.len() as f64;
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        let expected_hw = z_for_confidence(0.95) * var.sqrt() / n.sqrt();
        let width = relative_half_width(&samples, 0.95);
        assert!((width - expected_hw / mean).abs() < 1e-12);
        let estimate = summarize_trials(samples.to_vec(), &catalog::triangle(), 0.0);
        assert!((estimate.mean_colorful - mean).abs() < 1e-12);
        assert!((estimate.variance - var).abs() < 1e-12);
    }

    /// The statistic reproduces the streaming Welford accumulator it
    /// replaced bit for bit; the constants are that accumulator's
    /// `relative_half_width` at 0.5, 0.95 and 0.99 on the same counts.
    #[test]
    fn precision_statistic_is_bit_identical_to_the_streaming_form() {
        let cases: [(&[Count], [u64; 3]); 4] = [
            (
                &[3, 7, 7, 19, 24, 4, 11],
                [0x3fc827ca8333ccfd, 0x3fe18c49a09de3ca, 0x3fe70fdddeba2b6c],
            ),
            (
                &[96, 104, 100, 98, 102],
                [0x3f83890a116299e6, 0x3f9c6220a0766ac5, 0x3fa2a6a7b3a9327d],
            ),
            (
                &[0, 8, 4],
                [0x3fd8ec349ad9cc71, 0x3ff21af9a4c65453, 0x3ff7cb63d223a408],
            ),
            (
                &[
                    1_000_003,
                    999_999_937,
                    123_456_789,
                    987_654_321,
                    55,
                    0,
                    42_424_242,
                ],
                [0x3fd8f392d8d34790, 0x3ff22053ed25c782, 0x3ff7d26cad76ea06],
            ),
        ];
        for (counts, bits) in cases {
            for (confidence, bits) in [0.5, 0.95, 0.99].into_iter().zip(bits) {
                assert_eq!(
                    relative_half_width(counts, confidence).to_bits(),
                    bits,
                    "{counts:?} at {confidence}"
                );
            }
        }
    }

    #[test]
    fn precision_statistic_degenerate_cases_are_safe_for_stopping() {
        // No value or one value: no precision claim.
        assert_eq!(relative_half_width(&[], 0.95), f64::INFINITY);
        assert_eq!(relative_half_width(&[5], 0.95), f64::INFINITY);

        // Identical positive values: collapsed interval, nothing to gain.
        assert_eq!(relative_half_width(&[5, 5, 5], 0.95), 0.0);

        // All-zero counts (the one non-positive mean counts can have): for
        // a rare subgraph an early chunk can be all zeros while the true
        // count is positive — never report "precise zero", so adaptive
        // schedulers keep running the budget.
        assert_eq!(relative_half_width(&[0, 0, 0], 0.95), f64::INFINITY);
    }

    #[test]
    fn estimate_exposes_the_same_precision_signal() {
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
        let g = b.build();
        let engine = Engine::new(&g);
        let triangle = catalog::triangle();
        let request = || engine.count(&triangle).trials(32).seed(5);
        let est = request().estimate().unwrap();
        assert!((est.sample_std_dev() - est.variance.sqrt()).abs() < 1e-12);
        let mut stream = request().estimate_incremental().unwrap();
        stream.run_chunk(32);
        for confidence in [0.95, 0.99] {
            assert_eq!(
                est.relative_half_width(confidence).to_bits(),
                relative_half_width(&est.per_trial, confidence).to_bits()
            );
            assert_eq!(
                stream.relative_half_width(confidence).to_bits(),
                est.relative_half_width(confidence).to_bits()
            );
        }
        // Widening the confidence level widens the interval.
        if est.relative_half_width(0.95).is_finite() && est.relative_half_width(0.95) > 0.0 {
            assert!(est.relative_half_width(0.99) > est.relative_half_width(0.95));
        }
    }

    /// Builds an [`Estimate`] directly from per-trial counts, the way any
    /// trial loop would, so the precision accessors can be unit-tested
    /// without running a counting engine.
    fn estimate_from_counts(per_trial: Vec<Count>) -> Estimate {
        summarize_trials(per_trial, &catalog::triangle(), 0.0)
    }

    #[test]
    fn relative_half_width_matches_the_closed_form() {
        let est = estimate_from_counts(vec![96, 104, 100, 98, 102]);
        let n = 5.0_f64;
        let mean = 100.0_f64;
        let var = [96.0_f64, 104.0, 100.0, 98.0, 102.0]
            .iter()
            .map(|c| (c - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        let expected = z_for_confidence(0.95) * var.sqrt() / (n.sqrt() * mean);
        assert!((est.relative_half_width(0.95) - expected).abs() < 1e-12);
        // Scale invariance: the k^k/k! factor cancels, so the relative
        // width measured on colorful counts equals the one a caller would
        // compute on the scaled match estimate.
        let scaled_expected =
            z_for_confidence(0.95) * (est.scale * var.sqrt()) / (n.sqrt() * est.scale * mean);
        assert!((est.relative_half_width(0.95) - scaled_expected).abs() < 1e-12);
        // Wider confidence, wider interval; collapsed for identical counts.
        assert!(est.relative_half_width(0.99) > est.relative_half_width(0.95));
        let flat = estimate_from_counts(vec![7, 7, 7]);
        assert_eq!(flat.relative_half_width(0.95), 0.0);
    }

    #[test]
    fn relative_half_width_degenerate_cases_stay_unstoppable() {
        // One trial: no variance information, never a finite claim.
        let one = estimate_from_counts(vec![42]);
        assert_eq!(one.relative_half_width(0.95), f64::INFINITY);
        // The zero-count guard: a run of all-zero trials must read as "no
        // information yet" (infinite width), not as a precise zero — this
        // is the estimate-side face of the early-stop rule the service's
        // scheduler relies on for rare subgraphs.
        for trials in [2usize, 5, 32] {
            let zeros = estimate_from_counts(vec![0; trials]);
            assert_eq!(zeros.estimated_matches, 0.0);
            for confidence in [0.5, 0.9, 0.95, 0.99] {
                assert_eq!(
                    zeros.relative_half_width(confidence),
                    f64::INFINITY,
                    "{trials} zero trials at {confidence}"
                );
            }
        }
        // A single zero among positives is fine — the mean is positive.
        let mixed = estimate_from_counts(vec![0, 8, 4]);
        assert!(mixed.relative_half_width(0.95).is_finite());
    }

    #[test]
    fn zero_count_trials_never_early_stop_through_the_stream() {
        // The same guard exercised end-to-end through the incremental
        // estimation path: a triangle query on a triangle-free graph
        // counts zero in every trial, and the stream must keep reporting
        // infinite relative width no matter how many chunks run.
        let mut b = GraphBuilder::new(6);
        b.extend_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let g = b.build();
        let engine = Engine::new(&g);
        let triangle = catalog::triangle();
        let mut stream = engine
            .count(&triangle)
            .seed(3)
            .estimate_incremental()
            .unwrap();
        for _ in 0..4 {
            stream.run_chunk(4);
            assert_eq!(stream.relative_half_width(0.95), f64::INFINITY);
        }
        let est = stream.estimate().unwrap();
        assert!(est.per_trial.iter().all(|&c| c == 0));
        assert_eq!(est.relative_half_width(0.95), f64::INFINITY);
    }

    #[test]
    fn zero_trials_is_an_error_not_a_panic() {
        let g = GraphBuilder::new(3).build();
        let err = Engine::new(&g)
            .count(&catalog::triangle())
            .trials(0)
            .estimate()
            .unwrap_err();
        assert_eq!(err, SgcError::ZeroTrials);
    }
}
