//! Order statistics and the few aggregates the report uses.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the acceptance rule
/// for a benchmark's spread is stated in.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    (q3 - q1) / median(values)
}

/// What a run reports of its latency samples.
#[derive(Default, Clone)]
pub struct LatencySummary {
    pub samples: usize,
    /// `(samples, median)` of every class that has samples, by class index.
    pub class_medians: Vec<(usize, f64)>,
    /// Median latency with every class weighing the same: the geometric
    /// mean of the per-class medians (the plain median with one class).
    pub typical_ms: f64,
    /// The pooled 90th percentile: with equally frequent classes it sits
    /// inside the heaviest class, so it is the tail of the operation mix.
    pub tail_ms: f64,
}

impl LatencySummary {
    /// From `(samples, median)` per class and the tail of the run.
    pub fn new(class_medians: Vec<(usize, f64)>, tail_ms: f64) -> Self {
        let medians: Vec<f64> = class_medians.iter().map(|&(_, m)| m).collect();
        LatencySummary {
            samples: class_medians.iter().map(|&(n, _)| n).sum(),
            typical_ms: geomean(&medians),
            class_medians,
            tail_ms,
        }
    }
}

/// Latency samples grouped by operation class (query or pattern index),
/// kept one by one: for loops whose length does not depend on how fast the
/// program is (a schedule, a few hundred trials or deltas).
#[derive(Default, Clone)]
pub struct Latencies {
    samples: Vec<(usize, f64)>,
}

impl Latencies {
    pub fn push(&mut self, class: usize, ms: f64) {
        self.samples.push((class, ms));
    }

    pub fn extend(&mut self, other: Latencies) {
        self.samples.extend(other.samples);
    }

    pub fn of_class(&self, class: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, ms)| ms)
            .collect()
    }

    pub fn summary(&self) -> LatencySummary {
        let classes = self.samples.iter().map(|(c, _)| c + 1).max().unwrap_or(0);
        let class_medians = (0..classes)
            .map(|c| self.of_class(c))
            .filter(|v| !v.is_empty())
            .map(|v| (v.len(), median(&v)))
            .collect();
        let pooled: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        LatencySummary::new(class_medians, quantile(&pooled, 0.9))
    }
}

/// Latencies counted into fixed buckets, for loops that complete as many
/// operations as the program manages (cache hits at tens of thousands per
/// second): the storage is allocated up front and does not grow with the
/// completion rate, so the harness does not show in `peak_rss_mb`.
///
/// A bucket is the top bits of the sample's `f64` representation: 128
/// buckets per power of two, so a bucket is under 0.8 % wide, far below the
/// run-to-run noise. Quantiles interpolate by rank inside the bucket.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const BUCKET_SHIFT: u32 = 52 - 7;
/// Samples are clamped into 0.1 µs ..= 1000 s.
const HISTOGRAM_RANGE_MS: (f64, f64) = (1e-4, 1e6);

fn bucket_of(ms: f64) -> usize {
    let (low, high) = HISTOGRAM_RANGE_MS;
    let bits = |v: f64| v.to_bits() >> BUCKET_SHIFT;
    // `max` then `min` also sends a NaN to the lowest bucket.
    (bits(ms.max(low).min(high)) - bits(low)) as usize
}

/// The lower edge of `bucket` (the upper edge of the one before it).
fn bucket_edge(bucket: usize) -> f64 {
    let base = HISTOGRAM_RANGE_MS.0.to_bits() >> BUCKET_SHIFT;
    f64::from_bits((base + bucket as u64) << BUCKET_SHIFT)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; bucket_of(HISTOGRAM_RANGE_MS.1) + 1],
            total: 0,
        }
    }
}

impl Histogram {
    pub fn push(&mut self, ms: f64) {
        self.counts[bucket_of(ms)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// The `q`-quantile at the same rank [`quantile`] takes it at; `NaN`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count > 0 && rank < (below + count) as f64 {
                let (lo, hi) = (bucket_edge(bucket), bucket_edge(bucket + 1));
                return lo + (hi - lo) * (rank - below as f64 + 0.5) / count as f64;
            }
            below += count;
        }
        unreachable!("the rank is below the total count")
    }
}

/// One [`Histogram`] per operation class.
#[derive(Clone)]
pub struct ClassHistograms {
    classes: Vec<Histogram>,
}

impl ClassHistograms {
    pub fn new(classes: usize) -> Self {
        ClassHistograms {
            classes: vec![Histogram::default(); classes],
        }
    }

    pub fn push(&mut self, class: usize, ms: f64) {
        self.classes[class].push(ms);
    }

    pub fn merge(&mut self, other: &ClassHistograms) {
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.merge(theirs);
        }
    }

    pub fn pooled(&self) -> Histogram {
        let mut all = Histogram::default();
        self.classes.iter().for_each(|h| all.merge(h));
        all
    }

    pub fn summary(&self) -> LatencySummary {
        let class_medians = self
            .classes
            .iter()
            .filter(|h| h.len() > 0)
            .map(|h| (h.len(), h.quantile(0.5)))
            .collect();
        LatencySummary::new(class_medians, self.pooled().quantile(0.9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn typical_weighs_classes_equally_and_tail_is_pooled() {
        let mut l = Latencies::default();
        for _ in 0..9 {
            l.push(0, 1.0);
        }
        l.push(1, 100.0);
        let s = l.summary();
        assert!((s.typical_ms - 10.0).abs() < 1e-9);
        assert!(s.tail_ms > 1.0 && s.tail_ms < 100.0);
        assert_eq!(s.samples, 10);
        assert_eq!(s.class_medians, [(9, 1.0), (1, 100.0)]);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket_of_the_exact_ones() {
        let mut rng = crate::inputs::Rng::new(3, 0);
        // Latencies over five decades, 0.01 ms to 1 s.
        let values: Vec<f64> = (0..20_000)
            .map(|_| 0.01 * 10f64.powf(rng.below(50_000) as f64 / 10_000.0))
            .collect();
        let mut halves = [Histogram::default(), Histogram::default()];
        for (i, &v) in values.iter().enumerate() {
            halves[i % 2].push(v);
        }
        let [mut all, other] = halves;
        all.merge(&other);
        assert_eq!(all.len(), values.len());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let (exact, binned) = (quantile(&values, q), all.quantile(q));
            assert!(
                (binned / exact - 1.0).abs() < 0.008,
                "q{q}: {binned} vs {exact}"
            );
        }
        assert!(Histogram::default().quantile(0.5).is_nan());
        // Out-of-range samples land in the end buckets instead of panicking.
        let mut edge = Histogram::default();
        edge.push(0.0);
        edge.push(1e9);
        assert_eq!(edge.len(), 2);

        let mut classes = ClassHistograms::new(3);
        (0..9).for_each(|_| classes.push(0, 1.0));
        classes.push(2, 100.0);
        let s = classes.summary();
        assert_eq!(s.samples, 10);
        assert!((s.typical_ms / 10.0 - 1.0).abs() < 0.01, "{}", s.typical_ms);
    }
}
