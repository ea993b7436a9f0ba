//! Descriptive statistics: means with confidence intervals, five-number
//! summaries (boxplots), and binomial tail probabilities.

use hlm_linalg::special::{ln_binomial, normal_cdf, normal_quantile};
use serde::{Deserialize, Serialize};

/// A mean with a symmetric confidence half-width.
///
/// **Empty-sample contract:** statistics over an empty sample report
/// `mean: 0.0, half_width: 0.0, n: 0`. The zeros keep every serialization
/// finite (a NaN mean would reach JSON as `null` and poison BENCH
/// artifacts); `n == 0` — checked via [`MeanCi::is_empty`] — is the signal
/// that no data backed the figure, and [`MeanCi::significantly_different_from`]
/// treats such values as incomparable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanCi {
    /// Sample mean (0 for an empty sample; see the empty-sample contract).
    pub mean: f64,
    /// Half-width of the confidence interval (0 for fewer than 2 samples).
    pub half_width: f64,
    /// Number of samples.
    pub n: usize,
}

impl MeanCi {
    /// The statistics of an empty sample (see the empty-sample contract).
    pub fn empty() -> Self {
        MeanCi {
            mean: 0.0,
            half_width: 0.0,
            n: 0,
        }
    }

    /// True when no samples backed this value — the mean is the contract's
    /// placeholder 0, not an observed average.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Lower bound of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// True when the two intervals do not overlap — the paper's criterion
    /// for "statistically significantly different". Empty or non-finite
    /// values are incomparable: the answer is always `false` (explicitly,
    /// not vacuously through NaN comparisons).
    #[cfg(test)]
    pub(crate) fn significantly_different_from(&self, other: &MeanCi) -> bool {
        if self.is_empty() || other.is_empty() || !self.mean.is_finite() || !other.mean.is_finite()
        {
            return false;
        }
        self.low() > other.high() || other.low() > self.high()
    }
}

/// Sample mean with a normal-approximation confidence interval at the given
/// level (e.g. `0.95`).
///
/// # Panics
/// Panics unless `0 < level < 1`.
pub fn mean_ci(samples: &[f64], level: f64) -> MeanCi {
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0,1)"
    );
    let n = samples.len();
    if n == 0 {
        return MeanCi::empty();
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return MeanCi {
            mean,
            half_width: 0.0,
            n,
        };
    }
    let var = samples
        .iter()
        .map(|&x| (x - mean) * (x - mean))
        .sum::<f64>()
        / (n - 1) as f64;
    let z = normal_quantile(0.5 + level / 2.0);
    MeanCi {
        mean,
        half_width: z * (var / n as f64).sqrt(),
        n,
    }
}

/// Five-number summary (min, Q1, median, Q3, max) for boxplots (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiveNumber {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes the five-number summary using linear interpolation between order
/// statistics (the same scheme as numpy's default percentile).
///
/// # Panics
/// Panics on empty input or non-finite values.
pub fn five_number_summary(samples: &[f64]) -> FiveNumber {
    assert!(!samples.is_empty(), "five-number summary of empty sample");
    let mut s: Vec<f64> = samples.to_vec();
    assert!(s.iter().all(|x| x.is_finite()), "non-finite sample");
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |p: f64| -> f64 {
        let idx = p * (s.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        s[lo] * (1.0 - frac) + s[hi] * frac
    };
    FiveNumber {
        min: s[0],
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: *s.last().unwrap(),
    }
}

/// Non-parametric bootstrap confidence interval for the mean: resamples the
/// data `n_resamples` times with replacement and returns the empirical
/// `(1±level)/2` quantiles of the resampled means as `MeanCi` bounds
/// (encoded as a symmetric half-width around the observed mean is wrong for
/// skewed data, so the half-width stored is the larger of the two sides).
///
/// # Panics
/// Panics unless `0 < level < 1` and `n_resamples > 0`.
pub fn bootstrap_mean_ci(samples: &[f64], level: f64, n_resamples: usize, seed: u64) -> MeanCi {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0,1)"
    );
    assert!(n_resamples > 0, "need at least one resample");
    let n = samples.len();
    if n == 0 {
        return MeanCi::empty();
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return MeanCi {
            mean,
            half_width: 0.0,
            n,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut means: Vec<f64> = (0..n_resamples)
        .map(|_| (0..n).map(|_| samples[rng.gen_range(0..n)]).sum::<f64>() / n as f64)
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
    let lo_idx = (((1.0 - level) / 2.0) * (n_resamples - 1) as f64).round() as usize;
    let hi_idx = (((1.0 + level) / 2.0) * (n_resamples - 1) as f64).round() as usize;
    let half = (mean - means[lo_idx])
        .abs()
        .max((means[hi_idx] - mean).abs());
    MeanCi {
        mean,
        half_width: half,
        n,
    }
}

/// One-sided binomial survival function `P(X ≥ k)` for `X ~ Bin(n, p)`.
///
/// Uses the exact log-space sum for `n ≤ 10_000` and a continuity-corrected
/// normal approximation otherwise — the regime split keeps both accuracy and
/// speed adequate for the sequentiality test over hundreds of n-grams.
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1`.
pub fn binomial_sf(k: u64, n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return 0.0; // k >= 1 occurrences impossible
    }
    if p == 1.0 {
        return 1.0; // X = n >= k always (k <= n here)
    }
    if n <= 10_000 {
        let ln_p = p.ln();
        let ln_q = (1.0 - p).ln();
        let mut total = 0.0f64;
        for x in k..=n {
            let ln_term = ln_binomial(n, x) + x as f64 * ln_p + (n - x) as f64 * ln_q;
            let term = ln_term.exp();
            total += term;
            // Terms beyond the mode decay geometrically; stop when negligible.
            if x as f64 > n as f64 * p && term < 1e-18 * total.max(1e-300) {
                break;
            }
        }
        total.min(1.0)
    } else {
        let mu = n as f64 * p;
        let sigma = (n as f64 * p * (1.0 - p)).sqrt();
        1.0 - normal_cdf((k as f64 - 0.5 - mu) / sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_basic() {
        let ci = mean_ci(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95);
        assert!((ci.mean - 3.0).abs() < 1e-12);
        assert!(ci.half_width > 0.0);
        assert_eq!(ci.n, 5);
        assert!(ci.low() < 3.0 && ci.high() > 3.0);
    }

    #[test]
    fn mean_ci_edge_cases() {
        // Empty-sample contract: finite zeros with n = 0, flagged empty.
        let empty = mean_ci(&[], 0.95);
        assert_eq!(empty, MeanCi::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.mean, 0.0);
        assert!(empty.mean.is_finite());
        let one = mean_ci(&[7.0], 0.95);
        assert!(!one.is_empty());
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.half_width, 0.0);
        let constant = mean_ci(&[2.0; 10], 0.95);
        assert_eq!(constant.half_width, 0.0);
    }

    #[test]
    fn ci_width_shrinks_with_n() {
        let small: Vec<f64> = (0..10).map(|i| (i % 3) as f64).collect();
        let big: Vec<f64> = (0..1000).map(|i| (i % 3) as f64).collect();
        assert!(mean_ci(&big, 0.95).half_width < mean_ci(&small, 0.95).half_width);
    }

    #[test]
    fn significance_is_interval_disjointness() {
        let a = MeanCi {
            mean: 1.0,
            half_width: 0.1,
            n: 10,
        };
        let b = MeanCi {
            mean: 1.5,
            half_width: 0.1,
            n: 10,
        };
        let c = MeanCi {
            mean: 1.15,
            half_width: 0.1,
            n: 10,
        };
        assert!(a.significantly_different_from(&b));
        assert!(!a.significantly_different_from(&c));
    }

    #[test]
    fn significance_guards_empty_and_non_finite_values() {
        let a = MeanCi {
            mean: 1.0,
            half_width: 0.1,
            n: 10,
        };
        // An empty side is incomparable, whichever side it is on.
        assert!(!a.significantly_different_from(&MeanCi::empty()));
        assert!(!MeanCi::empty().significantly_different_from(&a));
        assert!(!MeanCi::empty().significantly_different_from(&MeanCi::empty()));
        // A hand-built NaN mean must answer false explicitly, not through a
        // vacuous NaN comparison.
        let poisoned = MeanCi {
            mean: f64::NAN,
            half_width: 0.1,
            n: 10,
        };
        assert!(!a.significantly_different_from(&poisoned));
        assert!(!poisoned.significantly_different_from(&a));
    }

    #[test]
    fn five_number_known_values() {
        let f = five_number_summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.q1, 2.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.q3, 4.0);
        assert_eq!(f.max, 5.0);
        let g = five_number_summary(&[4.0, 1.0]); // unsorted input
        assert_eq!(g.median, 2.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn five_number_rejects_empty() {
        five_number_summary(&[]);
    }

    #[test]
    fn bootstrap_ci_agrees_with_normal_ci_on_well_behaved_data() {
        let samples: Vec<f64> = (0..200).map(|i| ((i * 37) % 100) as f64 / 10.0).collect();
        let normal = mean_ci(&samples, 0.95);
        let boot = bootstrap_mean_ci(&samples, 0.95, 2000, 7);
        assert!((boot.mean - normal.mean).abs() < 1e-12);
        assert!(
            (boot.half_width - normal.half_width).abs() < 0.3 * normal.half_width,
            "bootstrap {} vs normal {}",
            boot.half_width,
            normal.half_width
        );
    }

    #[test]
    fn bootstrap_ci_edge_cases() {
        assert_eq!(bootstrap_mean_ci(&[], 0.95, 100, 1), MeanCi::empty());
        let one = bootstrap_mean_ci(&[5.0], 0.95, 100, 1);
        assert_eq!(one.half_width, 0.0);
        let constant = bootstrap_mean_ci(&[3.0; 20], 0.95, 200, 1);
        assert_eq!(constant.half_width, 0.0);
        // Deterministic given seed.
        let a = bootstrap_mean_ci(&[1.0, 2.0, 5.0, 9.0], 0.9, 500, 3);
        let b = bootstrap_mean_ci(&[1.0, 2.0, 5.0, 9.0], 0.9, 500, 3);
        assert_eq!(a.half_width, b.half_width);
    }

    #[test]
    fn binomial_sf_small_exact() {
        // X ~ Bin(3, 0.5): P(X >= 2) = 4/8 = 0.5.
        assert!((binomial_sf(2, 3, 0.5) - 0.5).abs() < 1e-12);
        // P(X >= 0) = 1; P(X >= 4) = 0.
        assert_eq!(binomial_sf(0, 3, 0.5), 1.0);
        assert_eq!(binomial_sf(4, 3, 0.5), 0.0);
        // P(X >= 3) = 1/8.
        assert!((binomial_sf(3, 3, 0.5) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn binomial_sf_degenerate_p() {
        assert_eq!(binomial_sf(1, 10, 0.0), 0.0);
        assert_eq!(binomial_sf(10, 10, 1.0), 1.0);
    }

    #[test]
    fn binomial_sf_large_n_approximation_is_sane() {
        // Bin(100_000, 0.01): mean 1000, sd ~31.5. P(X >= 1100) tiny.
        let p_tail = binomial_sf(1100, 100_000, 0.01);
        assert!(p_tail < 0.01, "far tail {p_tail}");
        let p_center = binomial_sf(1000, 100_000, 0.01);
        assert!((p_center - 0.5).abs() < 0.05, "center {p_center}");
        // Monotone in k.
        assert!(binomial_sf(900, 100_000, 0.01) > p_center);
    }

    #[test]
    fn binomial_sf_exact_matches_normal_near_boundary() {
        // n = 10_000 exact vs n = 10_001 normal: continuity check.
        let exact = binomial_sf(5100, 10_000, 0.5);
        let approx = binomial_sf(5101, 10_001, 0.5);
        assert!(
            (exact - approx).abs() < 0.02,
            "exact {exact} vs approx {approx}"
        );
    }
}
