//! Special functions: log-gamma, digamma, error function, normal CDF and
//! quantile, log-sum-exp and softmax.
//!
//! These are the numeric primitives behind the LDA sampler (gamma-family
//! identities), the evaluation statistics (normal tail probabilities for
//! confidence intervals and binomial tests), and every softmax in the LSTM.

use std::f64::consts::PI;

/// Natural log of the gamma function via the Lanczos approximation (g = 7,
/// n = 9 coefficients). Accurate to ~1e-13 over the positive reals.
///
/// # Panics
/// Panics for non-positive non-integer-safe inputs only through the
/// reflection formula domain; `x > 0` is always safe.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: ln Γ(x) = ln(π / sin(πx)) − ln Γ(1 − x)
        let s = (PI * x).sin();
        assert!(s != 0.0, "ln_gamma pole at non-positive integer {x}");
        return (PI / s.abs()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Digamma function ψ(x) = d/dx ln Γ(x) via upward recurrence plus the
/// asymptotic series. Accurate to ~1e-12 for `x > 0`.
pub fn digamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut result = 0.0;
    // Recurrence ψ(x) = ψ(x+1) − 1/x until x is large enough for the series.
    while x < 6.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic expansion ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n} / (2n x^{2n}).
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
}

/// Error function via the Abramowitz & Stegun 7.1.26 rational approximation,
/// |error| < 1.5e-7 — sufficient for p-values and CI half-widths.
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal quantile Φ⁻¹(p) via Acklam's rational approximation
/// (relative error < 1.15e-9).
///
/// # Panics
/// Panics unless `0 < p < 1`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0,1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
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
        -normal_quantile(1.0 - p)
    }
}

/// Numerically stable `ln Σ exp(x_i)`. Returns `-inf` for an empty slice.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

/// In-place numerically stable softmax; an all-`-inf` input becomes uniform.
pub fn softmax_in_place(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        let u = 1.0 / xs.len() as f64;
        xs.iter_mut().for_each(|x| *x = u);
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    xs.iter_mut().for_each(|x| *x /= sum);
}

/// Returns the softmax of `xs` as a new vector.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
///
/// # Panics
/// Panics unless `a > 0` and `x >= 0`.
pub(crate) fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cont_frac(a, x)
    }
}

/// Series expansion of `P(a, x)` (converges fast for `x < a + 1`).
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..500 {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    (sum * (-x + a * x.ln() - ln_gamma(a)).exp()).clamp(0.0, 1.0)
}

/// Lentz continued fraction for `Q(a, x)` (converges fast for `x >= a + 1`).
fn gamma_cont_frac(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (h * (-x + a * x.ln() - ln_gamma(a)).exp()).clamp(0.0, 1.0)
}

/// Survival function of the chi-square distribution with `df` degrees of
/// freedom: `P(X ≥ x) = Q(df/2, x/2)`.
///
/// # Panics
/// Panics unless `df > 0` and `x >= 0`.
pub fn chi_square_sf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "chi_square_sf requires df > 0");
    gamma_q(df / 2.0, x / 2.0)
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// # Panics
/// Panics if `k > n`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_binomial requires k <= n");
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let lg = ln_gamma(n as f64 + 1.0);
            assert!((lg - f.ln()).abs() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        assert!((ln_gamma(0.5) - 0.5 * PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn digamma_known_values() {
        const EULER: f64 = 0.577_215_664_901_532_9;
        assert!((digamma(1.0) + EULER).abs() < 1e-10);
        // ψ(x+1) = ψ(x) + 1/x
        assert!((digamma(2.0) - (digamma(1.0) + 1.0)).abs() < 1e-10);
        assert!((digamma(0.5) + EULER + 2.0 * std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn erf_and_normal_cdf() {
        assert!(erf(0.0).abs() < 2e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((normal_cdf(0.0) - 0.5).abs() < 2e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p}");
        }
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn log_sum_exp_stability() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        let v = [1000.0, 1000.0];
        assert!((log_sum_exp(&v) - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        assert!((log_sum_exp(&[-1e6, 0.0]) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_sums_to_one_even_when_degenerate() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
        let deg = softmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert_eq!(deg, vec![0.5, 0.5]);
    }

    #[test]
    fn incomplete_gamma_known_values() {
        // Q(1, x) = e^{-x}; x < 2 takes the series, the rest the continued
        // fraction.
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert!((gamma_q(1.0, x) - (-x).exp()).abs() < 1e-12, "x={x}");
        }
        // Q(1/2, x) = 1 - erf(sqrt(x)).
        for &x in &[0.25f64, 1.0, 4.0] {
            let expect = 1.0 - erf(x.sqrt());
            assert!((gamma_q(0.5, x) - expect).abs() < 1e-6, "x={x}");
        }
        assert_eq!(gamma_q(2.0, 0.0), 1.0);
    }

    #[test]
    fn chi_square_sf_known_quantiles() {
        // df = 1: the 5% critical value is 3.841.
        assert!((chi_square_sf(3.841, 1.0) - 0.05).abs() < 1e-3);
        // df = 2: sf(x) = exp(-x/2) exactly.
        for &x in &[0.5, 2.0, 6.0] {
            assert!((chi_square_sf(x, 2.0) - (-x / 2.0).exp()).abs() < 1e-12);
        }
        // df = 10: the 5% critical value is 18.307.
        assert!((chi_square_sf(18.307, 10.0) - 0.05).abs() < 1e-3);
        // Monotone decreasing in x.
        assert!(chi_square_sf(1.0, 5.0) > chi_square_sf(2.0, 5.0));
    }

    #[test]
    fn ln_binomial_small_cases() {
        assert!((ln_binomial(5, 2) - 10.0_f64.ln()).abs() < 1e-10);
        assert!((ln_binomial(10, 0)).abs() < 1e-10);
        assert!((ln_binomial(10, 10)).abs() < 1e-10);
    }

    proptest! {
        #[test]
        fn ln_gamma_recurrence(x in 0.1f64..50.0) {
            // ln Γ(x+1) = ln Γ(x) + ln x
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }

        #[test]
        fn softmax_is_distribution(xs in prop::collection::vec(-50.0f64..50.0, 1..10)) {
            let s = softmax(&xs);
            prop_assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        #[test]
        fn normal_cdf_monotone(a in -5.0f64..5.0, d in 0.001f64..2.0) {
            prop_assert!(normal_cdf(a + d) >= normal_cdf(a));
        }
    }
}
