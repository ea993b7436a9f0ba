//! Concept-drift detection for the deployed recommendation tool.
//!
//! Section 6 of the paper: LDA "is done offline and can be retrained on
//! demand or when the concept shift is taken place". This module provides
//! the trigger: compare the distribution of newly acquired product
//! categories between a reference period and a recent period with a
//! chi-square two-sample test (plus the Jensen–Shannon divergence as an
//! effect-size measure), and flag drift when the difference is significant.

use hlm_corpus::{Corpus, TimeWindow};
use hlm_linalg::special::chi_square_sf;
use serde::{Deserialize, Serialize};

/// Outcome of a drift check between two periods.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftReport {
    /// Acquisition events in the reference period.
    pub reference_events: u64,
    /// Acquisition events in the recent period.
    pub recent_events: u64,
    /// Chi-square statistic of the two-sample homogeneity test (computed
    /// over categories observed in either period).
    pub chi_square: f64,
    /// Degrees of freedom used.
    pub degrees_of_freedom: usize,
    /// P-value of the test (NaN when either period has no events).
    pub p_value: f64,
    /// Jensen–Shannon divergence (nats) between the two acquisition
    /// distributions — a bounded effect size in `[0, ln 2]`. NaN when either
    /// period has no events: against an all-zero "distribution" the formula
    /// would report ½·ln 2 ≈ 0.347, a large phantom effect size for a window
    /// that simply has no data.
    pub js_divergence: f64,
    /// True when `p_value < significance`.
    pub drifted: bool,
}

impl DriftReport {
    /// True when both periods had events and the test could run — i.e. the
    /// p-value and JS divergence are meaningful numbers rather than NaN.
    pub fn is_valid(&self) -> bool {
        !self.p_value.is_nan()
    }
}

/// Counts first-seen events per product inside a window.
fn acquisition_counts(corpus: &Corpus, window: TimeWindow) -> Vec<u64> {
    let mut counts = vec![0u64; corpus.vocab().len()];
    for company in corpus.companies() {
        for p in company.products_first_seen_in(window.start, window.end) {
            counts[p.index()] += 1;
        }
    }
    counts
}

fn normalize(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Jensen–Shannon divergence between two distributions (nats).
pub(crate) fn jensen_shannon(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let kl = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .filter(|&(&ai, _)| ai > 0.0)
            .map(|(&ai, &bi)| ai * (ai / bi).ln())
            .sum()
    };
    let m: Vec<f64> = p.iter().zip(q).map(|(&a, &b)| 0.5 * (a + b)).collect();
    0.5 * kl(p, &m) + 0.5 * kl(q, &m)
}

/// Runs the two-sample chi-square homogeneity test between the acquisition
/// distributions of `reference` and `recent`, flagging drift at the given
/// significance level.
///
/// Categories unobserved in both periods are dropped; the test needs at
/// least two remaining categories and at least one event per period,
/// otherwise the p-value is NaN and `drifted` is false.
///
/// # Panics
/// Panics unless `0 < significance < 1`.
pub fn detect_drift(
    corpus: &Corpus,
    reference: TimeWindow,
    recent: TimeWindow,
    significance: f64,
) -> DriftReport {
    assert!(
        significance > 0.0 && significance < 1.0,
        "significance must be in (0,1)"
    );
    let ref_counts = acquisition_counts(corpus, reference);
    let rec_counts = acquisition_counts(corpus, recent);
    let n1: u64 = ref_counts.iter().sum();
    let n2: u64 = rec_counts.iter().sum();

    // Keep categories seen in either period.
    let kept: Vec<usize> = (0..ref_counts.len())
        .filter(|&i| ref_counts[i] + rec_counts[i] > 0)
        .collect();

    if n1 == 0 || n2 == 0 || kept.len() < 2 {
        // An empty period carries no distributional information: the JS
        // divergence is NaN too, not the ½·ln 2 the formula would yield
        // against a normalized-to-zeros vector.
        return DriftReport {
            reference_events: n1,
            recent_events: n2,
            chi_square: f64::NAN,
            degrees_of_freedom: 0,
            p_value: f64::NAN,
            js_divergence: f64::NAN,
            drifted: false,
        };
    }

    let js = jensen_shannon(&normalize(&ref_counts), &normalize(&rec_counts));

    // Two-sample chi-square: expected cell count under homogeneity is
    // row_total * col_total / grand_total.
    let grand = (n1 + n2) as f64;
    let mut chi2 = 0.0;
    for &i in &kept {
        let col = (ref_counts[i] + rec_counts[i]) as f64;
        for (obs, row_total) in [
            (ref_counts[i] as f64, n1 as f64),
            (rec_counts[i] as f64, n2 as f64),
        ] {
            let expected = row_total * col / grand;
            if expected > 0.0 {
                chi2 += (obs - expected) * (obs - expected) / expected;
            }
        }
    }
    let df = kept.len() - 1;
    let p_value = chi_square_sf(chi2, df as f64);
    DriftReport {
        reference_events: n1,
        recent_events: n2,
        chi_square: chi2,
        degrees_of_freedom: df,
        p_value,
        js_divergence: js,
        drifted: p_value < significance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlm_corpus::{Company, InstallEvent, Month, ProductId, Sic2, Vocabulary};

    /// Drift case: reference acquisitions are product 0, recent ones
    /// product 1. No-drift case: both periods are an even 50/50 mix of
    /// products 0 and 2 (each company acquires one of them per period, the
    /// other one in the other period, so nothing merges).
    fn corpus(drift: bool, n: usize) -> Corpus {
        let vocab = Vocabulary::new(["a", "b", "c"]);
        let companies = (0..n)
            .map(|i| {
                let mut c = Company::new(i as u64, format!("c{i}"), Sic2(1), 0);
                let (ref_p, rec_p) = if drift {
                    (ProductId(0), ProductId(1))
                } else if i % 2 == 0 {
                    (ProductId(0), ProductId(2))
                } else {
                    (ProductId(2), ProductId(0))
                };
                c.add_event(InstallEvent::at(
                    ref_p,
                    Month::from_ym(2010, 1 + (i % 12) as u32),
                ));
                c.add_event(InstallEvent::at(
                    rec_p,
                    Month::from_ym(2014, 1 + (i % 12) as u32),
                ));
                c
            })
            .collect();
        Corpus::new(vocab, companies)
    }

    fn windows() -> (TimeWindow, TimeWindow) {
        (
            TimeWindow::new(Month::from_ym(2010, 1), 12),
            TimeWindow::new(Month::from_ym(2014, 1), 12),
        )
    }

    #[test]
    fn strong_shift_is_detected() {
        let c = corpus(true, 120);
        let (a, b) = windows();
        let rep = detect_drift(&c, a, b, 0.05);
        assert!(rep.drifted, "p = {}", rep.p_value);
        assert!(rep.p_value < 1e-6);
        assert!(rep.js_divergence > 0.3, "JS {}", rep.js_divergence);
        assert!(rep.reference_events > 0 && rep.recent_events > 0);
    }

    #[test]
    fn stable_distribution_is_not_flagged() {
        let c = corpus(false, 120);
        let (a, b) = windows();
        let rep = detect_drift(&c, a, b, 0.05);
        assert!(
            !rep.drifted,
            "p = {} chi2 = {}",
            rep.p_value, rep.chi_square
        );
        assert!(rep.js_divergence < 0.05, "JS {}", rep.js_divergence);
    }

    #[test]
    fn empty_period_yields_nan_not_panic() {
        let c = corpus(true, 30);
        let empty = TimeWindow::new(Month::from_ym(1980, 1), 12);
        let (a, _) = windows();
        let rep = detect_drift(&c, a, empty, 0.05);
        assert!(rep.p_value.is_nan());
        assert!(!rep.drifted);
        assert!(!rep.is_valid());
        assert_eq!(rep.recent_events, 0);
    }

    #[test]
    fn empty_period_js_is_nan_not_phantom_half_ln2() {
        // Regression: normalize(zeros) used to feed jensen_shannon an
        // all-zero q, which evaluates to exactly ½·ln 2 ≈ 0.347 nats — a
        // large "effect size" for a window containing no data at all. The
        // report must carry NaN instead.
        let c = corpus(true, 30);
        let empty = TimeWindow::new(Month::from_ym(1980, 1), 12);
        let (a, _) = windows();

        // Pin the phantom value itself so the failure mode stays documented:
        // this is what the report used to contain.
        let phantom = jensen_shannon(&[0.5, 0.5, 0.0], &[0.0, 0.0, 0.0]);
        assert!(
            (phantom - 0.5 * std::f64::consts::LN_2).abs() < 1e-12,
            "JS against zeros is ½·ln 2, got {phantom}"
        );

        let rep = detect_drift(&c, a, empty, 0.05);
        assert!(
            rep.js_divergence.is_nan(),
            "empty period must not report an effect size, got {}",
            rep.js_divergence
        );
        // Both orders, and the both-empty case.
        let rev = detect_drift(&c, empty, a, 0.05);
        assert!(rev.js_divergence.is_nan() && !rev.drifted);
        let both = detect_drift(&c, empty, empty, 0.05);
        assert!(both.js_divergence.is_nan() && both.p_value.is_nan());
    }

    #[test]
    fn js_divergence_bounds() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        let d = jensen_shannon(&p, &q);
        assert!(
            (d - std::f64::consts::LN_2).abs() < 1e-12,
            "disjoint = ln 2"
        );
        assert_eq!(jensen_shannon(&p, &p), 0.0);
    }

    #[test]
    fn generated_corpus_early_vs_late_periods() {
        // The simulator's stage ordering means late periods acquire more
        // virtualization/cloud than early periods: drift must be detected
        // between 1995 and 2015 on a decent corpus.
        let c = hlm_datagen::generate(&hlm_datagen::GeneratorConfig::with_size_and_seed(800, 3));
        let early = TimeWindow::new(Month::from_ym(1995, 1), 24);
        let late = TimeWindow::new(Month::from_ym(2013, 1), 24);
        let rep = detect_drift(&c, early, late, 0.01);
        assert!(
            rep.drifted,
            "stage ordering implies drift, p = {}",
            rep.p_value
        );
        // And two adjacent late periods drift much less.
        let late2 = TimeWindow::new(Month::from_ym(2011, 1), 24);
        let rep2 = detect_drift(&c, late2, late, 0.05);
        assert!(
            rep2.js_divergence < rep.js_divergence,
            "adjacent periods diverge less: {} vs {}",
            rep2.js_divergence,
            rep.js_divergence
        );
    }
}
