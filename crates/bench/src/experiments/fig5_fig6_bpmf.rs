//! Figures 5 and 6: the BPMF comparator.
//!
//! Paper results: fed the binary ranking transform (owned product → rating
//! 1), BPMF's recommendation scores pile up in `[0.9, 1.0]` (Figure 5's
//! boxplot), and sweeping the recommendation-score threshold over
//! `[0.90, 0.99]` barely changes anything — essentially the full product
//! set is recommended to every company (Figure 6), so BPMF is useless on
//! this dense install-base data.

use crate::ExpScale;
use hlm_bpmf::BpmfConfig;
use hlm_core::{evaluate_bpmf, BpmfEvaluation};
use hlm_eval::report::{fmt_ci, fmt_f, Table};
use hlm_eval::stats::five_number_summary;

/// Score thresholds swept in Figure 6.
pub fn thresholds() -> Vec<f64> {
    (0..10).map(|i| 0.90 + i as f64 * 0.01).collect()
}

/// Runs the BPMF protocol at the given scale.
pub(crate) fn evaluate(scale: &ExpScale) -> BpmfEvaluation {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let cfg = BpmfConfig {
        n_factors: 8,
        n_iters: scale.bpmf_iters,
        burn_in: scale.bpmf_iters / 3,
        seed: scale.seed,
        ..Default::default()
    };
    let windows: Vec<_> = hlm_corpus::SlidingWindows::paper_evaluation().collect();
    eprintln!(
        "[fig5/6] fitting BPMF ({} companies, {} sweeps)…",
        split.test.len(),
        cfg.n_iters
    );
    evaluate_bpmf(
        &corpus,
        &split.test,
        &windows,
        &thresholds(),
        &cfg,
        scale.retrain_per_window,
    )
}

/// Runs the experiment and renders the Figure-5 boxplot summary and the
/// Figure-6 accuracy table.
pub fn run(scale: &ExpScale) -> Vec<Table> {
    let eval = evaluate(scale);

    let f = five_number_summary(&eval.scores);
    let mut fig5 = Table::new(
        format!(
            "Figure 5 — BPMF recommendation score distribution (scale: {})",
            scale.name
        ),
        &["statistic", "value"],
    );
    fig5.add_row(vec!["min".into(), fmt_f(f.min, 4)]);
    fig5.add_row(vec!["Q1".into(), fmt_f(f.q1, 4)]);
    fig5.add_row(vec!["median".into(), fmt_f(f.median, 4)]);
    fig5.add_row(vec!["Q3".into(), fmt_f(f.q3, 4)]);
    fig5.add_row(vec!["max".into(), fmt_f(f.max, 4)]);
    let high = eval.scores.iter().filter(|&&s| s >= 0.9).count();
    fig5.add_row(vec![
        "fraction of scores ≥ 0.9".into(),
        fmt_f(high as f64 / eval.scores.len() as f64, 3),
    ]);

    let mut fig6 = Table::new(
        format!(
            "Figure 6 — BPMF precision / recall / F1 vs recommendation-score threshold (scale: {})",
            scale.name
        ),
        &[
            "threshold",
            "Precision_BPMF",
            "Recall_BPMF",
            "F1_BPMF",
            "retrieved",
        ],
    );
    for p in &eval.points {
        fig6.add_row(vec![
            fmt_f(p.phi, 2),
            fmt_ci(&p.precision, 3),
            fmt_ci(&p.recall, 3),
            fmt_ci(&p.f1, 3),
            fmt_ci(&p.retrieved, 0),
        ]);
    }
    vec![fig5, fig6]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bpmf_degeneracy_reproduces() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 300;
        scale.bpmf_iters = 25;
        let eval = evaluate(&scale);

        // Figure 5: bulk of the scores near 1.
        let f = five_number_summary(&eval.scores);
        assert!(f.median > 0.85, "median {}", f.median);

        // Figure 6: flat accuracy across the low thresholds — retrieval at
        // 0.90 and 0.93 differ by less than a factor 2 (no cliff).
        let r0 = eval.points[0].retrieved.mean;
        let r3 = eval.points[3].retrieved.mean;
        assert!(r0 > 0.0);
        assert!(r3 > 0.4 * r0, "flat retrieval expected: {r0} vs {r3}");
        // Precision stays near the base rate — BPMF recommends everything.
        assert!(eval.points[0].precision.mean < 0.4);
    }
}
