//! Figures 3 and 4: recommendation accuracy of LDA3, LSTM and CHH over the
//! sliding-window protocol, swept over the probability threshold φ.
//!
//! Paper results: LDA3's recall and F1 dominate for φ ≤ 0.2; LSTM and CHH
//! retrieve similar numbers of true products but CHH produces more false
//! positives; everything dies past φ ≈ 0.5; the uniform random baseline
//! retrieves everything for φ ≤ 1/38 and nothing above.

use crate::ExpScale;
use hlm_corpus::Corpus;
use hlm_engine::{LdaEstimator, ModelSpec};
use hlm_eval::report::{fmt_ci, fmt_f, Table};
use hlm_eval::{evaluate_recommender, RandomRecommender, RecEvalConfig, ThresholdPoint};
use hlm_lda::LdaConfig;
use hlm_lstm::{AdamOptions, LstmConfig, TrainOptions};

/// Evaluation output per method.
pub struct MethodCurves {
    /// Method label.
    pub method: String,
    /// One point per threshold φ.
    pub points: Vec<ThresholdPoint>,
}

/// The shared protocol configuration for this experiment.
pub fn protocol(scale: &ExpScale) -> RecEvalConfig {
    RecEvalConfig {
        windows: hlm_corpus::SlidingWindows::paper_evaluation().collect(),
        thresholds: (0..=10).map(|i| i as f64 * 0.05).collect(),
        retrain_per_window: scale.retrain_per_window,
        require_history: true,
    }
}

/// Runs the three recommenders plus the random baseline.
pub fn sweep(scale: &ExpScale, corpus: &Corpus) -> Vec<MethodCurves> {
    let split = scale.split(corpus);
    let cfg = protocol(scale);
    let m = corpus.vocab().len();

    let lda = ModelSpec::Lda {
        config: LdaConfig {
            n_topics: 3,
            vocab_size: m,
            n_iters: scale.lda_iters,
            burn_in: scale.lda_iters / 2,
            sample_lag: 5,
            seed: scale.seed,
            alpha: None,
            beta: 0.1,
            ..Default::default()
        },
        estimator: LdaEstimator::Gibbs,
    };
    let lstm = ModelSpec::Lstm {
        config: LstmConfig {
            vocab_size: m,
            hidden_size: 100,
            n_layers: 1,
            dropout: 0.2,
            ..Default::default()
        },
        train: TrainOptions {
            epochs: scale.lstm_epochs,
            batch_size: 16,
            adam: AdamOptions {
                learning_rate: 3e-3,
                ..Default::default()
            },
            patience: 0,
            seed: scale.seed,
            verbose: false,
            ..Default::default()
        },
        seed: scale.seed ^ 0x157,
    };
    let chh = ModelSpec::ChhExact {
        depth: 2,
        vocab_size: m,
    };
    let random = RandomRecommender::new(m);

    let mut out = Vec::new();
    for (name, spec) in [("CHH", &chh), ("LSTM", &lstm), ("LDA3", &lda)] {
        eprintln!("[fig3/4] evaluating {name}…");
        let factory = spec.factory().expect("registry covers this family");
        let points =
            evaluate_recommender(factory.as_ref(), corpus, &split.train, &split.test, &cfg);
        out.push(MethodCurves {
            method: name.to_string(),
            points,
        });
    }
    eprintln!("[fig3/4] evaluating random…");
    let points = evaluate_recommender(&random, corpus, &split.train, &split.test, &cfg);
    out.push(MethodCurves {
        method: "random".to_string(),
        points,
    });
    out
}

/// Runs the experiment and renders the Figure-3 (recall / F1) and Figure-4
/// (counts) tables.
pub fn run(scale: &ExpScale) -> Vec<Table> {
    let corpus = scale.corpus();
    let curves = sweep(scale, &corpus);
    let thresholds: Vec<f64> = curves[0].points.iter().map(|p| p.phi).collect();

    let mut fig3 = Table::new(
        format!(
            "Figure 3 — recall and F1 (mean ± 95% CI over {} windows) vs threshold φ (scale: {})",
            protocol(scale).windows.len(),
            scale.name
        ),
        &[
            "phi",
            "Recall_CHH",
            "F1_CHH",
            "Recall_LSTM",
            "F1_LSTM",
            "Recall_LDA3",
            "F1_LDA3",
            "Recall_random",
        ],
    );
    for (i, &phi) in thresholds.iter().enumerate() {
        let get = |m: &str| -> &ThresholdPoint {
            &curves
                .iter()
                .find(|c| c.method == m)
                .expect("method present")
                .points[i]
        };
        fig3.add_row(vec![
            fmt_f(phi, 2),
            fmt_ci(&get("CHH").recall, 3),
            fmt_ci(&get("CHH").f1, 3),
            fmt_ci(&get("LSTM").recall, 3),
            fmt_ci(&get("LSTM").f1, 3),
            fmt_ci(&get("LDA3").recall, 3),
            fmt_ci(&get("LDA3").f1, 3),
            fmt_ci(&get("random").recall, 3),
        ]);
    }

    let mut fig4 = Table::new(
        format!(
            "Figure 4 — average number of retrieved / correctly retrieved / relevant products per window (scale: {})",
            scale.name
        ),
        &[
            "phi",
            "retrieved_CHH",
            "correct_CHH",
            "retrieved_LSTM",
            "correct_LSTM",
            "retrieved_LDA3",
            "correct_LDA3",
            "relevant (ground truth)",
        ],
    );
    for (i, &phi) in thresholds.iter().enumerate() {
        let get = |m: &str| -> &ThresholdPoint {
            &curves
                .iter()
                .find(|c| c.method == m)
                .expect("method present")
                .points[i]
        };
        fig4.add_row(vec![
            fmt_f(phi, 2),
            fmt_ci(&get("CHH").retrieved, 0),
            fmt_ci(&get("CHH").correct, 0),
            fmt_ci(&get("LSTM").retrieved, 0),
            fmt_ci(&get("LSTM").correct, 0),
            fmt_ci(&get("LDA3").retrieved, 0),
            fmt_ci(&get("LDA3").correct, 0),
            fmt_ci(&get("LDA3").relevant, 0),
        ]);
    }
    vec![fig3, fig4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lda_recall_dominates_at_low_thresholds() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 400;
        scale.lda_iters = 60;
        scale.lstm_epochs = 2;
        let corpus = scale.corpus();
        let curves = sweep(&scale, &corpus);
        let get = |m: &str| curves.iter().find(|c| c.method == m).expect("present");

        // φ = 0.05 and 0.10 (indices 1, 2): LDA3 recall ≥ CHH recall.
        for idx in [1usize, 2] {
            let lda = get("LDA3").points[idx].recall.mean;
            let chh = get("CHH").points[idx].recall.mean;
            assert!(
                lda >= chh * 0.9,
                "phi index {idx}: LDA recall {lda} vs CHH {chh}"
            );
        }
        // Everything retrieves nothing at φ = 0.5 except possibly CHH
        // deterministic rules; recall far below the low-threshold regime.
        let lda_hi = get("LDA3").points[10].recall.mean;
        let lda_lo = get("LDA3").points[1].recall.mean;
        assert!(lda_hi < lda_lo * 0.5, "high-threshold recall must collapse");
        // Random baseline: recall 1 at φ = 0 and 0 at φ = 0.05 (> 1/38).
        assert!((get("random").points[0].recall.mean - 1.0).abs() < 1e-9);
        assert_eq!(get("random").points[1].recall.mean, 0.0);
    }
}
