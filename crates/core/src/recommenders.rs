//! LDA's masked next-product scores, which the engine's LDA model answers
//! recommendations with, plus the dedicated BPMF protocol of Figures 5–6.
//!
//! Every history-conditioned family reaches the evaluation harness's
//! [`hlm_eval::RecommenderFactory`] through `hlm_engine::ModelSpec::factory`,
//! which trains on install-base events strictly before each window's cutoff
//! — "all the previous information that happened before the start of a
//! sliding window is used for model training" (Section 4.3).

use hlm_bpmf::{BpmfConfig, Rating};
use hlm_corpus::{CompanyId, Corpus, Month, TimeWindow};
use hlm_eval::stats::mean_ci;
use hlm_eval::ThresholdPoint;
use hlm_lda::{LdaModel, WeightedDoc};
use serde::{Deserialize, Serialize};

/// Fold-in predictive scores for the next *new* product under an LDA model.
///
/// Install bases are sets: the predictive mass on already-owned products is
/// structurally dead, so the distribution is masked to the unowned support
/// and renormalized (mirroring the document-completion perplexity).
pub fn masked_lda_scores(model: &LdaModel, history: &[usize]) -> Vec<f64> {
    let doc: WeightedDoc = history.iter().map(|&w| (w, 1.0)).collect();
    let mut scores = model.predict_products(&doc);
    for &w in history {
        scores[w] = 0.0;
    }
    let s: f64 = scores.iter().sum();
    if s > 0.0 {
        scores.iter_mut().for_each(|x| *x /= s);
    }
    scores
}

// ---------------------------------------------------------------------------
// BPMF (dedicated protocol)
// ---------------------------------------------------------------------------

/// Result of the BPMF evaluation: the raw score distribution (Figure 5) and
/// the accuracy sweep over recommendation-score thresholds (Figure 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BpmfEvaluation {
    /// Every predicted recommendation score for the evaluated companies at
    /// the first window (the data behind the Figure-5 boxplot).
    pub scores: Vec<f64>,
    /// Accuracy per score threshold, aggregated over windows.
    pub points: Vec<ThresholdPoint>,
}

/// Runs the Section-5.2 BPMF protocol.
///
/// BPMF is not history-conditioned: it scores `(company, product)` cells. As
/// in the paper, the binary ranking transform provides rating 1 for every
/// product a company owns before the window start; the fitted posterior-mean
/// scores (clamped to `[0, 1]`) are thresholded to produce recommendations.
/// The model is retrained per window when `retrain_per_window` is set.
///
/// # Panics
/// Panics on empty windows/thresholds or when no company owns any product
/// before the first window.
pub fn evaluate_bpmf(
    corpus: &Corpus,
    eval_ids: &[CompanyId],
    windows: &[TimeWindow],
    thresholds: &[f64],
    cfg: &BpmfConfig,
    retrain_per_window: bool,
) -> BpmfEvaluation {
    assert!(!windows.is_empty(), "need at least one window");
    assert!(!thresholds.is_empty(), "need at least one threshold");
    let m = corpus.vocab().len();
    let n_phi = thresholds.len();
    let n_win = windows.len();
    let mut retrieved = vec![vec![0.0f64; n_win]; n_phi];
    let mut correct = vec![vec![0.0f64; n_win]; n_phi];
    let mut relevant = vec![vec![0.0f64; n_win]; n_phi];
    let mut first_window_scores: Vec<f64> = Vec::new();

    let fit_at = |cutoff: Month| -> hlm_bpmf::BpmfModel {
        let mut ratings = Vec::new();
        for (row, &id) in eval_ids.iter().enumerate() {
            for p in corpus.company(id).sequence_before(cutoff) {
                ratings.push(Rating {
                    row,
                    col: p.index(),
                    value: 1.0,
                });
            }
        }
        assert!(
            !ratings.is_empty(),
            "no install-base events before {cutoff}"
        );
        hlm_bpmf::fit(eval_ids.len(), m, &ratings, cfg, Some((0.0, 1.0)))
    };

    let mut model = fit_at(windows[0].start);
    for (wi, window) in windows.iter().enumerate() {
        if retrain_per_window && wi > 0 {
            model = fit_at(window.start);
        }
        for (row, &id) in eval_ids.iter().enumerate() {
            let company = corpus.company(id);
            let history = company.sequence_before(window.start);
            if history.is_empty() {
                continue;
            }
            let mut owned = vec![false; m];
            for p in &history {
                owned[p.index()] = true;
            }
            let truth = company.products_first_seen_in(window.start, window.end);
            let mut is_truth = vec![false; m];
            for p in &truth {
                is_truth[p.index()] = true;
            }
            let scores = model.predict_row(row);
            if wi == 0 {
                first_window_scores.extend(
                    scores
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| !owned[p])
                        .map(|(_, &s)| s),
                );
            }
            for (pi, &phi) in thresholds.iter().enumerate() {
                relevant[pi][wi] += truth.len() as f64;
                for (p, &s) in scores.iter().enumerate() {
                    if owned[p] || s < phi {
                        continue;
                    }
                    retrieved[pi][wi] += 1.0;
                    if is_truth[p] {
                        correct[pi][wi] += 1.0;
                    }
                }
            }
        }
    }

    let points = thresholds
        .iter()
        .enumerate()
        .map(|(pi, &phi)| {
            let mut precisions = Vec::new();
            let mut recalls = Vec::new();
            let mut f1s = Vec::new();
            let mut windows_scored = 0usize;
            for wi in 0..n_win {
                let (ret, cor, rel) = (retrieved[pi][wi], correct[pi][wi], relevant[pi][wi]);
                // Same convention as `hlm_eval::evaluate_recommender`: every
                // window contributes to all three metrics (precision 0 when
                // nothing is retrieved), so the means stay finite and
                // comparable across metrics.
                if ret > 0.0 {
                    windows_scored += 1;
                }
                let precision = if ret > 0.0 { cor / ret } else { 0.0 };
                precisions.push(precision);
                let recall = if rel > 0.0 { cor / rel } else { 0.0 };
                recalls.push(recall);
                f1s.push(if precision + recall > 0.0 {
                    2.0 * precision * recall / (precision + recall)
                } else {
                    0.0
                });
            }
            ThresholdPoint {
                phi,
                precision: mean_ci(&precisions, 0.95),
                recall: mean_ci(&recalls, 0.95),
                f1: mean_ci(&f1s, 0.95),
                windows_scored,
                retrieved: mean_ci(&retrieved[pi], 0.95),
                correct: mean_ci(&correct[pi], 0.95),
                relevant: mean_ci(&relevant[pi], 0.95),
            }
        })
        .collect();
    BpmfEvaluation {
        scores: first_window_scores,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlm_datagen::GeneratorConfig;
    use hlm_engine::{AprioriConfig, LdaEstimator, ModelSpec, NgramConfig};
    use hlm_eval::{evaluate_recommender, RecEvalConfig, RecommenderFactory};
    use hlm_lda::LdaConfig;
    use hlm_lstm::{AdamOptions, LstmConfig, TrainOptions};

    fn corpus() -> Corpus {
        hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(250, 3))
    }

    fn quick_eval_cfg() -> RecEvalConfig {
        RecEvalConfig {
            windows: hlm_corpus::SlidingWindows::new(Month::from_ym(2013, 1), 12, 4, 4).collect(),
            thresholds: vec![0.0, 0.05, 0.1, 0.3, 0.9],
            retrain_per_window: false,
            require_history: true,
        }
    }

    fn factory(spec: ModelSpec) -> Box<dyn RecommenderFactory> {
        spec.factory()
            .expect("the spec has a sliding-window factory")
    }

    fn quick_lda_factory(k: usize) -> Box<dyn RecommenderFactory> {
        factory(ModelSpec::Lda {
            config: LdaConfig {
                n_topics: k,
                vocab_size: 38,
                n_iters: 40,
                burn_in: 20,
                sample_lag: 5,
                ..Default::default()
            },
            estimator: LdaEstimator::Gibbs,
        })
    }

    #[test]
    fn lda_recommender_end_to_end() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let (train, test) = ids.split_at(180);
        let lda = quick_lda_factory(3);
        let pts = evaluate_recommender(lda.as_ref(), &c, train, test, &quick_eval_cfg());
        assert_eq!(pts.len(), 5);
        // Retrieval shrinks with the threshold; recall at phi=0 is 1 (every
        // unowned product retrieved).
        assert!(
            (pts[0].recall.mean - 1.0).abs() < 1e-9,
            "recall@0 {}",
            pts[0].recall.mean
        );
        assert!(pts[4].retrieved.mean < pts[0].retrieved.mean);
        // Scores are probabilities over 38 products: phi=0.9 retrieves ~nothing.
        assert!(pts[4].retrieved.mean < 1.0);
    }

    #[test]
    fn chh_recommender_end_to_end() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let (train, test) = ids.split_at(180);
        let factory = factory(ModelSpec::ChhExact {
            depth: 2,
            vocab_size: 38,
        });
        assert_eq!(factory.name(), "CHH");
        let pts = evaluate_recommender(factory.as_ref(), &c, train, test, &quick_eval_cfg());
        // CHH must retrieve something at low thresholds and be better than
        // random guessing on precision at phi = 0.1.
        assert!(pts[2].retrieved.mean > 0.0);
        let baseline = 1.0 / 38.0;
        assert!(
            pts[2].precision.mean > baseline,
            "CHH precision {} should beat random {baseline}",
            pts[2].precision.mean
        );
    }

    #[test]
    fn ngram_recommender_end_to_end() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let (train, test) = ids.split_at(180);
        let factory = factory(ModelSpec::Ngram(NgramConfig::bigram(38)));
        assert_eq!(factory.name(), "2-gram");
        let pts = evaluate_recommender(factory.as_ref(), &c, train, test, &quick_eval_cfg());
        assert!(pts[0].recall.mean > 0.99);
        assert!(pts[1].retrieved.mean > 0.0);
    }

    #[test]
    fn lstm_recommender_end_to_end_small() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let (train, test) = ids.split_at(180);
        let factory = factory(ModelSpec::Lstm {
            config: LstmConfig {
                vocab_size: 38,
                hidden_size: 10,
                n_layers: 1,
                dropout: 0.1,
                ..Default::default()
            },
            train: TrainOptions {
                epochs: 2,
                batch_size: 16,
                adam: AdamOptions::default(),
                patience: 0,
                seed: 7,
                verbose: false,
                ..Default::default()
            },
            seed: 11,
        });
        let pts = evaluate_recommender(
            factory.as_ref(),
            &c,
            &train[..120],
            &test[..40],
            &quick_eval_cfg(),
        );
        assert!(pts[0].recall.mean > 0.99);
        // Distributions over 38 products: thresholding at 0.9 kills recall.
        assert!(pts[4].recall.mean < 0.2);
    }

    #[test]
    fn bpmf_evaluation_degenerates_like_figure_5() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().take(120).collect();
        let windows: Vec<TimeWindow> =
            hlm_corpus::SlidingWindows::new(Month::from_ym(2013, 1), 12, 4, 3).collect();
        let cfg = BpmfConfig {
            n_iters: 25,
            burn_in: 10,
            n_factors: 5,
            ..Default::default()
        };
        let eval = evaluate_bpmf(&c, &ids, &windows, &[0.90, 0.93, 0.96, 0.99], &cfg, false);
        assert!(!eval.scores.is_empty());
        // Figure 5: the bulk of the scores sits high in [0, 1].
        let median = {
            let mut s = eval.scores.clone();
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            s[s.len() / 2]
        };
        assert!(median > 0.8, "median BPMF score {median}");
        // Figure 6: thresholds below the score mass retrieve nearly every
        // unowned product -> recall near 1, precision near the base rate.
        let first = &eval.points[0];
        assert!(first.recall.mean > 0.6, "recall {}", first.recall.mean);
        assert!(
            first.precision.mean < 0.3,
            "precision {}",
            first.precision.mean
        );
        // Degeneracy: thresholds across [0.90, 0.96] barely change what is
        // retrieved (the score mass sits above them all).
        let r0 = eval.points[0].retrieved.mean;
        let r2 = eval.points[2].retrieved.mean;
        assert!(
            r2 > 0.5 * r0,
            "retrieval cliff between 0.90 and 0.96: {r0} -> {r2}"
        );
    }

    #[test]
    fn apriori_recommender_end_to_end() {
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().collect();
        let (train, test) = ids.split_at(180);
        let factory = factory(ModelSpec::Apriori {
            config: AprioriConfig {
                min_support: 0.03,
                min_confidence: 0.1,
                max_len: 3,
            },
            vocab_size: 38,
        });
        assert_eq!(factory.name(), "Apriori");
        let pts = evaluate_recommender(factory.as_ref(), &c, train, test, &quick_eval_cfg());
        // Rules fire: something is retrieved at low thresholds.
        assert!(pts[2].retrieved.mean > 0.0, "rules should fire");
        // The right baseline is the empirical base rate — the precision of
        // recommending every unowned product (what random achieves at
        // phi = 0).
        let random = evaluate_recommender(
            &hlm_eval::RandomRecommender::new(38),
            &c,
            train,
            test,
            &quick_eval_cfg(),
        );
        let base_rate = random[0].precision.mean;
        assert!(
            pts[2].precision.mean > base_rate,
            "Apriori precision {} vs base rate {base_rate}",
            pts[2].precision.mean
        );
        // Unlike the probabilistic models, confidences don't sum to 1, so
        // recall at phi = 0.9 can still be nonzero but must be far below 1.
        assert!(pts[4].recall.mean < 0.5);
    }

    #[test]
    fn factories_only_see_history_before_cutoff() {
        // Train at a cutoff before any data exists -> LDA factory must not
        // panic (empty docs) and the CHH model knows nothing.
        let c = corpus();
        let ids: Vec<CompanyId> = c.ids().take(30).collect();
        let chh = factory(ModelSpec::ChhExact {
            depth: 2,
            vocab_size: 38,
        });
        let model = chh.train(&c, &ids, Month::from_ym(1980, 1));
        assert_eq!(model.scores(&[0, 1]), vec![0.0; 38]);
    }
}
