//! Figure 2: LDA test perplexity vs number of latent topics, for binary and
//! TF-IDF inputs.
//!
//! Paper result: binary input beats TF-IDF input everywhere, and low topic
//! counts (2–4) give the lowest perplexity (8.5–8.9 on the HG corpus).

use crate::ExpScale;
use hlm_corpus::tfidf::TfIdf;
use hlm_corpus::Corpus;
use hlm_engine::{LdaEstimator, TrainPlan};
use hlm_eval::report::{fmt_f, Table};
use hlm_lda::{document_completion_perplexity, LdaConfig, LdaModel, WeightedDoc};

/// Topic counts swept (the paper's x-axis runs 2..16).
pub(crate) const TOPIC_GRID: [usize; 10] = [2, 3, 4, 5, 6, 8, 10, 12, 14, 16];

/// Trains one LDA configuration through the engine.
pub fn train_lda(
    scale: &ExpScale,
    corpus: &Corpus,
    docs: &[WeightedDoc],
    n_topics: usize,
) -> LdaModel {
    let config = LdaConfig {
        n_topics,
        vocab_size: corpus.vocab().len(),
        n_iters: scale.lda_iters,
        burn_in: scale.lda_iters / 2,
        sample_lag: 5,
        seed: scale.seed ^ n_topics as u64,
        alpha: None,
        beta: 0.1,
        ..Default::default()
    };
    hlm_engine::fit_lda_resilient(config, LdaEstimator::Gibbs, docs, TrainPlan::new())
        .expect("valid LDA spec")
        .model
}

/// Raw data point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct LdaPoint {
    /// Number of latent topics.
    pub topics: usize,
    /// Test perplexity with binary input.
    pub binary: f64,
    /// Test perplexity with TF-IDF input.
    pub tfidf: f64,
}

/// Runs the sweep and returns the raw series.
pub fn sweep(scale: &ExpScale) -> Vec<LdaPoint> {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let tfidf = TfIdf::fit(&corpus, &split.train);

    let train_bin = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test_bin = hlm_core::representations::binary_docs(&corpus, &split.test);
    let train_tfidf = hlm_core::representations::tfidf_docs(&corpus, &split.train, &tfidf);
    let test_tfidf = hlm_core::representations::tfidf_docs(&corpus, &split.test, &tfidf);

    TOPIC_GRID
        .iter()
        .map(|&k| {
            eprintln!("[fig2] LDA with {k} topics…");
            let m_bin = train_lda(scale, &corpus, &train_bin, k);
            let m_tfidf = train_lda(scale, &corpus, &train_tfidf, k);
            LdaPoint {
                topics: k,
                binary: document_completion_perplexity(&m_bin, &test_bin),
                tfidf: document_completion_perplexity(&m_tfidf, &test_tfidf),
            }
        })
        .collect()
}

/// Runs the experiment and renders the Figure-2 series.
pub fn run(scale: &ExpScale) -> Vec<Table> {
    let points = sweep(scale);
    let mut t = Table::new(
        format!(
            "Figure 2 — LDA average perplexity per product on test data (scale: {})",
            scale.name
        ),
        &[
            "topics",
            "perplexity (binary input)",
            "perplexity (TF-IDF input)",
        ],
    );
    for p in &points {
        t.add_row(vec![
            p.topics.to_string(),
            fmt_f(p.binary, 3),
            fmt_f(p.tfidf, 3),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_shape_matches_paper() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 400;
        let corpus = scale.corpus();
        let split = scale.split(&corpus);
        let train = hlm_core::representations::binary_docs(&corpus, &split.train);
        let test = hlm_core::representations::binary_docs(&corpus, &split.test);

        let ppl = |k: usize| {
            let m = train_lda(&scale, &corpus, &train, k);
            document_completion_perplexity(&m, &test)
        };
        let p1 = ppl(1);
        let p3 = ppl(3);
        let p12 = ppl(12);
        // 3 topics (the planted truth) must beat the unigram-equivalent 1
        // topic; 12 topics must not beat 3 substantially.
        assert!(p3 < p1, "3 topics {p3} must beat 1 topic {p1}");
        assert!(
            p12 > p3 * 0.9,
            "12 topics {p12} should not dominate 3 topics {p3}"
        );
        assert!(p3 < 38.0, "sane perplexity bound");
    }
}
