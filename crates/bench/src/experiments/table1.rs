//! Table 1: minimum perplexity achieved by each method family.
//!
//! Paper ranking: LDA 8.5 < LSTM 11.6 < n-grams 15.5 < unigram BOW 19.5.

use crate::experiments::{fig1_lstm, fig2_lda};
use crate::ExpScale;
use hlm_engine::{ModelSpec, TrainPlan};
use hlm_eval::report::{fmt_f, Table};
use hlm_lda::document_completion_perplexity;
use hlm_ngram::NgramConfig;

/// Minimum perplexity per method family.
#[derive(Debug, Clone)]
pub(crate) struct MethodResult {
    /// Family label.
    pub method: String,
    /// Best test perplexity across the family's parameter grid.
    pub min_perplexity: f64,
}

/// Computes the Table-1 entries.
pub(crate) fn compute(scale: &ExpScale) -> Vec<MethodResult> {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);

    // LDA: best over 2/3/4 topics with binary input (the paper's winners).
    let train_docs = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test_docs = hlm_core::representations::binary_docs(&corpus, &split.test);
    let lda_best = [2usize, 3, 4]
        .iter()
        .map(|&k| {
            eprintln!("[table1] LDA {k} topics…");
            let m = fig2_lda::train_lda(scale, &corpus, &train_docs, k);
            document_completion_perplexity(&m, &test_docs)
        })
        .fold(f64::INFINITY, f64::min);

    // LSTM: the paper's best architecture (1 layer, 200 nodes).
    let train_seqs = fig1_lstm::sequences(&corpus, &split.train);
    let valid_seqs = fig1_lstm::sequences(&corpus, &split.valid);
    let test_seqs = fig1_lstm::sequences(&corpus, &split.test);
    eprintln!("[table1] LSTM 1 layer × 200 nodes…");
    let lstm = fig1_lstm::train_and_eval(
        scale,
        corpus.vocab().len(),
        200,
        1,
        &train_seqs,
        &valid_seqs,
        &test_seqs,
    );

    // N-grams: best of bigram / trigram, trained through the engine.
    let m = corpus.vocab().len();
    let ngram_ppl = |cfg: NgramConfig| {
        ModelSpec::Ngram(cfg)
            .fit_sequences(&train_seqs, &[], TrainPlan::new())
            .expect("valid n-gram spec")
            .model
            .perplexity(&test_seqs)
            .expect("n-grams support perplexity")
    };
    let ngram_best = [NgramConfig::bigram(m), NgramConfig::trigram(m)]
        .into_iter()
        .map(ngram_ppl)
        .fold(f64::INFINITY, f64::min);

    // Unigram bag-of-words.
    let unigram = ngram_ppl(NgramConfig::unigram(m));

    let mut results = vec![
        MethodResult {
            method: "LDA".into(),
            min_perplexity: lda_best,
        },
        MethodResult {
            method: "LSTM".into(),
            min_perplexity: lstm,
        },
        MethodResult {
            method: "N-grams".into(),
            min_perplexity: ngram_best,
        },
        MethodResult {
            method: "Unigram 'bag of words'".into(),
            min_perplexity: unigram,
        },
    ];
    results.sort_by(|a, b| {
        a.min_perplexity
            .partial_cmp(&b.min_perplexity)
            .expect("finite perplexities")
    });
    results
}

/// Runs the experiment and renders Table 1.
pub fn run(scale: &ExpScale) -> Vec<Table> {
    let results = compute(scale);
    let mut t = Table::new(
        format!(
            "Table 1 — minimum perplexities achieved by each method (scale: {})",
            scale.name
        ),
        &["rank", "method name", "min. perplexity"],
    );
    for (i, r) in results.iter().enumerate() {
        t.add_row(vec![
            (i + 1).to_string(),
            r.method.clone(),
            fmt_f(r.min_perplexity, 2),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline ranking of the paper, end-to-end at smoke scale: LDA
    /// beats the sequence models, which beat the unigram baseline.
    #[test]
    fn ranking_matches_paper() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 500;
        scale.lda_iters = 80;
        scale.lstm_epochs = 3;
        let results = compute(&scale);
        let rank: Vec<&str> = results.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(rank[0], "LDA", "LDA must rank first: {results:?}");
        assert_eq!(
            rank[3], "Unigram 'bag of words'",
            "unigram must rank last: {results:?}"
        );
        // LDA should win by a clear margin over the unigram baseline.
        assert!(results[0].min_perplexity * 1.3 < results[3].min_perplexity);
    }
}
