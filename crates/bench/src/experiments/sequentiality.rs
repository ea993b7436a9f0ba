//! Section-5 baseline statistics: the sequentiality check quoted from [19]
//! (69% of bigrams / 43% of trigrams significantly non-i.i.d. on the HG
//! corpus) and the n-gram perplexity baselines (unigram 19.5, n-gram
//! ≥ 15.5).

use crate::experiments::fig1_lstm::sequences;
use crate::ExpScale;
use hlm_engine::{ModelSpec, TrainPlan};
use hlm_eval::report::{fmt_f, Table};
use hlm_eval::sequentiality_report;
use hlm_ngram::NgramConfig;

/// Test perplexity of one n-gram configuration, trained via the engine.
fn ngram_perplexity(cfg: NgramConfig, train: &[Vec<usize>], test: &[Vec<usize>]) -> f64 {
    ModelSpec::Ngram(cfg)
        .fit_sequences(train, &[], TrainPlan::new())
        .expect("valid n-gram spec")
        .model
        .perplexity(test)
        .expect("n-grams support perplexity")
}

/// Runs the sequentiality test and the baseline perplexities.
pub fn run(scale: &ExpScale) -> Vec<Table> {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let ids: Vec<_> = corpus.ids().collect();
    let product_seqs = corpus.sequences_for(&ids);

    let mut seq_table = Table::new(
        format!(
            "Sequentiality of product time series (scale: {})",
            scale.name
        ),
        &[
            "order",
            "distinct n-grams",
            "significant (p < 0.05)",
            "fraction",
        ],
    );
    for order in [2usize, 3] {
        let rep = sequentiality_report(&product_seqs, order, 0.05);
        seq_table.add_row(vec![
            order.to_string(),
            rep.distinct_ngrams.to_string(),
            rep.significant.to_string(),
            fmt_f(rep.significant_fraction, 3),
        ]);
    }

    let train = sequences(&corpus, &split.train);
    let test = sequences(&corpus, &split.test);
    let m = corpus.vocab().len();
    let mut ppl_table = Table::new(
        format!(
            "Baseline n-gram perplexities on test data (scale: {})",
            scale.name
        ),
        &["model", "test perplexity"],
    );
    for (name, cfg) in [
        ("unigram 'bag of words'", NgramConfig::unigram(m)),
        ("bigram", NgramConfig::bigram(m)),
        ("trigram", NgramConfig::trigram(m)),
    ] {
        let ppl = ngram_perplexity(cfg, &train, &test);
        ppl_table.add_row(vec![name.to_string(), fmt_f(ppl, 2)]);
    }
    vec![seq_table, ppl_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_corpus_is_significantly_sequential() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 500;
        let corpus = scale.corpus();
        let ids: Vec<_> = corpus.ids().collect();
        let seqs = corpus.sequences_for(&ids);

        let bi = sequentiality_report(&seqs, 2, 0.05);
        let tri = sequentiality_report(&seqs, 3, 0.05);
        // The paper's corpus: 69% / 43% at 860k companies. The
        // scale-independent claim is that both fractions sit far above the
        // 5% false-positive rate an i.i.d. stream would produce (the exact
        // bigram/trigram ordering depends on corpus size — see
        // EXPERIMENTS.md).
        assert!(
            bi.significant_fraction > 0.15,
            "bigram fraction {}",
            bi.significant_fraction
        );
        assert!(
            tri.significant_fraction > 0.15,
            "trigram fraction {}",
            tri.significant_fraction
        );
    }

    #[test]
    fn ngram_perplexities_are_ordered_like_table_1() {
        let mut scale = ExpScale::smoke();
        scale.n_companies = 500;
        let corpus = scale.corpus();
        let split = scale.split(&corpus);
        let train = sequences(&corpus, &split.train);
        let test = sequences(&corpus, &split.test);
        let m = corpus.vocab().len();
        let uni = ngram_perplexity(NgramConfig::unigram(m), &train, &test);
        let bi = ngram_perplexity(NgramConfig::bigram(m), &train, &test);
        assert!(bi < uni, "bigram {bi} must beat unigram {uni}");
        // The model's token alphabet is M + 2 (BOS/EOS share the LSTM
        // conventions), so a skew-free corpus would measure 40 here;
        // popularity skew must pull the unigram visibly below that.
        assert!(uni < 39.0 && uni > 5.0, "unigram perplexity {uni}");
    }
}
