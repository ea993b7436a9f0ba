//! Model comparison on one corpus: perplexity of every generative model
//! family (a miniature Table 1) plus the sequentiality statistics the paper
//! quotes from [19].
//!
//! ```sh
//! cargo run -p hlm-examples --release --bin model_comparison
//! ```

use hlm_corpus::Split;
use hlm_engine::{LdaEstimator, ModelSpec, TrainPlan};
use hlm_eval::report::{fmt_f, Table};
use hlm_eval::sequentiality_report;
use hlm_examples::{example_corpus, header};
use hlm_lda::{document_completion_perplexity, LdaConfig};
use hlm_lstm::{AdamOptions, LstmConfig, TrainOptions};
use hlm_ngram::NgramConfig;

fn main() {
    let corpus = example_corpus();
    let split = Split::paper(&corpus, 2019);
    let m = corpus.vocab().len();

    header("Sequential structure (the [19] check the paper quotes)");
    let ids: Vec<_> = corpus.ids().collect();
    let product_seqs = corpus.sequences_for(&ids);
    for order in [2usize, 3] {
        let rep = sequentiality_report(&product_seqs, order, 0.05);
        println!(
            "  {}-grams: {}/{} significantly non-i.i.d. ({:.1}%)",
            order,
            rep.significant,
            rep.distinct_ngrams,
            100.0 * rep.significant_fraction
        );
    }

    header("Perplexity per product on the held-out 20% (lower is better)");
    let train_docs = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test_docs = hlm_core::representations::binary_docs(&corpus, &split.test);
    let seqs = |ids: &[hlm_corpus::CompanyId]| -> Vec<Vec<usize>> {
        ids.iter()
            .map(|&id| {
                corpus
                    .company(id)
                    .product_sequence()
                    .into_iter()
                    .map(|p| p.index())
                    .collect()
            })
            .collect()
    };
    let train_seqs = seqs(&split.train);
    let valid_seqs = seqs(&split.valid);
    let test_seqs = seqs(&split.test);

    let mut rows: Vec<(String, f64)> = Vec::new();
    for k in [2usize, 3, 4] {
        eprintln!("training LDA{k}…");
        let config = LdaConfig {
            n_topics: k,
            vocab_size: m,
            n_iters: 150,
            burn_in: 75,
            sample_lag: 5,
            seed: 2019,
            alpha: None,
            beta: 0.1,
            ..Default::default()
        };
        let model = hlm_engine::fit_lda_resilient(
            config,
            LdaEstimator::Gibbs,
            &train_docs,
            TrainPlan::new(),
        )
        .expect("valid LDA spec")
        .model;
        rows.push((
            format!("LDA{k}"),
            document_completion_perplexity(&model, &test_docs),
        ));
    }
    eprintln!("training LSTM 1×100…");
    let lstm_spec = ModelSpec::Lstm {
        config: LstmConfig {
            vocab_size: m,
            hidden_size: 100,
            n_layers: 1,
            dropout: 0.2,
            ..Default::default()
        },
        train: TrainOptions {
            epochs: 6,
            batch_size: 16,
            adam: AdamOptions {
                learning_rate: 5e-3,
                ..Default::default()
            },
            patience: 3,
            seed: 2019,
            verbose: false,
            ..Default::default()
        },
        seed: 2019,
    };
    let lstm = lstm_spec
        .fit_sequences(&train_seqs, &valid_seqs, TrainPlan::new())
        .expect("valid LSTM spec")
        .model;
    rows.push((
        "LSTM (1 layer × 100)".into(),
        lstm.perplexity(&test_seqs)
            .expect("LSTMs support perplexity"),
    ));
    for (name, cfg) in [
        ("trigram", NgramConfig::trigram(m)),
        ("bigram", NgramConfig::bigram(m)),
        ("unigram bag-of-words", NgramConfig::unigram(m)),
    ] {
        let trained = ModelSpec::Ngram(cfg)
            .fit_sequences(&train_seqs, &[], TrainPlan::new())
            .expect("valid n-gram spec")
            .model;
        let ppl = trained
            .perplexity(&test_seqs)
            .expect("n-grams support perplexity");
        rows.push((name.into(), ppl));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));

    let mut table = Table::new("", &["rank", "model", "test perplexity"]);
    for (i, (name, ppl)) in rows.iter().enumerate() {
        table.add_row(vec![(i + 1).to_string(), name.clone(), fmt_f(*ppl, 2)]);
    }
    println!("{}", table.render());
    println!("Paper Table 1 ordering: LDA < LSTM < n-grams < unigram.");
}
