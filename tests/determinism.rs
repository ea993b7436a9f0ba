//! Seed-to-output determinism across the whole stack: identical seeds must
//! give bit-identical corpora, models, and evaluation numbers; different
//! seeds must differ. This is what makes every reproduced table
//! re-generable.

use hlm_lda::document_completion_perplexity;
use hlm_tests::{index_sequences, quick_lda, test_corpus, test_split};

#[test]
fn corpus_generation_is_bit_deterministic() {
    let a = test_corpus(200, 61);
    let b = test_corpus(200, 61);
    for (ca, cb) in a.companies().iter().zip(b.companies()) {
        assert_eq!(ca.events(), cb.events());
        assert_eq!(ca.revenue_musd, cb.revenue_musd);
        assert_eq!(ca.site_count, cb.site_count);
    }
}

#[test]
fn splits_and_lda_perplexities_are_deterministic() {
    let corpus = test_corpus(300, 62);
    let s1 = test_split(&corpus);
    let s2 = test_split(&corpus);
    assert_eq!(s1.train, s2.train);

    let (m1, _) = quick_lda(&corpus, &s1.train, 3);
    let (m2, _) = quick_lda(&corpus, &s2.train, 3);
    assert_eq!(
        m1.phi(),
        m2.phi(),
        "Gibbs chains with equal seeds must agree"
    );

    let test_docs = hlm_core::representations::binary_docs(&corpus, &s1.test);
    let p1 = document_completion_perplexity(&m1, &test_docs);
    let p2 = document_completion_perplexity(&m2, &test_docs);
    assert_eq!(p1, p2);
}

#[test]
fn different_seeds_change_the_corpus_and_the_models() {
    let a = test_corpus(200, 63);
    let b = test_corpus(200, 64);
    let differs = a
        .companies()
        .iter()
        .zip(b.companies())
        .any(|(x, y)| x.product_set() != y.product_set());
    assert!(differs);
}

#[test]
fn full_recommendation_run_is_reproducible() {
    use hlm_corpus::{Month, SlidingWindows};
    use hlm_eval::{evaluate_recommender, RecEvalConfig};

    let corpus = test_corpus(300, 65);
    let split = test_split(&corpus);
    let cfg = RecEvalConfig {
        windows: SlidingWindows::new(Month::from_ym(2013, 1), 12, 6, 3).collect(),
        thresholds: vec![0.05, 0.1],
        retrain_per_window: false,
        require_history: true,
    };
    let factory = hlm_engine::ModelSpec::Lda {
        config: hlm_tests::quick_lda_config(3, corpus.vocab().len()),
        estimator: hlm_engine::LdaEstimator::Gibbs,
    }
    .factory()
    .expect("Gibbs LDA has a sliding-window factory");
    let run = || {
        evaluate_recommender(factory.as_ref(), &corpus, &split.train, &split.test, &cfg)
            .into_iter()
            .map(|p| (p.recall.mean, p.f1.mean, p.retrieved.mean))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn lstm_training_is_reproducible() {
    use hlm_lstm::{AdamOptions, LstmConfig, LstmLm, TrainOptions, Trainer};
    let corpus = test_corpus(150, 66);
    let ids: Vec<_> = corpus.ids().collect();
    let seqs = index_sequences(&corpus, &ids);
    let train = |seed: u64| {
        let mut m = LstmLm::new(
            LstmConfig {
                vocab_size: 38,
                hidden_size: 10,
                n_layers: 1,
                dropout: 0.3,
                ..Default::default()
            },
            seed,
        );
        Trainer::new(TrainOptions {
            epochs: 2,
            batch_size: 8,
            adam: AdamOptions::default(),
            patience: 0,
            seed: 5,
            verbose: false,
            ..Default::default()
        })
        .fit(&mut m, &seqs, &[]);
        m.predict_next(&[0, 5])
    };
    assert_eq!(train(9), train(9));
    assert_ne!(train(9), train(10));
}
