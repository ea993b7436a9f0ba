//! Invariants of the sliding-window recommendation evaluation across model
//! families.

use hlm_corpus::{Month, SlidingWindows};
use hlm_engine::{LdaEstimator, ModelSpec};
use hlm_eval::{evaluate_recommender, RandomRecommender, RecEvalConfig, RecommenderFactory};
use hlm_ngram::NgramConfig;
use hlm_tests::{quick_lda_config, test_corpus, test_split};

fn factory(spec: ModelSpec) -> Box<dyn RecommenderFactory> {
    spec.factory()
        .expect("the spec has a sliding-window factory")
}

fn lda3(vocab: usize) -> Box<dyn RecommenderFactory> {
    factory(ModelSpec::Lda {
        config: quick_lda_config(3, vocab),
        estimator: LdaEstimator::Gibbs,
    })
}

fn chh(vocab: usize) -> Box<dyn RecommenderFactory> {
    factory(ModelSpec::ChhExact {
        depth: 2,
        vocab_size: vocab,
    })
}

fn protocol() -> RecEvalConfig {
    RecEvalConfig {
        windows: SlidingWindows::new(Month::from_ym(2013, 1), 12, 4, 4).collect(),
        thresholds: vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8],
        retrain_per_window: false,
        require_history: true,
    }
}

#[test]
fn counting_invariants_hold_for_every_method() {
    let corpus = test_corpus(400, 21);
    let split = test_split(&corpus);
    let cfg = protocol();
    let m = corpus.vocab().len();

    let lda = lda3(m);
    let chh = chh(m);
    let ngram = factory(ModelSpec::Ngram(NgramConfig::bigram(m)));
    let random = RandomRecommender::new(m);

    for factory in [lda.as_ref(), chh.as_ref(), ngram.as_ref(), &random] {
        let pts = evaluate_recommender(factory, &corpus, &split.train, &split.test, &cfg);
        assert_eq!(pts.len(), cfg.thresholds.len(), "{}", factory.name());
        for p in &pts {
            // correct <= retrieved, correct <= relevant.
            assert!(
                p.correct.mean <= p.retrieved.mean + 1e-9,
                "{}: correct {} > retrieved {}",
                factory.name(),
                p.correct.mean,
                p.retrieved.mean
            );
            assert!(
                p.correct.mean <= p.relevant.mean + 1e-9,
                "{}: correct beyond relevant",
                factory.name()
            );
            // Measures in range.
            for v in [p.recall.mean, p.f1.mean] {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&v),
                    "{}: out of range",
                    factory.name()
                );
            }
        }
        // Retrieval is monotone non-increasing in the threshold.
        for pair in pts.windows(2) {
            assert!(
                pair[1].retrieved.mean <= pair[0].retrieved.mean + 1e-9,
                "{}: retrieval not monotone",
                factory.name()
            );
        }
        // phi = 0 retrieves every unowned product: recall is 1.
        assert!(
            (pts[0].recall.mean - 1.0).abs() < 1e-9,
            "{}: recall at phi 0 is {}",
            factory.name(),
            pts[0].recall.mean
        );
    }
}

#[test]
fn trained_models_beat_random_on_precision() {
    let corpus = test_corpus(500, 22);
    let split = test_split(&corpus);
    let cfg = protocol();
    let m = corpus.vocab().len();

    // Random precision at phi=0 = base rate of relevant among unowned.
    let random = evaluate_recommender(
        &RandomRecommender::new(m),
        &corpus,
        &split.train,
        &split.test,
        &cfg,
    );
    let base_rate = random[0].precision.mean;

    let lda = lda3(m);
    let pts = evaluate_recommender(lda.as_ref(), &corpus, &split.train, &split.test, &cfg);
    // At phi = 0.05 LDA should be selective and beat the base rate.
    let p_lda = pts[2].precision.mean;
    assert!(
        p_lda > base_rate * 1.3,
        "LDA precision {p_lda} should beat random base rate {base_rate}"
    );
}

#[test]
fn paper_windows_are_thirteen() {
    let windows: Vec<_> = SlidingWindows::paper_evaluation().collect();
    assert_eq!(windows.len(), 13);
    // The harness accepts them directly.
    let corpus = test_corpus(150, 23);
    let split = test_split(&corpus);
    let cfg = RecEvalConfig {
        windows,
        thresholds: vec![0.1],
        retrain_per_window: false,
        require_history: true,
    };
    let chh = chh(corpus.vocab().len());
    let pts = evaluate_recommender(chh.as_ref(), &corpus, &split.train, &split.test, &cfg);
    assert_eq!(pts[0].retrieved.n, 13, "one observation per window");
}

#[test]
fn bpmf_counts_are_consistent_too() {
    let corpus = test_corpus(200, 24);
    let ids: Vec<_> = corpus.ids().take(80).collect();
    let windows: Vec<_> = SlidingWindows::new(Month::from_ym(2013, 1), 12, 6, 2).collect();
    let cfg = hlm_bpmf::BpmfConfig {
        n_iters: 20,
        burn_in: 8,
        n_factors: 4,
        ..Default::default()
    };
    let eval = hlm_core::evaluate_bpmf(&corpus, &ids, &windows, &[0.5, 0.9, 0.99], &cfg, false);
    for p in &eval.points {
        assert!(p.correct.mean <= p.retrieved.mean + 1e-9);
        assert!(p.correct.mean <= p.relevant.mean + 1e-9);
    }
    assert!(eval.scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
}
