//! Pinned outputs of the engine's training paths. Each case trains every
//! model family the engine serves and fingerprints what it answers (FNV-1a
//! over `f64::to_bits`) against a constant recorded while every family still
//! had its own sliding-window adapter and its own plain and resilient
//! `fit_sequences` routes. Once those routes fold into one path per family,
//! these constants keep the comparison against the replaced code.

use hlm_chh::AprioriConfig;
use hlm_corpus::{CompanyId, Corpus, Month, SlidingWindows};
use hlm_engine::{LdaEstimator, ModelSpec, TrainPlan};
use hlm_eval::{evaluate_recommender, RecEvalConfig, ThresholdPoint};
use hlm_lda::LdaConfig;
use hlm_lstm::{LstmConfig, TrainOptions};
use hlm_ngram::NgramConfig;
use hlm_tests::{index_sequences, test_corpus, test_split};

/// FNV-1a over the little-endian bits of every value, in order.
fn fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in values {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every threshold point's recall, F1, retrieved, correct and relevant mean.
fn points_fingerprint(points: &[ThresholdPoint]) -> u64 {
    fingerprint(points.iter().flat_map(|p| {
        [
            p.recall.mean,
            p.f1.mean,
            p.retrieved.mean,
            p.correct.mean,
            p.relevant.mean,
        ]
    }))
}

/// One spec per family the engine trains on histories, in registry order.
/// The LDA estimator is a parameter: the sliding-window factory refuses VB.
fn specs(vocab: usize, lda: LdaEstimator) -> Vec<ModelSpec> {
    vec![
        ModelSpec::Ngram(NgramConfig::bigram(vocab)),
        ModelSpec::Lda {
            config: LdaConfig {
                n_topics: 3,
                vocab_size: vocab,
                n_iters: 40,
                burn_in: 20,
                sample_lag: 5,
                seed: 7,
                ..Default::default()
            },
            estimator: lda,
        },
        ModelSpec::Lstm {
            config: LstmConfig {
                vocab_size: vocab,
                hidden_size: 8,
                n_layers: 1,
                dropout: 0.1,
                ..Default::default()
            },
            train: TrainOptions {
                epochs: 2,
                batch_size: 16,
                patience: 1,
                seed: 5,
                ..Default::default()
            },
            seed: 11,
        },
        ModelSpec::ChhExact {
            depth: 2,
            vocab_size: vocab,
        },
        ModelSpec::ChhStreaming {
            depth: 2,
            vocab_size: vocab,
            max_contexts: 40,
            counters_per_context: 6,
        },
        ModelSpec::Apriori {
            config: AprioriConfig {
                min_support: 0.03,
                min_confidence: 0.1,
                max_len: 3,
            },
            vocab_size: vocab,
        },
    ]
}

fn corpus_and_split() -> (Corpus, Vec<CompanyId>, Vec<CompanyId>, Vec<CompanyId>) {
    let corpus = test_corpus(300, 41);
    let split = test_split(&corpus);
    (corpus, split.train, split.valid, split.test)
}

/// Sliding-window factory outputs: bigram, LDA3 (Gibbs), LSTM, exact CHH,
/// streaming CHH and Apriori, in [`specs`] order.
const FACTORY: [u64; 6] = [
    0x40cb277dff479373,
    0x95f1382351bc881d,
    0x7af58a3d9cdd1424,
    0x730868a96816ccb2,
    0x7301ceca243e3fda,
    0xd48f4dc12c939d9a,
];

#[test]
fn factory_outputs_are_pinned() {
    let (corpus, train, _, test) = corpus_and_split();
    let cfg = RecEvalConfig {
        windows: SlidingWindows::new(Month::from_ym(2013, 1), 12, 4, 4).collect(),
        thresholds: vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8],
        retrain_per_window: false,
        require_history: true,
    };
    let got: Vec<u64> = specs(corpus.vocab().len(), LdaEstimator::Gibbs)
        .iter()
        .map(|spec| {
            let factory = spec.factory().expect("every spec here has a factory");
            assert_eq!(factory.name(), spec.label());
            points_fingerprint(&evaluate_recommender(
                factory.as_ref(),
                &corpus,
                &train,
                &test,
                &cfg,
            ))
        })
        .collect();
    assert_eq!(got, FACTORY, "{got:#018x?}");
}

/// Fixed install-base histories the sequence case scores.
const HISTORIES: [&[usize]; 4] = [&[0], &[0, 3], &[5, 1, 2], &[7, 12, 20, 3, 9]];

/// Sequence-trained outputs: bigram, LDA3 (Gibbs, then VB), LSTM, exact
/// CHH, streaming CHH and Apriori. Each hashes `recommend` on
/// [`HISTORIES`], then the held-out perplexity where the family has one.
const SEQUENCES: [u64; 7] = [
    0xa87b8b15a2cb9bf7,
    0x103a5fac732c17af,
    0x821fea4beb7a700f,
    0x1eb9ee0c17219395,
    0xee17c257fb27a016,
    0xc8afb6162b982225,
    0xc1dfa7ac04ef3e9f,
];

#[test]
fn sequence_fit_outputs_are_pinned() {
    let (corpus, train, valid, test) = corpus_and_split();
    let (train, valid, test) = (
        index_sequences(&corpus, &train),
        index_sequences(&corpus, &valid),
        index_sequences(&corpus, &test),
    );
    let vocab = corpus.vocab().len();
    let mut all = specs(vocab, LdaEstimator::Gibbs);
    all.insert(2, specs(vocab, LdaEstimator::Vb).swap_remove(1));
    let got: Vec<u64> = all
        .iter()
        .map(|spec| {
            let model = spec
                .fit_sequences(&train, &valid, TrainPlan::new())
                .expect("every spec here trains on sequences")
                .model;
            let mut values: Vec<f64> = HISTORIES
                .iter()
                .flat_map(|h| model.recommend(h).expect("every family recommends"))
                .collect();
            if let Ok(ppl) = model.perplexity(&test) {
                values.push(ppl);
            }
            fingerprint(values)
        })
        .collect();
    assert_eq!(got, SEQUENCES, "{got:#018x?}");
}
