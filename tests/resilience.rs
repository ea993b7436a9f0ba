//! Cross-crate resilience suite: kill/resume equivalence for every
//! checkpointed trainer, corruption recovery through seeded fault injection,
//! and degraded-mode serving. Everything here is deterministic — faults fire
//! by write count or iteration, never by wall clock.

use hlm_corpus::Month;
use hlm_engine::{Engine, LdaEstimator, ModelSpec, ServeOptions, TrainPlan};
use hlm_lda::{unit_weights, GibbsTrainer, LdaConfig, GIBBS_CHECKPOINT_KIND};
use hlm_lstm::{LstmConfig, LstmLm, TrainOptions, Trainer, LSTM_CHECKPOINT_KIND};
use hlm_ngram::NgramConfig;
use hlm_resilience::{
    Checkpoint, CheckpointStore, Fault, FaultPlan, FaultyIo, MemIo, RunGuard, TrainControl,
};
use hlm_tests::{index_sequences, test_corpus, test_split};

fn lda_cfg(seed: u64, vocab_size: usize) -> LdaConfig {
    LdaConfig {
        n_topics: 3,
        vocab_size,
        n_iters: 60,
        burn_in: 30,
        sample_lag: 5,
        seed,
        ..Default::default()
    }
}

/// Documents plus the vocabulary size they are indexed against.
fn corpus_docs() -> (Vec<hlm_lda::WeightedDoc>, usize) {
    let corpus = test_corpus(80, 17);
    let ids: Vec<_> = corpus.ids().collect();
    let docs = unit_weights(
        &index_sequences(&corpus, &ids)
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>(),
    );
    (docs, corpus.vocab().len())
}

#[test]
fn lda_gibbs_kill_resume_perplexity_matches_uninterrupted() {
    let (docs, vocab) = corpus_docs();
    let trainer = GibbsTrainer::new(lda_cfg(41, vocab));
    let full = trainer.fit(&docs);

    let store = CheckpointStore::new(Box::new(MemIo::new()));
    let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
        .with_guard(RunGuard::unlimited().abort_at_iteration(37));
    assert!(trainer
        .fit_resumable(&docs, &mut ctrl, None)
        .unwrap_err()
        .is_interruption());

    let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
    assert_eq!(ckpt.iteration, 37);
    let resumed = trainer
        .fit_resumable(&docs, &mut TrainControl::noop(), Some(&ckpt))
        .unwrap();

    let full_ppl = hlm_lda::document_completion_perplexity(&full, &docs);
    let resumed_ppl = hlm_lda::document_completion_perplexity(&resumed, &docs);
    assert!(
        (full_ppl - resumed_ppl).abs() < 1e-9,
        "perplexity diverged: {full_ppl} vs {resumed_ppl}"
    );
}

#[test]
fn lstm_kill_resume_perplexity_matches_uninterrupted() {
    let corpus = test_corpus(40, 23);
    let split = test_split(&corpus);
    let train = index_sequences(&corpus, &split.train);
    let test: Vec<Vec<usize>> = index_sequences(&corpus, &split.test)
        .into_iter()
        .filter(|s| s.len() >= 2)
        .collect();
    let cfg = LstmConfig {
        vocab_size: corpus.vocab().len(),
        hidden_size: 8,
        n_layers: 1,
        dropout: 0.1,
        ..Default::default()
    };
    let opts = TrainOptions {
        epochs: 5,
        batch_size: 8,
        patience: 0,
        seed: 3,
        verbose: false,
        ..Default::default()
    };
    let trainer = Trainer::new(opts);

    let mut full = LstmLm::new(cfg.clone(), 9);
    trainer.fit(&mut full, &train, &[]);

    let store = CheckpointStore::new(Box::new(MemIo::new()));
    let mut interrupted = LstmLm::new(cfg.clone(), 9);
    let mut ctrl = TrainControl::new(LSTM_CHECKPOINT_KIND, &store)
        .with_guard(RunGuard::unlimited().abort_at_iteration(3));
    assert!(trainer
        .fit_resumable(&mut interrupted, &train, &[], &mut ctrl, None)
        .unwrap_err()
        .is_interruption());

    let ckpt = store.latest_good(LSTM_CHECKPOINT_KIND).unwrap().unwrap();
    assert_eq!(ckpt.iteration, 3);
    let mut resumed = LstmLm::new(cfg, 9);
    trainer
        .fit_resumable(
            &mut resumed,
            &train,
            &[],
            &mut TrainControl::noop(),
            Some(&ckpt),
        )
        .unwrap();

    let full_ppl = full.perplexity(&test);
    let resumed_ppl = resumed.perplexity(&test);
    assert!(
        (full_ppl - resumed_ppl).abs() < 1e-9,
        "perplexity diverged: {full_ppl} vs {resumed_ppl}"
    );
}

#[test]
fn corrupted_checkpoints_fall_back_and_resume_matches_uninterrupted() {
    // The two newest checkpoints are damaged at write time (a torn write and
    // a silent bit flip); resume must fall back to the last good one and the
    // finished run must still match the uninterrupted model exactly.
    let (docs, vocab) = corpus_docs();
    let trainer = GibbsTrainer::new(lda_cfg(59, vocab));
    let full = trainer.fit(&docs);

    let dir = std::env::temp_dir().join(format!("hlm-resilience-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::none()
        .with(Fault::TruncateWrite {
            nth: 39,
            at_byte: 64,
        })
        .with(Fault::FlipByte {
            nth: 38,
            offset: 200,
            mask: 0x40,
        });
    let io = FaultyIo::new(hlm_resilience::FsIo::new(&dir).unwrap(), plan);
    let store = CheckpointStore::new(Box::new(io));

    let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
        .with_guard(RunGuard::unlimited().abort_at_iteration(39));
    assert!(trainer
        .fit_resumable(&docs, &mut ctrl, None)
        .unwrap_err()
        .is_interruption());

    // Writes 38 (flipped) and 39 (aborted before it happened; write 39 was
    // never attempted — truncation hits nothing) leave iteration 37 as the
    // newest intact snapshot... unless the truncated write did land, in which
    // case it must be skipped too. Either way `latest_good` returns an
    // earlier, *valid* checkpoint.
    let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
    assert!(ckpt.iteration <= 37, "damaged snapshots must be skipped");
    assert!(Checkpoint::decode(&ckpt.encode()).is_ok());

    let resumed = trainer
        .fit_resumable(&docs, &mut TrainControl::noop(), Some(&ckpt))
        .unwrap();
    let full_ppl = hlm_lda::document_completion_perplexity(&full, &docs);
    let resumed_ppl = hlm_lda::document_completion_perplexity(&resumed, &docs);
    assert!(
        (full_ppl - resumed_ppl).abs() < 1e-9,
        "recovery changed the model: {full_ppl} vs {resumed_ppl}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_write_is_invisible_to_the_store() {
    // An atomic (.tmp + rename) store plus checksums means a crash mid-write
    // can at worst lose the newest snapshot, never corrupt the resume.
    let io = FaultyIo::new(
        MemIo::new(),
        FaultPlan::none().with(Fault::TruncateWrite {
            nth: 3,
            at_byte: 10,
        }),
    );
    let store = CheckpointStore::new(Box::new(io));
    for iter in 1..=3u64 {
        let _ = store.save(&Checkpoint::new("demo", iter, vec![iter as u8; 32]));
    }
    let latest = store.latest_good("demo").unwrap().unwrap();
    assert_eq!(latest.iteration, 2, "torn newest write must be skipped");
}

#[test]
fn engine_resilient_training_resumes_through_the_facade() {
    let corpus = test_corpus(60, 31);
    let ids: Vec<_> = corpus.ids().collect();
    let vocab = corpus.vocab().len();
    let cutoff = Month::from_ym(2030, 1);
    let engine = Engine::new(corpus);
    let spec = ModelSpec::Lda {
        config: lda_cfg(13, vocab),
        estimator: LdaEstimator::Gibbs,
    };

    let dir = std::env::temp_dir().join(format!("hlm-resilience-eng-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let killed = TrainPlan::new()
        .on_disk(&dir)
        .unwrap()
        .with_guard(RunGuard::unlimited().abort_at_iteration(25));
    let err = engine.train(&spec, &ids, cutoff, killed).unwrap_err();
    assert!(err.is_interruption());

    let resumed = engine
        .train(
            &spec,
            &ids,
            cutoff,
            TrainPlan::new().on_disk(&dir).unwrap().resume(true),
        )
        .unwrap();
    assert_eq!(resumed.resumed_from, Some(25));
    assert!(resumed.rolled_back.is_none());

    let plain = engine.train(&spec, &ids, cutoff, TrainPlan::new()).unwrap();
    let seqs: Vec<Vec<usize>> = index_sequences(engine.corpus(), &ids)
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect();
    let a = resumed.model.perplexity(&seqs).unwrap();
    let b = plain.model.perplexity(&seqs).unwrap();
    assert!((a - b).abs() < 1e-9, "resumed {a} vs plain {b}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_serving_answers_from_the_fallback_when_the_primary_cannot() {
    let corpus = test_corpus(50, 43);
    let ids: Vec<_> = corpus.ids().collect();
    let cutoff = Month::from_ym(2030, 1);
    let vocab = corpus.vocab().len();
    let engine = Engine::new(corpus);

    // Every company's full history is before the cutoff, so the primary
    // trains on what `resilient_over` fits the unigram fallback on.
    let serve = |spec: &ModelSpec| {
        let fit = engine.train(spec, &ids, cutoff, TrainPlan::new()).unwrap();
        engine.resilient_over(fit.model, ServeOptions::default())
    };

    // A healthy n-gram primary serves untagged responses.
    let healthy = serve(&ModelSpec::Ngram(NgramConfig {
        order: 2,
        vocab_size: vocab,
        lambdas: None,
        add_k: 0.5,
    }));
    let served = healthy.recommend(&[0, 1]);
    assert!(!served.is_degraded(), "{:?}", served.degraded);
    assert_eq!(served.value.len(), vocab);

    // CHH cannot answer perplexity at all: the response comes from the
    // unigram fallback and says so.
    let chh = serve(&ModelSpec::ChhExact {
        depth: 2,
        vocab_size: vocab,
    });
    let seqs = index_sequences(engine.corpus(), &ids);
    let ppl = chh.perplexity(&seqs);
    assert!(ppl.is_degraded());
    assert!(ppl.value.is_finite(), "fallback perplexity must be usable");
    assert!(
        ppl.degraded.as_deref().unwrap().contains("primary"),
        "{:?}",
        ppl.degraded
    );
}

#[test]
fn failed_checkpoint_write_widens_the_resume_gap_but_does_not_abort() {
    let (docs, vocab) = corpus_docs();
    let trainer = GibbsTrainer::new(lda_cfg(67, vocab));

    let io = FaultyIo::new(
        MemIo::new(),
        FaultPlan::none().with(Fault::FailWrite { nth: 20 }),
    );
    let store = CheckpointStore::new(Box::new(io));
    let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store);
    let model = trainer.fit_resumable(&docs, &mut ctrl, None).unwrap();
    assert!(hlm_lda::document_completion_perplexity(&model, &docs).is_finite());
    assert_eq!(ctrl.sink_failures().len(), 1);
    assert_eq!(ctrl.sink_failures()[0].0, 20);
    assert_eq!(ctrl.saves(), 59, "every other sweep checkpointed");
}
