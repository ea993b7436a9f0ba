//! Thread-count invariance of the parallel runtime: every parallel hot path
//! must produce bit-identical results whether it runs on 1, 2 or 7 worker
//! threads. This is the determinism contract of `hlm-par` (DESIGN.md §3.3):
//! chunk boundaries are a function of the data size only, reductions fold in
//! chunk order, and RNG streams are split per chunk/company — never per
//! worker — so the thread count can only change the wall-clock.
//!
//! Everything lives in one test function: the thread override is process
//! global, and the default multi-threaded test harness would otherwise race
//! two tests' overrides against each other.

use hlm_bpmf::{BpmfConfig, Rating};
use hlm_lda::{
    document_completion_perplexity, GibbsTrainer, LdaConfig, MemDocShards, SamplerChoice,
    ShardedGibbsTrainer, SHARDED_GIBBS_CHECKPOINT_KIND,
};
use hlm_resilience::{CheckpointStore, MemIo, RunGuard, TrainControl};
use hlm_tests::{index_sequences, quick_lda, test_corpus, test_split};

/// Runs `f` once per thread count and asserts all outcomes are identical.
/// The outcome type uses plain `==`; callers pass bit-preserving
/// representations (e.g. `f64::to_bits`) where rounding could hide drift.
fn invariant_across_thread_counts<T: PartialEq + std::fmt::Debug>(
    what: &str,
    f: impl Fn() -> T,
) -> T {
    let baseline = {
        hlm_engine::set_threads(1);
        f()
    };
    for threads in [2usize, 7] {
        hlm_engine::set_threads(threads);
        assert_eq!(hlm_engine::effective_threads(), threads);
        let run = f();
        assert_eq!(
            run, baseline,
            "{what}: {threads}-thread run differs from the serial run"
        );
    }
    hlm_engine::set_threads(0); // restore the HLM_THREADS / auto default
    baseline
}

#[test]
fn parallel_hot_paths_are_bit_identical_across_thread_counts() {
    // Force the cost model's hand: these corpora are far below the real
    // parallelism threshold, and a serial run at every thread count would
    // pass vacuously. Threshold 0 makes every budgeted call engage the
    // persistent pool.
    hlm_par::set_par_threshold(Some(0));

    // Corpus generation: per-company RNG streams, ordered site-id assignment.
    let corpus = invariant_across_thread_counts("datagen", || {
        let c = test_corpus(250, 71);
        c.companies()
            .iter()
            .map(|co| {
                (
                    co.events().to_vec(),
                    co.revenue_musd.to_bits(),
                    co.site_count,
                )
            })
            .collect::<Vec<_>>()
    });
    assert!(!corpus.is_empty());

    let corpus = test_corpus(250, 71);
    let split = test_split(&corpus);
    let test_docs = hlm_core::representations::binary_docs(&corpus, &split.test);

    // LDA collapsed Gibbs (document-sliced sweep, deterministic count merge)
    // + parallel document-completion perplexity. The perplexity comparison
    // is on raw bits: parallel folding must equal serial to the last ulp.
    invariant_across_thread_counts("lda gibbs + perplexity", || {
        let (model, _) = quick_lda(&corpus, &split.train, 3);
        let phi: Vec<u64> = model.phi().as_slice().iter().map(|x| x.to_bits()).collect();
        let ppl = document_completion_perplexity(&model, &test_docs).to_bits();
        (phi, ppl)
    });

    // Representations: fold-in θ per company over fixed row chunks, 250
    // companies spanning several chunks.
    let (model, _) = quick_lda(&corpus, &split.train, 3);
    let ids: Vec<_> = corpus.ids().collect();
    let all_docs = hlm_core::representations::binary_docs(&corpus, &ids);
    let reps = invariant_across_thread_counts("lda representations", || {
        hlm_core::representations::lda_representations(&model, &all_docs)
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    });
    let row_by_row: Vec<u64> = all_docs
        .iter()
        .flat_map(|doc| model.infer_theta(doc))
        .map(f64::to_bits)
        .collect();
    assert_eq!(reps, row_by_row, "representations are per-row fold-ins");

    // Alias-MH kernel (LightLDA-style O(1) proposals): the MH accept/reject
    // uniforms live inside the same per-chunk RNG streams, so the exact
    // invariance must hold for it too — and the sharded trainer, which
    // rebuilds the per-sweep alias tables from the identical sweep-start
    // snapshot, must reproduce the in-memory bits, including across a
    // mid-sweep kill/resume.
    let train_docs = hlm_core::representations::binary_docs(&corpus, &split.train);
    let alias_cfg = LdaConfig {
        n_topics: 24,
        vocab_size: corpus.vocab().len(),
        n_iters: 40,
        burn_in: 20,
        sample_lag: 4,
        seed: 13,
        beta: 0.1,
        sampler: SamplerChoice::AliasMh,
        ..Default::default()
    };
    let alias_phi = invariant_across_thread_counts("lda alias-MH gibbs", || {
        let model = GibbsTrainer::new(alias_cfg.clone()).fit(&train_docs);
        model
            .phi()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    });
    hlm_engine::set_threads(2);
    let dir = std::env::temp_dir().join(format!("hlm_par_det_alias_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = MemDocShards::new(&train_docs, 3);
    let trainer = ShardedGibbsTrainer::new(alias_cfg.clone(), &dir);
    let sharded_bits: Vec<u64> = trainer
        .fit(&source)
        .phi()
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(
        sharded_bits, alias_phi,
        "sharded alias-MH must be bit-identical to the in-memory trainer"
    );
    // Kill mid-sweep (shard 1 of sweep 12, past the alias-table rebuild at
    // shard 0) and resume from the latest good checkpoint.
    let store = CheckpointStore::new(Box::new(MemIo::new()));
    let abort_step = 12 * 3 + 1;
    let mut ctrl = TrainControl::new(SHARDED_GIBBS_CHECKPOINT_KIND, &store)
        .with_guard(RunGuard::unlimited().abort_at_iteration(abort_step));
    let err = trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
    assert!(err.is_interruption());
    let ckpt = store
        .latest_good(SHARDED_GIBBS_CHECKPOINT_KIND)
        .unwrap()
        .unwrap();
    assert_eq!(ckpt.iteration, abort_step);
    let resumed_bits: Vec<u64> = trainer
        .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
        .unwrap()
        .phi()
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(
        resumed_bits, alias_phi,
        "killed-and-resumed sharded alias-MH must be bit-identical"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Dense K = 3, the fused pair kernel's case: five chunks, so two pairs
    // and an unpaired last chunk, over unit weights in memory and over
    // fractional weights in three shards.
    let pair_docs: Vec<_> = all_docs
        .iter()
        .chain(&all_docs)
        .take(5 * 64 - 20)
        .cloned()
        .collect();
    let fractional_docs: Vec<_> = pair_docs
        .iter()
        .enumerate()
        .map(|(d, doc)| {
            doc.iter()
                .enumerate()
                .map(|(j, &(w, _))| (w, 0.25 + ((d * 7 + j * 3) % 11) as f64 / 10.0))
                .collect()
        })
        .collect();
    let pair_cfg = LdaConfig {
        sampler: SamplerChoice::Dense,
        ..hlm_tests::quick_lda_config(3, corpus.vocab().len())
    };
    let pair_dir = std::env::temp_dir().join(format!("hlm_par_det_pairs_{}", std::process::id()));
    invariant_across_thread_counts("lda dense K = 3 pairs", || {
        let bits = |m: hlm_lda::LdaModel| -> Vec<u64> {
            m.phi().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let resident = GibbsTrainer::new(pair_cfg.clone()).fit(&pair_docs);
        let sharded = ShardedGibbsTrainer::new(pair_cfg.clone(), &pair_dir)
            .fit(&MemDocShards::new(&fractional_docs, 3));
        (bits(resident), bits(sharded))
    });
    std::fs::remove_dir_all(&pair_dir).ok();

    // BPMF conditional draws (per-row chunk RNG streams).
    let ratings: Vec<Rating> = corpus
        .companies()
        .iter()
        .take(60)
        .enumerate()
        .flat_map(|(row, c)| {
            c.product_set().into_iter().map(move |p| Rating {
                row,
                col: p.index(),
                value: 1.0,
            })
        })
        .collect();
    invariant_across_thread_counts("bpmf", || {
        let cfg = BpmfConfig {
            n_factors: 4,
            n_iters: 12,
            burn_in: 4,
            seed: 9,
            ..Default::default()
        };
        let model = hlm_bpmf::fit(60, corpus.vocab().len(), &ratings, &cfg, Some((0.0, 1.0)));
        model
            .all_scores()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    });

    // LSTM minibatch training (chunked gradient accumulation, ordered merge).
    let ids: Vec<_> = corpus.ids().collect();
    let seqs = index_sequences(&corpus, &ids);
    invariant_across_thread_counts("lstm", || {
        use hlm_lstm::{AdamOptions, LstmConfig, LstmLm, TrainOptions, Trainer};
        let mut m = LstmLm::new(
            LstmConfig {
                vocab_size: corpus.vocab().len(),
                hidden_size: 8,
                n_layers: 1,
                dropout: 0.3,
                ..Default::default()
            },
            17,
        );
        Trainer::new(TrainOptions {
            epochs: 1,
            batch_size: 8,
            adam: AdamOptions::default(),
            patience: 0,
            seed: 5,
            verbose: false,
            ..Default::default()
        })
        .fit(&mut m, &seqs, &[]);
        m.predict_next(&[0, 3])
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    });

    // Cost-model serial fallback: with the threshold forced above any
    // budget, a 7-thread run must take the serial path and still produce
    // the same bits — the serial/parallel choice is an optimization, never
    // a behaviour change.
    let lda_bits = || {
        let (model, _) = quick_lda(&corpus, &split.train, 3);
        let ppl = document_completion_perplexity(&model, &test_docs).to_bits();
        (
            model
                .phi()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            ppl,
        )
    };
    hlm_par::set_par_threshold(Some(0));
    hlm_engine::set_threads(7);
    let engaged = lda_bits();
    hlm_par::set_par_threshold(Some(u64::MAX));
    let serial_fallback = lda_bits();
    assert_eq!(
        engaged, serial_fallback,
        "the cost model's serial fallback must be bit-identical to the pooled run"
    );

    // Persistent pool reuse: repeated engine training runs must dispatch to
    // the already-spawned workers instead of spawning fresh ones. The
    // counters come from the recorder, which observes without perturbing.
    hlm_par::set_par_threshold(Some(0));
    hlm_engine::set_threads(2);
    hlm_obs::install(hlm_obs::Recorder::enabled());
    let ids: Vec<_> = corpus.ids().collect();
    let specs = [
        hlm_engine::ModelSpec::Ngram(hlm_ngram::NgramConfig::unigram(corpus.vocab().len())),
        hlm_engine::ModelSpec::Ngram(hlm_ngram::NgramConfig::trigram(corpus.vocab().len())),
    ];
    let engine = hlm_engine::Engine::new(corpus.clone());
    let pool = hlm_par::Pool::global();
    for _ in 0..3 {
        let results = pool.run(specs.len(), |i| {
            let plan = hlm_engine::TrainPlan::new();
            engine.train(&specs[i], &ids, hlm_corpus::Month(i32::MAX), plan)
        });
        assert!(results.iter().all(Result::is_ok));
    }
    let snap = hlm_obs::global().snapshot();
    let counter = |name: &str| -> u64 {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(
        counter("par.pool_reused") >= 2,
        "later dispatches must reuse the persistent pool's workers"
    );
    assert!(
        counter("par.pool_spawned") <= 6,
        "workers spawn at most once per slot (≤6 background workers for 7 threads)"
    );
    hlm_obs::install(hlm_obs::Recorder::noop());

    // Restore the process-global knobs for any later process reuse.
    hlm_par::set_par_threshold(None);
    hlm_engine::set_threads(0);
}
