//! Out-of-core sharded pipeline, end to end (PR 6).
//!
//! The contract under test, at every layer:
//!
//! * **Datagen**: streaming shard generation writes *exactly* the companies
//!   of the in-memory generator, bit for bit, at any shard count.
//! * **Training**: sharded collapsed Gibbs over a disk [`ShardStore`]
//!   produces the same model — to the last ulp — as the in-memory trainer
//!   on `binary_docs`; online VB is deterministic for a fixed shard layout
//!   across backing stores.
//! * **Resilience**: killing a sharded run mid-pass and resuming from the
//!   checkpoint store reproduces the uninterrupted run exactly.

use hlm_corpus::{CorpusSource, MemShardSource, ShardStore};
use hlm_datagen::GeneratorConfig;
use hlm_engine::{
    fit_lda_resilient, fit_lda_sharded_gibbs, fit_lda_sharded_online_vb, LdaEstimator, TrainPlan,
};
use hlm_lda::{LdaConfig, OnlineVbOptions};
use hlm_resilience::RunGuard;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hlm_shard_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lda_config(vocab_size: usize) -> LdaConfig {
    LdaConfig {
        n_topics: 3,
        vocab_size,
        n_iters: 30,
        burn_in: 15,
        sample_lag: 5,
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn sharded_datagen_is_bit_identical_to_in_memory_at_any_shard_count() {
    let cfg = GeneratorConfig::with_size_and_seed(250, 31);
    let reference = hlm_datagen::generate(&cfg);
    for n_shards in [1usize, 2, 4] {
        let dir = tmp_dir(&format!("datagen_{n_shards}"));
        let store = hlm_datagen::generate_sharded(&cfg, n_shards, &dir).expect("stream-generate");
        assert!(store.vocab().iter().eq(reference.vocab().iter()));
        assert_eq!(store.n_companies(), reference.len());
        let mut streamed = Vec::new();
        for s in 0..store.n_shards() {
            streamed.extend(store.read_shard(s).expect("shard reads back"));
        }
        assert_eq!(
            streamed,
            reference.companies(),
            "shard count {n_shards} changed the corpus"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sharded_gibbs_over_disk_matches_in_memory_to_the_last_ulp() {
    let cfg = GeneratorConfig::with_size_and_seed(220, 33);
    let corpus = hlm_datagen::generate(&cfg);
    let ids: Vec<_> = corpus.ids().collect();
    let docs = hlm_core::representations::binary_docs(&corpus, &ids);
    let lda = lda_config(corpus.vocab().len());

    let reference = fit_lda_resilient(lda.clone(), LdaEstimator::Gibbs, &docs, TrainPlan::new())
        .expect("in-memory fit")
        .model;

    for n_shards in [1usize, 3] {
        let dir = tmp_dir(&format!("gibbs_{n_shards}"));
        let store = hlm_datagen::generate_sharded(&cfg, n_shards, &dir).expect("stream-generate");
        let fit =
            fit_lda_sharded_gibbs(lda.clone(), &store, dir.join("work"), TrainPlan::default())
                .expect("sharded fit");
        assert_eq!(
            fit.model.phi().as_slice(),
            reference.phi().as_slice(),
            "phi diverged at {n_shards} shards"
        );
        assert_eq!(fit.model.alpha(), reference.alpha());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn online_vb_is_identical_across_backing_stores() {
    let cfg = GeneratorConfig::with_size_and_seed(220, 35);
    let corpus = hlm_datagen::generate(&cfg);
    let lda = lda_config(corpus.vocab().len());
    let opts = OnlineVbOptions {
        epochs: 2,
        ..OnlineVbOptions::default()
    };

    let dir = tmp_dir("vb_stores");
    let store = hlm_datagen::generate_sharded(&cfg, 3, &dir).expect("stream-generate");
    let from_disk =
        fit_lda_sharded_online_vb(lda.clone(), opts.clone(), &store, TrainPlan::default())
            .expect("online VB over disk shards");

    // Same layout served from RAM: the backing store must not matter.
    let mem = MemShardSource::new(&corpus, store.manifest().shard_size as usize);
    let from_ram = fit_lda_sharded_online_vb(lda, opts, &mem, TrainPlan::default())
        .expect("online VB over in-memory shards");

    assert_eq!(
        from_disk.model.phi().as_slice(),
        from_ram.model.phi().as_slice()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_sharded_gibbs_resumes_to_the_uninterrupted_result() {
    let cfg = GeneratorConfig::with_size_and_seed(256, 37);
    let lda = lda_config(38);
    let dir = tmp_dir("kill_resume");
    let store = hlm_datagen::generate_sharded(&cfg, 4, &dir).expect("stream-generate");
    let n_shards = store.n_shards();

    let uninterrupted = fit_lda_sharded_gibbs(
        lda.clone(),
        &store,
        dir.join("work_ref"),
        TrainPlan::default(),
    )
    .expect("uninterrupted fit");

    // Kill mid-sweep (shard 2 of 4 in sweep 20), past burn-in so the phi
    // accumulator state is live when the process dies.
    let ckpt = dir.join("ckpt");
    let killed = fit_lda_sharded_gibbs(
        lda.clone(),
        &store,
        dir.join("work"),
        TrainPlan::default()
            .on_disk(&ckpt)
            .expect("checkpoint dir")
            .with_guard(RunGuard::unlimited().abort_at_iteration(20 * n_shards as u64 + 2)),
    );
    let err = killed.expect_err("guard kills the run");
    assert!(err.to_string().contains("cancelled"), "{err}");

    let resumed = fit_lda_sharded_gibbs(
        lda,
        &store,
        dir.join("work"),
        TrainPlan::default()
            .on_disk(&ckpt)
            .expect("checkpoint dir")
            .resume(true),
    )
    .expect("resumed fit");
    assert!(resumed.resumed_from.is_some());
    assert_eq!(
        resumed.model.phi().as_slice(),
        uninterrupted.model.phi().as_slice(),
        "kill/resume changed the model"
    );
    assert_eq!(resumed.model.alpha(), uninterrupted.model.alpha());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_online_vb_resumes_to_the_uninterrupted_result() {
    let cfg = GeneratorConfig::with_size_and_seed(256, 39);
    let lda = lda_config(38);
    let opts = OnlineVbOptions {
        epochs: 3,
        ..OnlineVbOptions::default()
    };
    let dir = tmp_dir("vb_kill_resume");
    let store = hlm_datagen::generate_sharded(&cfg, 4, &dir).expect("stream-generate");

    let uninterrupted =
        fit_lda_sharded_online_vb(lda.clone(), opts.clone(), &store, TrainPlan::default())
            .expect("uninterrupted fit");

    let ckpt = dir.join("ckpt");
    let killed = fit_lda_sharded_online_vb(
        lda.clone(),
        opts.clone(),
        &store,
        TrainPlan::default()
            .on_disk(&ckpt)
            .expect("checkpoint dir")
            .with_guard(RunGuard::unlimited().abort_at_iteration(6)),
    );
    assert!(killed.is_err(), "guard kills the run");

    let resumed = fit_lda_sharded_online_vb(
        lda,
        opts,
        &store,
        TrainPlan::default()
            .on_disk(&ckpt)
            .expect("checkpoint dir")
            .resume(true),
    )
    .expect("resumed fit");
    assert!(resumed.resumed_from.is_some());
    assert_eq!(
        resumed.model.phi().as_slice(),
        uninterrupted.model.phi().as_slice(),
        "kill/resume changed the online-VB model"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_store_exposes_stats_without_loading_companies() {
    // `hlm stats` on a sharded corpus reads only the manifest: check the
    // manifest alone carries the numbers stats prints.
    let cfg = GeneratorConfig::with_size_and_seed(250, 41);
    let dir = tmp_dir("manifest_stats");
    let store = hlm_datagen::generate_sharded(&cfg, 4, &dir).expect("stream-generate");
    let manifest = ShardStore::open(&dir).expect("reopen").manifest().clone();
    assert_eq!(manifest.n_companies, 250);
    assert_eq!(manifest.vocab.len(), 38);
    assert_eq!(
        manifest.shards.iter().map(|s| s.tokens).sum::<u64>(),
        manifest.total_tokens
    );
    let events: usize = (0..store.n_shards())
        .flat_map(|s| store.read_shard(s).expect("shard reads back"))
        .map(|c| c.events().len())
        .sum();
    assert_eq!(events as u64, manifest.total_tokens);
    let _ = std::fs::remove_dir_all(&dir);
}
