//! A damaged shard stops an out-of-core fit with a typed error.
//!
//! Both sharded estimators read every shard through
//! `CorpusSource::product_sets`. A shard file that fails its checksum, or a
//! re-sealed one holding a product outside the vocabulary, must surface as
//! `EngineError::Resilience(Corrupt)` naming the shard — the CLI maps that
//! to exit code 4 — instead of a panic inside the trainer. Sharded Gibbs
//! reads the shards when a fit starts and again when it resumes, so a shard
//! damaged between a kill and its resume must stop the resume the same way.

use hlm_corpus::shard::{fnv1a, MANIFEST_FILE};
use hlm_corpus::{Company, CorpusSource, ShardStore};
use hlm_datagen::GeneratorConfig;
use hlm_engine::{
    fit_lda_sharded_gibbs, fit_lda_sharded_online_vb, EngineError, ResilienceError, TrainPlan,
};
use hlm_lda::{LdaConfig, OnlineVbOptions};
use hlm_resilience::RunGuard;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hlm_shard_fault_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 4-shard store of 256 generated companies.
fn store(dir: &Path) -> ShardStore {
    let cfg = GeneratorConfig::with_size_and_seed(256, 41);
    let store = hlm_datagen::generate_sharded(&cfg, 4, dir).expect("stream-generate");
    assert_eq!(store.n_shards(), 4);
    store
}

fn lda_config(store: &ShardStore) -> LdaConfig {
    LdaConfig {
        n_topics: 3,
        vocab_size: store.vocab().len(),
        n_iters: 4,
        burn_in: 2,
        sample_lag: 1,
        ..Default::default()
    }
}

/// Flips a bit of the middle byte of shard `s`'s file.
fn flip_a_byte(store: &ShardStore, s: usize) {
    let path = store.dir().join(&store.manifest().shards[s].file);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();
}

/// Runs both sharded fits over `store` and returns the reason each gave
/// for its `Corrupt` error.
fn corrupt_reasons(store: &ShardStore, work: &Path) -> Vec<String> {
    let lda = lda_config(store);
    let gibbs = fit_lda_sharded_gibbs(lda.clone(), store, work, TrainPlan::default());
    let vb =
        fit_lda_sharded_online_vb(lda, OnlineVbOptions::default(), store, TrainPlan::default());
    [gibbs, vb]
        .into_iter()
        .map(|fit| match fit {
            Err(EngineError::Resilience(ResilienceError::Corrupt { what })) => what,
            other => panic!("expected a corrupt-shard error, got {other:?}"),
        })
        .collect()
}

#[test]
fn a_flipped_byte_fails_both_sharded_fits_with_a_typed_error() {
    let dir = tmp_dir("flipped");
    let store = store(&dir.join("store"));
    flip_a_byte(&store, 1);
    for what in corrupt_reasons(&store, &dir.join("work")) {
        assert!(what.contains("shard 1"), "{what}");
        assert!(what.contains("shard_00001.bin"), "{what}");
        assert!(what.contains("fails its checksum"), "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_product_past_the_vocabulary_fails_both_sharded_fits_with_a_typed_error() {
    let dir = tmp_dir("unknown_product");
    let store = store(&dir.join("store"));
    let companies: Vec<Company> = store.read_shard(1).unwrap();
    let entry = &store.manifest().shards[1];
    let path = store.dir().join(&entry.file);
    let mut bytes = std::fs::read(&path).unwrap();
    // Layout: a 32-byte header, then per company a 35-byte record plus its
    // name and 14 bytes per event, with the product id first in an event.
    let i = companies
        .iter()
        .position(|c| c.product_count() > 0)
        .unwrap();
    let record = |c: &Company| 35 + c.name.len() + 14 * c.product_count();
    let at = 32 + companies[..i].iter().map(record).sum::<usize>() + 35 + companies[i].name.len();
    let past = u16::try_from(store.vocab().len()).unwrap();
    bytes[at..at + 2].copy_from_slice(&past.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    // Re-seal the manifest so the checksum passes and only the decoder can
    // object.
    let mut manifest = store.manifest().clone();
    manifest.shards[1].checksum = fnv1a(&bytes);
    let text = serde_json::to_string(&manifest).unwrap();
    std::fs::write(store.dir().join(MANIFEST_FILE), text).unwrap();
    let store = ShardStore::open(store.dir()).unwrap();
    for what in corrupt_reasons(&store, &dir.join("work")) {
        assert!(what.contains("shard 1"), "{what}");
        assert!(what.contains("outside the vocabulary"), "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_damaged_before_a_resume_fails_it_with_a_typed_error() {
    let dir = tmp_dir("resume");
    let store = store(&dir.join("store"));
    let (work, ckpt) = (dir.join("work"), dir.join("ckpt"));
    let plan = || TrainPlan::default().on_disk(&ckpt).unwrap();
    // Killed at step 10 of 16: sweep 2, before shard 2.
    let killed = fit_lda_sharded_gibbs(
        lda_config(&store),
        &store,
        &work,
        plan().with_guard(RunGuard::unlimited().abort_at_iteration(10)),
    );
    assert!(killed.unwrap_err().is_interruption());
    flip_a_byte(&store, 1);
    let resumed = fit_lda_sharded_gibbs(lda_config(&store), &store, &work, plan().resume(true));
    match resumed {
        Err(EngineError::Resilience(ResilienceError::Corrupt { what })) => {
            assert!(what.contains("shard 1"), "{what}");
            assert!(what.contains("fails its checksum"), "{what}");
            assert!(!what.contains("checkpoint"), "{what}");
        }
        other => panic!("expected a corrupt-shard error, got {:?}", other.err()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
