//! Pinned collapsed-Gibbs outputs. Each case fingerprints the fitted
//! model's phi and alpha bits (FNV-1a over `f64::to_bits`) and compares it
//! against a constant recorded while the in-memory trainer still ran its
//! own sweep loop beside the sharded driver. Once both trainers share one
//! driver, the "sharded equals in-memory" suites compare that driver with
//! itself; these constants keep the comparison against the replaced code.

use hlm_lda::{
    GibbsTrainer, LdaConfig, LdaModel, MemDocShards, SamplerChoice, ShardedGibbsTrainer,
    WeightedDoc, GIBBS_CHECKPOINT_KIND,
};
use hlm_resilience::{CheckpointStore, MemIo, RunGuard, TrainControl};
use hlm_tests::{test_corpus, test_split};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the little-endian bits of every phi cell, then alpha.
fn fingerprint(model: &LdaModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let alpha = [model.alpha()];
    for x in model.phi().as_slice().iter().chain(&alpha) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Binary install-base documents of a small generated corpus.
fn corpus_docs() -> (Vec<WeightedDoc>, usize) {
    let corpus = test_corpus(400, 29);
    let split = test_split(&corpus);
    let docs = hlm_core::representations::binary_docs(&corpus, &split.train);
    (docs, corpus.vocab().len())
}

/// The same documents with fractional weights in `[0.25, 1.25)`.
fn fractional(docs: &[WeightedDoc]) -> Vec<WeightedDoc> {
    let mut rng = StdRng::seed_from_u64(77);
    docs.iter()
        .map(|d| {
            d.iter()
                .map(|&(w, _)| (w, 0.25 + rng.gen::<f64>()))
                .collect()
        })
        .collect()
}

fn cfg(n_topics: usize, vocab_size: usize, seed: u64) -> LdaConfig {
    LdaConfig {
        n_topics,
        vocab_size,
        n_iters: 40,
        burn_in: 20,
        sample_lag: 4,
        seed,
        beta: 0.1,
        ..Default::default()
    }
}

/// Dense K=3 with Minka alpha updates; also the uninterrupted reference for
/// the kill/resume case and the 3-shard case.
const DENSE_K3: u64 = 0x6e43a62a527a08ad;
/// Dense kernel forced at K=24 over fractional token weights.
const DENSE_K24: u64 = 0x9a02b9545608a226;
/// Alias-MH kernel forced at K=64.
const ALIAS_K64: u64 = 0x7bf9b6619d7cf502;
/// Dense K=2 over unit weights, recorded before the small-K pair kernel.
const DENSE_K2: u64 = 0x7cf6f5d0133bf172;
/// Dense K=4 over fractional token weights, recorded before the small-K
/// pair kernel.
const DENSE_K4: u64 = 0x035d74eb81b76c62;

fn dense_alpha_cfg(vocab: usize) -> LdaConfig {
    LdaConfig {
        alpha: Some(0.5),
        optimize_alpha: true,
        ..cfg(3, vocab, 11)
    }
}

#[test]
fn dense_k3_with_alpha_optimization_is_pinned() {
    let (docs, vocab) = corpus_docs();
    let model = GibbsTrainer::new(dense_alpha_cfg(vocab)).fit(&docs);
    assert_eq!(fingerprint(&model), DENSE_K3);
}

#[test]
fn dense_k24_with_fractional_weights_is_pinned() {
    let (docs, vocab) = corpus_docs();
    let c = LdaConfig {
        sampler: SamplerChoice::Dense,
        ..cfg(24, vocab, 23)
    };
    let model = GibbsTrainer::new(c).fit(&fractional(&docs));
    assert_eq!(fingerprint(&model), DENSE_K24);
}

/// `cfg` fitted in memory and by the sharded trainer over three shards;
/// both must give the same model.
fn fit_in_memory_and_three_shards(cfg: LdaConfig, docs: &[WeightedDoc], tag: &str) -> LdaModel {
    let dir = std::env::temp_dir().join(format!("hlm_gibbs_fp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sharded = ShardedGibbsTrainer::new(cfg.clone(), &dir).fit(&MemDocShards::new(docs, 3));
    std::fs::remove_dir_all(&dir).unwrap();
    let model = GibbsTrainer::new(cfg).fit(docs);
    assert_eq!(
        fingerprint(&sharded),
        fingerprint(&model),
        "{tag}: 3 shards"
    );
    model
}

#[test]
fn dense_k2_is_pinned() {
    let (docs, vocab) = corpus_docs();
    let model = fit_in_memory_and_three_shards(cfg(2, vocab, 41), &docs, "k2");
    assert_eq!(fingerprint(&model), DENSE_K2);
}

#[test]
fn dense_k4_with_fractional_weights_is_pinned() {
    let (docs, vocab) = corpus_docs();
    let model = fit_in_memory_and_three_shards(cfg(4, vocab, 43), &fractional(&docs), "k4");
    assert_eq!(fingerprint(&model), DENSE_K4);
}

#[test]
fn forced_alias_mh_k64_is_pinned() {
    let (docs, vocab) = corpus_docs();
    let c = LdaConfig {
        sampler: SamplerChoice::AliasMh,
        ..cfg(64, vocab, 31)
    };
    let model = GibbsTrainer::new(c).fit(&docs);
    assert_eq!(fingerprint(&model), ALIAS_K64);
}

#[test]
fn kill_at_sweep_then_resume_is_pinned() {
    let (docs, vocab) = corpus_docs();
    let trainer = GibbsTrainer::new(dense_alpha_cfg(vocab));
    let store = CheckpointStore::new(Box::new(MemIo::new()));
    let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
        .with_guard(RunGuard::unlimited().abort_at_iteration(27));
    assert!(trainer
        .fit_resumable(&docs, &mut ctrl, None)
        .unwrap_err()
        .is_interruption());
    let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
    assert_eq!(ckpt.iteration, 27);
    let resumed = trainer
        .fit_resumable(&docs, &mut TrainControl::noop(), Some(&ckpt))
        .unwrap();
    assert_eq!(fingerprint(&resumed), DENSE_K3);
}

#[test]
fn sharded_three_shards_is_pinned() {
    let (docs, vocab) = corpus_docs();
    let dir = std::env::temp_dir().join(format!("hlm_gibbs_fingerprint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = MemDocShards::new(&docs, 3);
    assert_eq!(hlm_lda::DocShardSource::n_shards(&source), 3);
    let model = ShardedGibbsTrainer::new(dense_alpha_cfg(vocab), &dir).fit(&source);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(fingerprint(&model), DENSE_K3);
}
