//! Resuming a killed `ShardedGibbsTrainer` fit through damaged spill files.
//! A two-shard fit is killed mid-sweep; the spill file the resume reads
//! first is then replaced, and `fit_resumable` must answer `Corrupt` or
//! `Mismatch` — never panic. Left untouched, the file resumes the run
//! bit-identically.

use hlm_lda::{
    LdaConfig, LdaModel, MemDocShards, ShardedGibbsTrainer, WeightedDoc,
    SHARDED_GIBBS_CHECKPOINT_KIND,
};
use hlm_resilience::{Checkpoint, CheckpointStore, MemIo, ResilienceError, RunGuard, TrainControl};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Sweep 5 (past burn-in), after shard 0 and before shard 1: the resume
/// reads shard 1's spill first.
const KILL_STEP: u64 = 5 * 2 + 1;

/// 128 documents (two shards of 64) with fractional weights, so the
/// doc-topic rows hold non-integer bits.
fn docs() -> Vec<WeightedDoc> {
    (0..128)
        .map(|d| {
            (0..8)
                .map(|i| ((d * 5 + i * 3) % 12, 0.25 + 0.125 * (i % 5) as f64))
                .collect()
        })
        .collect()
}

fn cfg() -> LdaConfig {
    LdaConfig {
        n_topics: 6,
        vocab_size: 12,
        n_iters: 10,
        burn_in: 3,
        sample_lag: 1,
        seed: 29,
        ..Default::default()
    }
}

/// A work directory private to this process and test thread.
fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hlm_gibbs_spill_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a fit killed at [`KILL_STEP`] leaves behind: its latest checkpoint
/// and its work directory's files.
struct Killed {
    docs: Vec<WeightedDoc>,
    ckpt: Checkpoint,
    /// File name and bytes of every spill in the work directory.
    files: Vec<(String, Vec<u8>)>,
    /// Index in `files` of shard 1's spill, the one the resume reads first.
    shard1: usize,
}

impl Killed {
    /// The killed fit, run once and shared by every test here.
    fn get() -> &'static Killed {
        static KILLED: OnceLock<Killed> = OnceLock::new();
        KILLED.get_or_init(|| {
            let docs = docs();
            let dir = work_dir("killed");
            let store = CheckpointStore::new(Box::new(MemIo::new()));
            let mut ctrl = TrainControl::new(SHARDED_GIBBS_CHECKPOINT_KIND, &store)
                .with_guard(RunGuard::unlimited().abort_at_iteration(KILL_STEP));
            let err = ShardedGibbsTrainer::new(cfg(), &dir)
                .fit_resumable(&MemDocShards::new(&docs, 2), &mut ctrl, None)
                .unwrap_err();
            assert!(err.is_interruption(), "{err:?}");
            let ckpt = store
                .latest_good(SHARDED_GIBBS_CHECKPOINT_KIND)
                .unwrap()
                .unwrap();
            assert_eq!(ckpt.iteration, KILL_STEP);
            let files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&path).unwrap())
                })
                .collect();
            std::fs::remove_dir_all(&dir).unwrap();
            let of_shard1 = |name: &str| name.starts_with("gibbs_shard_00001_");
            assert_eq!(files.iter().filter(|(name, _)| of_shard1(name)).count(), 1);
            let shard1 = files.iter().position(|(name, _)| of_shard1(name));
            Killed {
                docs,
                ckpt,
                files,
                shard1: shard1.expect("shard 1 has a spill"),
            }
        })
    }

    /// Shard 1's spill as the killed fit left it.
    fn spill(&self) -> &[u8] {
        &self.files[self.shard1].1
    }

    /// Resumes the fit in a fresh copy of its work directory, with `spill`
    /// in place of shard 1's spill file.
    fn resume_with(&self, spill: &[u8]) -> Result<LdaModel, ResilienceError> {
        let dir = work_dir("resume");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (name, bytes)) in self.files.iter().enumerate() {
            let bytes = if i == self.shard1 { spill } else { bytes };
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let result = ShardedGibbsTrainer::new(cfg(), &dir).fit_resumable(
            &MemDocShards::new(&self.docs, 2),
            &mut TrainControl::noop(),
            Some(&self.ckpt),
        );
        std::fs::remove_dir_all(&dir).unwrap();
        result
    }

    /// Resumes with `spill` and requires a typed refusal.
    fn assert_refused(&self, spill: &[u8], what: &str) {
        match self.resume_with(spill) {
            Err(ResilienceError::Corrupt { .. } | ResilienceError::Mismatch { .. }) => {}
            other => panic!(
                "{what}: expected Corrupt or Mismatch, got {:?}",
                other.err()
            ),
        }
    }
}

#[test]
fn untouched_spill_resumes_bit_identically() {
    let killed = Killed::get();
    let dir = work_dir("full");
    let full = ShardedGibbsTrainer::new(cfg(), &dir).fit(&MemDocShards::new(&killed.docs, 2));
    std::fs::remove_dir_all(&dir).unwrap();
    let resumed = killed.resume_with(killed.spill()).unwrap();
    assert_eq!(resumed.phi(), full.phi(), "resume must be bit-identical");
    assert_eq!(resumed.alpha(), full.alpha());
}

#[test]
fn every_truncation_of_a_spill_is_refused() {
    let killed = Killed::get();
    let spill = killed.spill();
    for len in 0..spill.len() {
        killed.assert_refused(&spill[..len], &format!("truncation to {len}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_spill_bytes_are_refused(
        framed in 0u8..2,
        bytes in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        let killed = Killed::get();
        // Framed inputs keep the valid 40-byte header, so the damage lies
        // past it.
        let mut spill = if framed == 1 { killed.spill()[..40].to_vec() } else { Vec::new() };
        spill.extend(bytes);
        killed.assert_refused(&spill, "arbitrary bytes");
    }

    #[test]
    fn single_bit_flips_of_a_spill_are_refused(bit_seed in 0usize..usize::MAX) {
        let killed = Killed::get();
        let mut spill = killed.spill().to_vec();
        let bit = bit_seed % (spill.len() * 8);
        spill[bit / 8] ^= 1 << (bit % 8);
        killed.assert_refused(&spill, &format!("flip of bit {bit}"));
    }
}
