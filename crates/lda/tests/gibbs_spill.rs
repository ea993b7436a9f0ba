//! Resuming a killed `ShardedGibbsTrainer` fit through damaged work files.
//! A two-shard fit is killed mid-sweep; the spill file the resume reads
//! first is then replaced, and `fit_resumable` must answer `Corrupt` or
//! `Mismatch` — never panic. Left untouched, the file resumes the run
//! bit-identically. The same holds for that shard's token record, which
//! the resume rewrites from the source before its first step, so the
//! damaged record is put in place at that step.
//!
//! Two fits are killed: one with fractional weights, whose spill records
//! keep their doc-topic rows and whose token records keep their weights,
//! and one with unit weights, whose records carry neither.

use hlm_lda::{
    unit_weights, LdaConfig, LdaModel, MemDocShards, ShardedGibbsTrainer, WeightedDoc,
    SHARDED_GIBBS_CHECKPOINT_KIND,
};
use hlm_resilience::{
    Checkpoint, CheckpointStore, Clock, MemIo, ResilienceError, RunGuard, TrainControl,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

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

/// The documents of [`docs`] with every weight 1.0.
fn unit_docs() -> Vec<WeightedDoc> {
    let words: Vec<Vec<usize>> = docs()
        .iter()
        .map(|doc| doc.iter().map(|&(w, _)| w).collect())
        .collect();
    unit_weights(&words)
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
    /// File name and bytes of every file in the work directory.
    files: Vec<(String, Vec<u8>)>,
    /// Index in `files` of shard 1's spill, the one the resume reads first.
    shard1: usize,
    /// Index in `files` of shard 1's token record.
    tokens1: usize,
}

/// A watchdog clock that, the first time the fit consults it — at the top
/// of its first step, after a resume has rewritten its token records —
/// writes `bytes` to `path`.
struct WriteAtFirstStep {
    path: PathBuf,
    bytes: Mutex<Option<Vec<u8>>>,
}

impl Clock for WriteAtFirstStep {
    fn elapsed_millis(&self) -> u64 {
        if let Some(bytes) = self.bytes.lock().unwrap().take() {
            std::fs::write(&self.path, bytes).unwrap();
        }
        0
    }
}

impl Killed {
    /// The killed fractional-weight fit, run once and shared by every test
    /// here.
    fn get() -> &'static Killed {
        static KILLED: OnceLock<Killed> = OnceLock::new();
        KILLED.get_or_init(|| Killed::run(docs(), "killed"))
    }

    /// The killed unit-weight fit, run once and shared by every test here.
    fn unit() -> &'static Killed {
        static KILLED: OnceLock<Killed> = OnceLock::new();
        KILLED.get_or_init(|| Killed::run(unit_docs(), "killed_unit"))
    }

    fn run(docs: Vec<WeightedDoc>, tag: &str) -> Killed {
        let dir = work_dir(tag);
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
        let tokens1 = files
            .iter()
            .position(|(name, _)| name == "gibbs_tokens_00001.bin");
        Killed {
            docs,
            ckpt,
            files,
            shard1: shard1.expect("shard 1 has a spill"),
            tokens1: tokens1.expect("shard 1 has a token record"),
        }
    }

    /// Shard 1's spill as the killed fit left it.
    fn spill(&self) -> &[u8] {
        &self.files[self.shard1].1
    }

    /// Shard 1's token record as the killed fit left it.
    fn tokens(&self) -> &[u8] {
        &self.files[self.tokens1].1
    }

    /// Resumes the fit in a fresh copy of its work directory, with `spill`
    /// in place of shard 1's spill file.
    fn resume_with(&self, spill: &[u8]) -> Result<LdaModel, ResilienceError> {
        self.resume(spill, None)
    }

    /// Resumes the fit in a fresh copy of its work directory, with `tokens`
    /// in place of shard 1's token record from the resume's first step on.
    fn resume_with_tokens(&self, tokens: &[u8]) -> Result<LdaModel, ResilienceError> {
        self.resume(self.spill(), Some(tokens))
    }

    fn resume(&self, spill: &[u8], tokens: Option<&[u8]>) -> Result<LdaModel, ResilienceError> {
        let dir = work_dir("resume");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (name, bytes)) in self.files.iter().enumerate() {
            let bytes = if i == self.shard1 { spill } else { bytes };
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let mut ctrl = TrainControl::noop();
        if let Some(tokens) = tokens {
            let clock = WriteAtFirstStep {
                path: dir.join(&self.files[self.tokens1].0),
                bytes: Mutex::new(Some(tokens.to_vec())),
            };
            let guard = RunGuard::unlimited()
                .with_clock(Box::new(clock))
                .with_deadline_millis(u64::MAX);
            ctrl = ctrl.with_guard(guard);
        }
        let result = ShardedGibbsTrainer::new(cfg(), &dir).fit_resumable(
            &MemDocShards::new(&self.docs, 2),
            &mut ctrl,
            Some(&self.ckpt),
        );
        std::fs::remove_dir_all(&dir).unwrap();
        result
    }

    /// Resumes with `spill` and requires a typed refusal.
    fn assert_refused(&self, spill: &[u8], what: &str) {
        assert_typed_refusal(self.resume_with(spill), what);
    }

    /// Resumes with `tokens` and requires a typed refusal.
    fn assert_tokens_refused(&self, tokens: &[u8], what: &str) {
        assert_typed_refusal(self.resume_with_tokens(tokens), what);
    }
}

fn assert_typed_refusal(result: Result<LdaModel, ResilienceError>, what: &str) {
    match result {
        Err(ResilienceError::Corrupt { .. } | ResilienceError::Mismatch { .. }) => {}
        other => panic!(
            "{what}: expected Corrupt or Mismatch, got {:?}",
            other.err()
        ),
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

#[test]
fn untouched_unit_weight_files_resume_bit_identically() {
    let killed = Killed::unit();
    let dir = work_dir("full_unit");
    let full = ShardedGibbsTrainer::new(cfg(), &dir).fit(&MemDocShards::new(&killed.docs, 2));
    std::fs::remove_dir_all(&dir).unwrap();
    // A unit-weight spill holds the header, two bytes a token and the
    // trailer: no doc-topic rows.
    assert_eq!(killed.spill().len(), 40 + 2 * 64 * 8 + 8);
    for resumed in [
        killed.resume_with(killed.spill()),
        killed.resume_with_tokens(killed.tokens()),
    ] {
        let resumed = resumed.unwrap();
        assert_eq!(resumed.phi(), full.phi(), "resume must be bit-identical");
        assert_eq!(resumed.alpha(), full.alpha());
    }
}

#[test]
fn untouched_token_record_resumes_bit_identically() {
    let killed = Killed::get();
    let dir = work_dir("full_tokens");
    let full = ShardedGibbsTrainer::new(cfg(), &dir).fit(&MemDocShards::new(&killed.docs, 2));
    std::fs::remove_dir_all(&dir).unwrap();
    let resumed = killed.resume_with_tokens(killed.tokens()).unwrap();
    assert_eq!(resumed.phi(), full.phi(), "resume must be bit-identical");
}

#[test]
fn every_truncation_of_a_unit_weight_spill_is_refused() {
    let killed = Killed::unit();
    let spill = killed.spill();
    for len in 0..spill.len() {
        killed.assert_refused(&spill[..len], &format!("truncation to {len}"));
    }
}

#[test]
fn every_truncation_of_a_token_record_is_refused() {
    for killed in [Killed::get(), Killed::unit()] {
        let tokens = killed.tokens();
        for len in 0..tokens.len() {
            killed.assert_tokens_refused(&tokens[..len], &format!("truncation to {len}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_unit_weight_spill_bytes_are_refused(
        framed in 0u8..2,
        bytes in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        let killed = Killed::unit();
        let mut spill = if framed == 1 { killed.spill()[..40].to_vec() } else { Vec::new() };
        spill.extend(bytes);
        killed.assert_refused(&spill, "arbitrary bytes");
    }

    #[test]
    fn single_bit_flips_of_a_unit_weight_spill_are_refused(bit_seed in 0usize..usize::MAX) {
        let killed = Killed::unit();
        let mut spill = killed.spill().to_vec();
        let bit = bit_seed % (spill.len() * 8);
        spill[bit / 8] ^= 1 << (bit % 8);
        killed.assert_refused(&spill, &format!("flip of bit {bit}"));
    }

    #[test]
    fn arbitrary_token_record_bytes_are_refused(
        unit in 0u8..2,
        framed in 0u8..2,
        bytes in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        let killed = if unit == 1 { Killed::unit() } else { Killed::get() };
        // Framed inputs keep the valid 40-byte header.
        let mut tokens = if framed == 1 { killed.tokens()[..40].to_vec() } else { Vec::new() };
        tokens.extend(bytes);
        killed.assert_tokens_refused(&tokens, "arbitrary bytes");
    }

    #[test]
    fn single_bit_flips_of_a_token_record_are_refused(
        unit in 0u8..2,
        bit_seed in 0usize..usize::MAX,
    ) {
        let killed = if unit == 1 { Killed::unit() } else { Killed::get() };
        let mut tokens = killed.tokens().to_vec();
        let bit = bit_seed % (tokens.len() * 8);
        tokens[bit / 8] ^= 1 << (bit % 8);
        killed.assert_tokens_refused(&tokens, &format!("flip of bit {bit}"));
    }
}
