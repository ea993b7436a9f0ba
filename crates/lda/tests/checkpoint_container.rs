//! Decoding `lda-gibbs` checkpoints as `hlm serve`'s warm start and
//! `/admin/swap` read them: from a directory another process writes, so
//! from untrusted bytes. The container (`Checkpoint::decode`) must refuse
//! any truncation or flipped bit as `Corrupt`, and must size no buffer by
//! a header field; a payload that arrives under a valid checksum must then
//! give a model or a typed error from `GibbsTrainer::model_from_checkpoint`,
//! never a panic.

use std::sync::OnceLock;

use hlm_lda::{GibbsTrainer, LdaConfig, WeightedDoc, GIBBS_CHECKPOINT_KIND};
use hlm_peakalloc::{largest_request, PeakAlloc};
use hlm_resilience::{Checkpoint, CheckpointStore, MemIo, ResilienceError, TrainControl};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Twelve short documents over six products.
fn docs() -> Vec<WeightedDoc> {
    (0..12)
        .map(|d| (0..4).map(|i| ((d * 5 + i) % 6, 1.0)).collect())
        .collect()
}

fn cfg() -> LdaConfig {
    LdaConfig {
        n_topics: 3,
        vocab_size: 6,
        n_iters: 6,
        burn_in: 2,
        sample_lag: 1,
        seed: 23,
        ..Default::default()
    }
}

/// The last checkpoint of a small fit, saved into a `MemIo` store and read
/// back as the store holds it: decoded, and encoded again to its bytes.
fn saved() -> &'static (Checkpoint, Vec<u8>) {
    static SAVED: OnceLock<(Checkpoint, Vec<u8>)> = OnceLock::new();
    SAVED.get_or_init(|| {
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store);
        GibbsTrainer::new(cfg())
            .fit_resumable(&docs(), &mut ctrl, None)
            .unwrap();
        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        assert_eq!(ckpt.iteration, 6);
        let bytes = ckpt.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ckpt);
        (ckpt, bytes)
    })
}

/// `Checkpoint::decode`, failing the test if it reserves more than the
/// input holds: a decoded checkpoint copies at most the input's bytes.
fn decode(bytes: &[u8]) -> Result<Checkpoint, ResilienceError> {
    let (decoded, peak) = largest_request(|| Checkpoint::decode(bytes));
    assert!(
        peak <= 64 + bytes.len(),
        "decoding {} bytes reserved {peak} bytes",
        bytes.len()
    );
    decoded
}

fn assert_corrupt(bytes: &[u8], what: &str) {
    match decode(bytes) {
        Err(ResilienceError::Corrupt { .. }) => {}
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    }
}

/// Seals `payload` in a fresh container, as a writer would, and loads a
/// model from it the way a warm start does. True iff a model came back;
/// fails the test on any error outside `Corrupt` and `Mismatch`.
fn load_resealed(payload: &[u8]) -> bool {
    let sealed = Checkpoint::new(GIBBS_CHECKPOINT_KIND, 6, payload.to_vec()).encode();
    let ckpt = decode(&sealed).expect("a resealed container decodes");
    match GibbsTrainer::new(cfg()).model_from_checkpoint(&ckpt) {
        Ok(_) => true,
        Err(ResilienceError::Corrupt { .. } | ResilienceError::Mismatch { .. }) => false,
        Err(e) => panic!("untyped failure for a damaged payload: {e:?}"),
    }
}

#[test]
fn every_truncation_of_the_container_is_corrupt() {
    let (_, bytes) = saved();
    for len in 0..bytes.len() {
        assert_corrupt(&bytes[..len], &format!("truncation to {len}"));
    }
}

#[test]
fn every_single_bit_flip_of_the_container_is_corrupt() {
    let (_, bytes) = saved();
    let mut damaged = bytes.clone();
    for bit in 0..bytes.len() * 8 {
        damaged[bit / 8] ^= 1 << (bit % 8);
        assert_corrupt(&damaged, &format!("flip of bit {bit}"));
        damaged[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn a_header_claiming_a_2_pow_40_byte_payload_is_corrupt_without_allocating_it() {
    let (_, bytes) = saved();
    // The payload length sits after the magic, version, kind length, kind
    // and iteration.
    let at = 8 + 4 + 4 + GIBBS_CHECKPOINT_KIND.len() + 8;
    let mut huge = bytes.clone();
    huge[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert_corrupt(&huge, "a 2^40-byte payload length");
}

#[test]
fn every_truncation_of_a_resealed_payload_is_refused() {
    let (ckpt, _) = saved();
    assert!(load_resealed(&ckpt.payload), "the intact payload loads");
    for len in 0..ckpt.payload.len() {
        assert!(
            !load_resealed(&ckpt.payload[..len]),
            "truncation to {len} of {} bytes loaded",
            ckpt.payload.len()
        );
    }
}

#[test]
fn every_single_bit_flip_of_a_resealed_payload_is_typed() {
    let (ckpt, _) = saved();
    let mut damaged = ckpt.payload.clone();
    for bit in 0..damaged.len() * 8 {
        damaged[bit / 8] ^= 1 << (bit % 8);
        load_resealed(&damaged);
        damaged[bit / 8] ^= 1 << (bit % 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes after a prefix of the real payload, so they reach the
    /// record framing and the JSON state as well as the magic.
    #[test]
    fn random_resealed_payloads_are_typed(
        keep in 0usize..usize::MAX,
        tail in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let payload = &saved().0.payload;
        let mut damaged = payload[..keep % (payload.len() + 1)].to_vec();
        damaged.extend(tail);
        load_resealed(&damaged);
    }

    /// Random bytes after the real magic and version.
    #[test]
    fn random_containers_are_corrupt(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let mut container = saved().1[..12].to_vec();
        container.extend(bytes);
        assert_corrupt(&container, "random bytes");
    }
}
