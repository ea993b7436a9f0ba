//! Decoding `lda-gibbs` checkpoint payloads from untrusted bytes. Every
//! input below is wrapped in a `Checkpoint` directly, skipping the container
//! checksum, so damage reaches the payload decoder itself: it must answer
//! `Ok`, `Corrupt` or `Mismatch` — never panic.

use hlm_lda::{GibbsTrainer, LdaConfig, SamplerChoice, WeightedDoc, GIBBS_CHECKPOINT_KIND};
use hlm_resilience::{Checkpoint, CheckpointStore, MemIo, ResilienceError, RunGuard, TrainControl};
use proptest::prelude::*;

/// An `lda-gibbs` payload as written before the resident format: the whole
/// sampler state as one JSON object. Recorded from a fit of [`old_docs`]
/// under [`old_cfg`], killed after sweep 3.
const OLD_PAYLOAD: &str = r#"{"iters_done":3,"alpha":0.5,"tok_z":[0,0,1],"n_dk":{"rows":2,"cols":2,"data":[2.0,0.0,0.0,1.0]},"n_kw":{"rows":2,"cols":3,"data":[1.0,1.0,0.0,0.0,0.0,1.0]},"n_k":[2.0,1.0],"phi_acc":{"rows":2,"cols":3,"data":[1.3244147157190636,0.5551839464882944,0.12040133779264214,0.12040133779264214,0.5551839464882944,1.3244147157190636]},"n_samples":2,"rng":[17313963233546218207,6372522376728454613,16526457247692414922,13221988417299793669]}"#;

fn old_docs() -> Vec<WeightedDoc> {
    vec![vec![(0, 1.0), (1, 1.0)], vec![(2, 1.0)]]
}

fn old_cfg() -> LdaConfig {
    LdaConfig {
        n_topics: 2,
        vocab_size: 3,
        n_iters: 4,
        burn_in: 1,
        sample_lag: 1,
        seed: 5,
        alpha: Some(0.5),
        beta: 0.1,
        ..Default::default()
    }
}

/// Twenty short documents with fractional weights, so the doc-topic rows
/// hold non-integer bits.
fn docs() -> Vec<WeightedDoc> {
    (0..20)
        .map(|d| {
            (0..5)
                .map(|i| ((d * 3 + i) % 6, 0.5 + 0.1 * i as f64))
                .collect()
        })
        .collect()
}

fn cfg() -> LdaConfig {
    LdaConfig {
        n_topics: 3,
        vocab_size: 6,
        n_iters: 8,
        burn_in: 2,
        sample_lag: 1,
        seed: 17,
        ..Default::default()
    }
}

/// A valid resident payload, written after sweep 5 (past burn-in, so it
/// holds phi samples).
fn valid_payload() -> Vec<u8> {
    let store = CheckpointStore::new(Box::new(MemIo::new()));
    let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
        .with_guard(RunGuard::unlimited().abort_at_iteration(5));
    let trainer = GibbsTrainer::new(cfg());
    assert!(trainer
        .fit_resumable(&docs(), &mut ctrl, None)
        .unwrap_err()
        .is_interruption());
    let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
    assert_eq!(ckpt.iteration, 5);
    ckpt.payload
}

/// Runs both decoding entry points over `payload`; true iff both succeed.
/// Fails the test on a panic or an error outside `Corrupt`/`Mismatch`.
fn decode_both(payload: Vec<u8>) -> bool {
    let trainer = GibbsTrainer::new(cfg());
    let ckpt = Checkpoint::new(GIBBS_CHECKPOINT_KIND, 5, payload);
    let typed = |r: &Result<_, ResilienceError>| {
        matches!(
            r,
            Ok(_) | Err(ResilienceError::Corrupt { .. } | ResilienceError::Mismatch { .. })
        )
    };
    let resumed = trainer.fit_resumable(&docs(), &mut TrainControl::noop(), Some(&ckpt));
    let model = trainer.model_from_checkpoint(&ckpt);
    assert!(typed(&resumed), "fit_resumable: {:?}", resumed.err());
    assert!(typed(&model), "model_from_checkpoint: {:?}", model.err());
    resumed.is_ok() && model.is_ok()
}

#[test]
fn pre_binary_json_payload_is_a_typed_mismatch() {
    let trainer = GibbsTrainer::new(old_cfg());
    let ckpt = Checkpoint::new(GIBBS_CHECKPOINT_KIND, 3, OLD_PAYLOAD.as_bytes().to_vec());
    let resumed = trainer.fit_resumable(&old_docs(), &mut TrainControl::noop(), Some(&ckpt));
    for err in [
        resumed.unwrap_err(),
        trainer.model_from_checkpoint(&ckpt).unwrap_err(),
    ] {
        let ResilienceError::Mismatch { reason } = err else {
            panic!("expected a mismatch, got {err:?}");
        };
        assert!(reason.contains("old all-JSON format"), "{reason}");
        assert!(reason.contains("format changed"), "{reason}");
    }
}

#[test]
fn valid_payload_decodes_and_resumes_bit_identically() {
    let full = GibbsTrainer::new(cfg()).fit(&docs());
    let ckpt = Checkpoint::new(GIBBS_CHECKPOINT_KIND, 5, valid_payload());
    let trainer = GibbsTrainer::new(cfg());
    let resumed = trainer
        .fit_resumable(&docs(), &mut TrainControl::noop(), Some(&ckpt))
        .unwrap();
    assert_eq!(resumed.phi(), full.phi());
    assert!(trainer
        .model_from_checkpoint(&ckpt)
        .unwrap()
        .phi()
        .is_finite());
}

#[test]
fn every_truncation_of_a_resident_payload_fails() {
    let payload = valid_payload();
    for len in 0..payload.len() {
        assert!(
            !decode_both(payload[..len].to_vec()),
            "truncation to {len} of {} bytes decoded",
            payload.len()
        );
    }
}

#[test]
fn topic_totals_at_or_below_minus_m_beta_are_corrupt() {
    // Every sampler divides by n_k + Mβ, and the alias tables need it
    // positive: a payload that breaks that is refused before any sweep.
    let payload = valid_payload();
    let key = b"\"n_k\":[";
    let at = payload.windows(key.len()).position(|w| w == key).unwrap() + key.len();
    let end = at + payload[at..].iter().position(|&b| b == b',').unwrap();
    let mut bad = payload[..at].to_vec();
    bad.extend_from_slice(b"-1e9");
    bad.extend_from_slice(&payload[end..]);
    let ckpt = Checkpoint::new(GIBBS_CHECKPOINT_KIND, 5, bad);
    let trainer = GibbsTrainer::new(LdaConfig {
        sampler: SamplerChoice::AliasMh,
        ..cfg()
    });
    let resumed = trainer.fit_resumable(&docs(), &mut TrainControl::noop(), Some(&ckpt));
    for result in [resumed, trainer.model_from_checkpoint(&ckpt)] {
        assert!(
            matches!(result, Err(ResilienceError::Corrupt { .. })),
            "{:?}",
            result.err()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        framed in 0u8..3,
        len in 0u64..u64::MAX,
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        // Framed inputs pass the magic and carry a record length — short
        // enough to split the bytes, or arbitrary — that must be checked
        // against the remaining bytes before use.
        let mut payload = Vec::new();
        if framed > 0 {
            let len = if framed == 1 { len % 600 } else { len };
            payload.extend_from_slice(b"HLMGRES1");
            payload.extend_from_slice(&len.to_le_bytes());
        }
        payload.extend(bytes);
        decode_both(payload);
    }

    #[test]
    fn single_bit_flips_never_panic_the_decoder(bit_seed in 0usize..usize::MAX) {
        let mut payload = valid_payload();
        let bit = bit_seed % (payload.len() * 8);
        payload[bit / 8] ^= 1 << (bit % 8);
        decode_both(payload);
    }
}
