//! Pinned outputs of `hlm_bpmf::fit`. Each case fingerprints every predicted
//! score (FNV-1a over `f64::to_bits`) against a constant recorded while `fit`
//! still ran through the checkpointing, resumable sampler loop. A later
//! change to the sampler's plumbing must keep these bits.

use hlm_bpmf::{fit, BpmfConfig, Rating};

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

/// The paper's Figure-5 setup in miniature: rating-1 observations only,
/// predictions clamped to `[0, 1]`.
#[test]
fn clamped_positive_only_fit_is_pinned() {
    let (n, m) = (40, 10);
    let ratings: Vec<Rating> = (0..n)
        .flat_map(|row| (0..m).map(move |col| (row, col)))
        .filter(|&(row, col)| (row * 7 + col * 3) % 4 != 0)
        .map(|(row, col)| Rating {
            row,
            col,
            value: 1.0,
        })
        .collect();
    let cfg = BpmfConfig {
        n_factors: 4,
        n_iters: 50,
        burn_in: 20,
        seed: 2,
        ..Default::default()
    };
    let model = fit(n, m, &ratings, &cfg, Some((0.0, 1.0)));
    assert_eq!(fingerprint(model.all_scores()), 0xa24d_0dcd_e2f9_dee2);
}

/// Mixed 0/1 ratings with a held-out stripe, raw (unclamped) predictions.
#[test]
fn unclamped_mixed_rating_fit_is_pinned() {
    let (n, m) = (30, 12);
    let ratings: Vec<Rating> = (0..n)
        .flat_map(|row| (0..m).map(move |col| (row, col)))
        .filter(|&(row, col)| (row + col) % 5 != 0)
        .map(|(row, col)| Rating {
            row,
            col,
            value: if (row * 5 + col * 3) % 3 == 0 {
                0.0
            } else {
                1.0
            },
        })
        .collect();
    let cfg = BpmfConfig {
        n_factors: 3,
        n_iters: 40,
        burn_in: 15,
        seed: 9,
        ..Default::default()
    };
    let model = fit(n, m, &ratings, &cfg, None);
    assert_eq!(fingerprint(model.all_scores()), 0x39e2_9075_78ec_09f4);
}
