//! Clustered synthetic representation rows for the read-path tests and
//! benches, which need many rows without training a model.

use hlm_linalg::Matrix;

/// `rows × dims` Gaussian-ish blobs: `centers` centroids with coordinates
/// uniform in `[0, 10)`, row `i` at centroid `i % centers` plus uniform
/// noise in `[−0.25, 0.25)` per coordinate, all from one seeded LCG. It
/// stands in for company representations, which group around a few latent
/// profiles. The same arguments always give the same bits.
pub fn blob_matrix(rows: usize, dims: usize, centers: usize, seed: u64) -> Matrix {
    let mut state = seed.max(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centroids: Vec<Vec<f64>> = (0..centers)
        .map(|_| (0..dims).map(|_| next() * 10.0).collect())
        .collect();
    let mut m = Matrix::zeros(rows, dims);
    for i in 0..rows {
        let c = &centroids[i % centers];
        for (j, &cj) in c.iter().enumerate() {
            m.set(i, j, cj + (next() - 0.5) * 0.5);
        }
    }
    m
}
