//! Truncated singular value decomposition via power iteration with
//! deflation.
//!
//! Supports the Latent Semantic Indexing baseline (the topic-modelling
//! alternative the paper cites in Section 3.5) and spectral co-clustering
//! (the Section-3.1 comparison). The matrices involved are `N x 38`, so a
//! simple subspace-free power method with Gram-matrix tricks is accurate and
//! fast.

use crate::matrix::Matrix;
use crate::vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A rank-`k` truncated SVD: `A ≈ U diag(S) Vᵀ`.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Left singular vectors, `n x k` (orthonormal columns).
    pub u: Matrix,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors, `m x k` (orthonormal columns).
    pub v: Matrix,
}

/// Computes the top-`k` singular triplets of `a` by power iteration on the
/// smaller Gram matrix, deflating after each extracted component.
///
/// Singular values below `1e-10 * s_1` are dropped, so the returned rank may
/// be lower than requested for (near-)rank-deficient input.
///
/// # Panics
/// Panics if `k == 0` or `a` is empty.
pub fn truncated_svd(a: &Matrix, k: usize, seed: u64) -> TruncatedSvd {
    assert!(k >= 1, "rank must be at least 1");
    assert!(a.rows() > 0 && a.cols() > 0, "empty matrix");
    let k = k.min(a.rows()).min(a.cols());
    let mut rng = StdRng::seed_from_u64(seed);

    // Work on a deflating copy.
    let mut residual = a.clone();
    let mut u_cols: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut v_cols: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut s_vals: Vec<f64> = Vec::with_capacity(k);

    for _ in 0..k {
        // Power-iterate v on AᵀA (m-dimensional, m = 38 in practice).
        let m = residual.cols();
        let mut v: Vec<f64> = (0..m)
            .map(|_| crate::dist::sample_standard_normal(&mut rng))
            .collect();
        vector::normalize(&mut v);
        let mut sigma = 0.0;
        for _ in 0..200 {
            // w = Aᵀ (A v)
            let av = residual.matvec(&v);
            let mut w = residual.vecmat(&av);
            let n = vector::norm(&w);
            if n < 1e-14 {
                sigma = 0.0;
                break;
            }
            vector::scale(&mut w, 1.0 / n);
            let delta = vector::euclidean_distance(&w, &v);
            v = w;
            sigma = n.sqrt(); // ||A v|| after convergence equals sigma
            if delta < 1e-12 {
                break;
            }
        }
        if sigma <= 0.0 {
            break;
        }
        let mut u = residual.matvec(&v);
        let s = vector::norm(&u);
        if s < 1e-10 * s_vals.first().copied().unwrap_or(s).max(1e-300) {
            break;
        }
        vector::scale(&mut u, 1.0 / s);

        // Deflate: A ← A − s u vᵀ.
        residual.add_outer(-s, &u, &v);
        u_cols.push(u);
        v_cols.push(v);
        s_vals.push(s);
    }

    assert!(!s_vals.is_empty(), "no singular components extracted");
    let rank = s_vals.len();
    let u = Matrix::from_fn(a.rows(), rank, |i, j| u_cols[j][i]);
    let v = Matrix::from_fn(a.cols(), rank, |i, j| v_cols[j][i]);
    TruncatedSvd { u, s: s_vals, v }
}

impl TruncatedSvd {
    /// Extracted rank.
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// The rank-`k` reconstruction `U diag(S) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let mut scaled_u = self.u.clone();
        for i in 0..scaled_u.rows() {
            for (j, &s) in self.s.iter().enumerate() {
                scaled_u.set(i, j, scaled_u.get(i, j) * s);
            }
        }
        scaled_u.matmul(&self.v.transpose())
    }

    /// Row embeddings `U diag(S)` (documents in LSI space).
    pub fn row_embeddings(&self) -> Matrix {
        let mut out = self.u.clone();
        for i in 0..out.rows() {
            for (j, &s) in self.s.iter().enumerate() {
                out.set(i, j, out.get(i, j) * s);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank-2 matrix with known singular structure.
    fn low_rank() -> Matrix {
        // A = 5 * u1 v1ᵀ + 2 * u2 v2ᵀ with orthonormal u, v.
        let u1 = [0.5, 0.5, 0.5, 0.5];
        let u2 = [0.5, -0.5, 0.5, -0.5];
        let v1 = [1.0 / 2.0_f64.sqrt(), 1.0 / 2.0_f64.sqrt(), 0.0];
        let v2 = [0.0, 0.0, 1.0];
        let mut a = Matrix::zeros(4, 3);
        a.add_outer(5.0, &u1, &v1);
        a.add_outer(2.0, &u2, &v2);
        a
    }

    #[test]
    fn recovers_singular_values() {
        let a = low_rank();
        let svd = truncated_svd(&a, 3, 1);
        assert!(svd.rank() >= 2);
        assert!((svd.s[0] - 5.0).abs() < 1e-8, "s1 = {}", svd.s[0]);
        assert!((svd.s[1] - 2.0).abs() < 1e-8, "s2 = {}", svd.s[1]);
        if svd.rank() > 2 {
            assert!(svd.s[2] < 1e-8);
        }
    }

    #[test]
    fn reconstruction_matches_low_rank_input() {
        let a = low_rank();
        let svd = truncated_svd(&a, 2, 2);
        let r = svd.reconstruct();
        assert!(r.sub(&a).frobenius_norm() < 1e-8);
    }

    #[test]
    fn singular_vectors_are_orthonormal() {
        let a = Matrix::from_fn(10, 6, |i, j| ((i * 13 + j * 7) % 9) as f64 - 4.0);
        let svd = truncated_svd(&a, 3, 3);
        for i in 0..svd.rank() {
            for j in 0..svd.rank() {
                let du = vector::dot(&svd.u.col(i), &svd.u.col(j));
                let dv = vector::dot(&svd.v.col(i), &svd.v.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((du - expect).abs() < 1e-6, "u[{i}]·u[{j}] = {du}");
                assert!((dv - expect).abs() < 1e-6, "v[{i}]·v[{j}] = {dv}");
            }
        }
    }

    #[test]
    fn singular_values_descend() {
        let a = Matrix::from_fn(12, 8, |i, j| ((i + 1) * (j + 2)) as f64 % 7.0);
        let svd = truncated_svd(&a, 5, 4);
        for pair in svd.s.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9);
        }
    }

    #[test]
    fn truncation_minimizes_frobenius_error_direction() {
        // Rank-1 truncation of the low-rank matrix keeps the sigma=5 part.
        let a = low_rank();
        let svd = truncated_svd(&a, 1, 5);
        let err = svd.reconstruct().sub(&a).frobenius_norm();
        assert!(
            (err - 2.0).abs() < 1e-6,
            "residual is the dropped sigma=2 component"
        );
    }

    #[test]
    fn rank_clamped_to_dimensions() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let svd = truncated_svd(&a, 10, 6);
        assert!(svd.rank() <= 2);
    }
}
