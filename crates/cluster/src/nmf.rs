//! Non-negative matrix factorization with overlapping co-cluster
//! extraction.
//!
//! Section 3.1 of the paper names OCuLaR (Heckel & Vlachos, "Interpretable
//! recommendations via overlapping co-clusters") as the co-clustering method
//! closest to its problem. OCuLaR's core is a non-negative factorization of
//! the interaction matrix whose factors are read as *overlapping*
//! co-clusters: a company (row) participates in every component where its
//! loading is large, and likewise for products (columns). This module
//! implements that pipeline: Lee–Seung multiplicative updates for
//! `V ≈ W · H` under the Frobenius objective, plus the loading-threshold
//! co-cluster reader.

use hlm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Factorization options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NmfOptions {
    /// Number of components (co-clusters).
    pub k: usize,
    /// Maximum multiplicative-update iterations.
    pub max_iters: usize,
    /// Stop when the relative reconstruction-error improvement falls below
    /// this.
    pub tol: f64,
    /// Seed for the random initialization.
    pub seed: u64,
}

impl NmfOptions {
    /// Sensible defaults for `k` components.
    pub fn new(k: usize) -> Self {
        NmfOptions {
            k,
            max_iters: 200,
            tol: 1e-6,
            seed: 42,
        }
    }
}

/// A fitted factorization `V ≈ W · H`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Nmf {
    /// Row (company) loadings, `N x K`, non-negative.
    pub w: Matrix,
    /// Column (product) loadings, `K x M`, non-negative.
    pub h: Matrix,
    /// Relative Frobenius reconstruction error `‖V − WH‖ / ‖V‖` at the last
    /// iteration.
    pub relative_error: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// One overlapping co-cluster: the rows and columns loading on a component.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlappingCoCluster {
    /// Component index.
    pub component: usize,
    /// Row (company) indices with loading ≥ threshold × max loading of the
    /// component's row column.
    pub rows: Vec<usize>,
    /// Column (product) indices selected the same way on `H`.
    pub cols: Vec<usize>,
}

const EPS: f64 = 1e-12;

/// Fits NMF by Lee–Seung multiplicative updates.
///
/// # Panics
/// Panics if `v` contains negative entries, is empty, or `k` is 0 or larger
/// than both dimensions.
pub fn nmf(v: &Matrix, opts: &NmfOptions) -> Nmf {
    let (n, m) = v.shape();
    assert!(n > 0 && m > 0, "empty matrix");
    assert!(opts.k >= 1, "k must be positive");
    assert!(opts.k <= n.max(m), "k larger than both dimensions");
    assert!(
        v.as_slice().iter().all(|&x| x >= 0.0),
        "matrix must be non-negative"
    );

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let scale = (v.sum() / (n * m) as f64 / opts.k as f64).sqrt().max(1e-3);
    let mut w = Matrix::from_fn(n, opts.k, |_, _| scale * (0.1 + rng.gen::<f64>()));
    let mut h = Matrix::from_fn(opts.k, m, |_, _| scale * (0.1 + rng.gen::<f64>()));

    let v_norm = v.frobenius_norm().max(EPS);
    let mut prev_err = f64::INFINITY;
    let mut err = prev_err;
    let mut iterations = 0;
    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        // H <- H .* (Wᵀ V) ./ (Wᵀ W H)
        let wt_v = w.transpose().matmul(v);
        let wt_w_h = w.transpose().matmul(&w).matmul(&h);
        for r in 0..h.rows() {
            for c in 0..h.cols() {
                let upd = h.get(r, c) * wt_v.get(r, c) / (wt_w_h.get(r, c) + EPS);
                h.set(r, c, upd);
            }
        }
        // W <- W .* (V Hᵀ) ./ (W H Hᵀ)
        let v_ht = v.matmul(&h.transpose());
        let w_h_ht = w.matmul(&h.matmul(&h.transpose()));
        for r in 0..w.rows() {
            for c in 0..w.cols() {
                let upd = w.get(r, c) * v_ht.get(r, c) / (w_h_ht.get(r, c) + EPS);
                w.set(r, c, upd);
            }
        }

        err = v.sub(&w.matmul(&h)).frobenius_norm() / v_norm;
        if prev_err.is_finite() && (prev_err - err).abs() < opts.tol * prev_err.max(EPS) {
            break;
        }
        prev_err = err;
    }
    Nmf {
        w,
        h,
        relative_error: err,
        iterations,
    }
}

impl Nmf {
    /// Number of components.
    pub fn k(&self) -> usize {
        self.w.cols()
    }

    /// The rank-`k` reconstruction `W · H`.
    pub fn reconstruct(&self) -> Matrix {
        self.w.matmul(&self.h)
    }

    /// Reads the factors as overlapping co-clusters: a row belongs to
    /// component `c` when `W[row, c] ≥ threshold · max_row W[·, c]`, and a
    /// column when `H[c, col] ≥ threshold · max_col H[c, ·]`. With
    /// `threshold` well below 1, rows/columns appear in multiple
    /// co-clusters — the "overlapping" reading of OCuLaR.
    ///
    /// # Panics
    /// Panics unless `0 < threshold <= 1`.
    pub fn overlapping_coclusters(&self, threshold: f64) -> Vec<OverlappingCoCluster> {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1], got {threshold}"
        );
        (0..self.k())
            .map(|c| {
                let w_col = self.w.col(c);
                let w_max = w_col.iter().cloned().fold(0.0f64, f64::max);
                let rows = w_col
                    .iter()
                    .enumerate()
                    .filter(|&(_, &x)| w_max > 0.0 && x >= threshold * w_max)
                    .map(|(i, _)| i)
                    .collect();
                let h_row = self.h.row(c);
                let h_max = h_row.iter().cloned().fold(0.0f64, f64::max);
                let cols = h_row
                    .iter()
                    .enumerate()
                    .filter(|&(_, &x)| h_max > 0.0 && x >= threshold * h_max)
                    .map(|(j, _)| j)
                    .collect();
                OverlappingCoCluster {
                    component: c,
                    rows,
                    cols,
                }
            })
            .collect()
    }

    /// Recommendation scores for a row: the reconstructed row of `W · H`,
    /// the OCuLaR-style score "how strongly do this company's co-clusters
    /// load on each product".
    ///
    /// # Panics
    /// Panics on an out-of-range row.
    pub fn predict_row(&self, row: usize) -> Vec<f64> {
        assert!(row < self.w.rows(), "row out of range");
        self.h.vecmat(self.w.row(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank-2 block matrix with overlap: rows 0..10 use cols 0..4, rows
    /// 10..20 use cols 4..8, rows 20..24 use both blocks.
    fn block_matrix() -> Matrix {
        Matrix::from_fn(24, 8, |i, j| {
            let in_a = !(10..20).contains(&i);
            let in_b = (10..20).contains(&i) || i >= 20;
            let col_a = j < 4;
            if (in_a && col_a) || (in_b && !col_a) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn reconstruction_error_is_small_on_low_rank_input() {
        let v = block_matrix();
        let fit = nmf(&v, &NmfOptions::new(2));
        assert!(
            fit.relative_error < 0.05,
            "rank-2 input should factor well, err {}",
            fit.relative_error
        );
        // Factors stay non-negative.
        assert!(fit.w.as_slice().iter().all(|&x| x >= 0.0));
        assert!(fit.h.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn error_does_not_increase_with_rank() {
        let v = block_matrix();
        let e1 = nmf(&v, &NmfOptions::new(1)).relative_error;
        let e2 = nmf(&v, &NmfOptions::new(2)).relative_error;
        let e4 = nmf(&v, &NmfOptions::new(4)).relative_error;
        assert!(e2 <= e1 + 1e-6, "{e2} vs {e1}");
        assert!(e4 <= e2 + 1e-2, "{e4} vs {e2}");
    }

    #[test]
    fn overlapping_rows_appear_in_both_coclusters() {
        let v = block_matrix();
        let fit = nmf(&v, &NmfOptions::new(2));
        let ccs = fit.overlapping_coclusters(0.5);
        assert_eq!(ccs.len(), 2);
        // The overlap rows 20..24 belong to both components; the pure rows
        // to exactly one.
        for overlap_row in 20..24 {
            assert!(
                ccs.iter().all(|c| c.rows.contains(&overlap_row)),
                "row {overlap_row} must be in both co-clusters"
            );
        }
        let in_both = |row: usize| ccs.iter().filter(|c| c.rows.contains(&row)).count();
        assert_eq!(in_both(0), 1, "pure block-A row in exactly one co-cluster");
        assert_eq!(in_both(15), 1, "pure block-B row in exactly one co-cluster");
        // Column sides separate the two blocks.
        let cols0: std::collections::HashSet<_> = ccs[0].cols.iter().collect();
        let cols1: std::collections::HashSet<_> = ccs[1].cols.iter().collect();
        assert!(
            cols0.is_disjoint(&cols1),
            "{:?} vs {:?}",
            ccs[0].cols,
            ccs[1].cols
        );
    }

    #[test]
    fn predict_row_matches_reconstruction() {
        let v = block_matrix();
        let fit = nmf(&v, &NmfOptions::new(2));
        let rec = fit.reconstruct();
        let row = fit.predict_row(3);
        for (j, &x) in row.iter().enumerate() {
            assert!((x - rec.get(3, j)).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let v = block_matrix();
        let a = nmf(&v, &NmfOptions::new(2));
        let b = nmf(&v, &NmfOptions::new(2));
        assert_eq!(a.w, b.w);
        assert_eq!(a.h, b.h);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_input() {
        let v = Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 1.0]]);
        nmf(&v, &NmfOptions::new(1));
    }

    #[test]
    fn handles_zero_matrix_gracefully() {
        let v = Matrix::zeros(5, 4);
        let fit = nmf(&v, &NmfOptions::new(2));
        assert!(fit.relative_error.is_finite());
        let ccs = fit.overlapping_coclusters(0.5);
        assert_eq!(ccs.len(), 2);
    }
}
