//! Spectral co-clustering (Dhillon, KDD 2001).
//!
//! Section 3.1 of the paper reports that co-clustering the raw binary
//! company-product matrix fails on install-base data: "the only co-cluster
//! generated contained overall popular products". This module implements the
//! standard spectral bipartite co-clustering algorithm so that comparison
//! can be reproduced: normalize `A_n = D₁^{-1/2} A D₂^{-1/2}`, take the
//! second-and-later singular vector pairs, scale them back by `D^{-1/2}`,
//! stack row and column embeddings, and k-means them jointly.

use crate::kmeans::{kmeans, KmeansOptions};
use hlm_linalg::svd::truncated_svd;
use hlm_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// A co-clustering of a two-dimensional matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoClustering {
    /// Cluster index of every row (company).
    pub row_labels: Vec<usize>,
    /// Cluster index of every column (product).
    pub col_labels: Vec<usize>,
    /// Number of co-clusters requested.
    pub k: usize,
}

impl CoClustering {
    /// The columns assigned to co-cluster `c`.
    pub fn columns_of(&self, c: usize) -> Vec<usize> {
        self.col_labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sizes `(rows, cols)` of each co-cluster.
    pub fn sizes(&self) -> Vec<(usize, usize)> {
        (0..self.k)
            .map(|c| {
                (
                    self.row_labels.iter().filter(|&&l| l == c).count(),
                    self.col_labels.iter().filter(|&&l| l == c).count(),
                )
            })
            .collect()
    }
}

/// Runs spectral co-clustering with `k` co-clusters on a non-negative
/// matrix.
///
/// # Panics
/// Panics if `k < 2`, the matrix is empty, or it contains negative entries.
pub fn spectral_cocluster(a: &Matrix, k: usize, seed: u64) -> CoClustering {
    assert!(k >= 2, "need at least two co-clusters");
    let (n, m) = a.shape();
    assert!(n > 0 && m > 0, "empty matrix");
    assert!(
        a.as_slice().iter().all(|&x| x >= 0.0),
        "matrix must be non-negative"
    );

    // Degree scalings; empty rows/columns get a unit degree so the
    // normalization stays finite (they end up in arbitrary clusters).
    let mut d1 = vec![0.0f64; n];
    let mut d2 = vec![0.0f64; m];
    for (i, d1i) in d1.iter_mut().enumerate().take(n) {
        for (j, d2j) in d2.iter_mut().enumerate().take(m) {
            let v = a.get(i, j);
            *d1i += v;
            *d2j += v;
        }
    }
    let d1_inv_sqrt: Vec<f64> = d1
        .iter()
        .map(|&d| if d > 0.0 { d.powf(-0.5) } else { 1.0 })
        .collect();
    let d2_inv_sqrt: Vec<f64> = d2
        .iter()
        .map(|&d| if d > 0.0 { d.powf(-0.5) } else { 1.0 })
        .collect();

    let an = Matrix::from_fn(n, m, |i, j| d1_inv_sqrt[i] * a.get(i, j) * d2_inv_sqrt[j]);

    // Number of informative singular-vector pairs: ceil(log2 k), skipping
    // the first (trivial) pair.
    let l = (k as f64).log2().ceil() as usize;
    let l = l.max(1);
    let svd = truncated_svd(&an, l + 1, seed);
    let used = svd.rank().saturating_sub(1).min(l);
    // Degenerate case: not enough spectrum; fall back to one dimension of
    // whatever is available.
    let used = used.max(1).min(svd.rank());

    // Build the joint embedding Z = [D1^{-1/2} U_{2..}; D2^{-1/2} V_{2..}].
    let offset = if svd.rank() > used { 1 } else { 0 };
    let mut z = Matrix::zeros(n + m, used);
    for (i, &s) in d1_inv_sqrt.iter().enumerate().take(n) {
        for c in 0..used {
            z.set(i, c, s * svd.u.get(i, offset + c));
        }
    }
    for (j, &s) in d2_inv_sqrt.iter().enumerate().take(m) {
        for c in 0..used {
            z.set(n + j, c, s * svd.v.get(j, offset + c));
        }
    }

    let res = kmeans(
        &z,
        &KmeansOptions {
            k,
            max_iters: 100,
            tol: 1e-9,
            seed,
        },
    );
    CoClustering {
        row_labels: res.assignments[..n].to_vec(),
        col_labels: res.assignments[n..].to_vec(),
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block-diagonal bipartite structure: rows 0..10 × cols 0..4 and rows
    /// 10..20 × cols 4..8.
    fn block_matrix() -> Matrix {
        Matrix::from_fn(20, 8, |i, j| {
            let row_block = usize::from(i >= 10);
            let col_block = usize::from(j >= 4);
            if row_block == col_block {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn recovers_planted_blocks() {
        let cc = spectral_cocluster(&block_matrix(), 2, 1);
        // Rows 0..10 share a label; rows 10..20 share the other.
        let l0 = cc.row_labels[0];
        assert!(cc.row_labels[..10].iter().all(|&l| l == l0));
        let l1 = cc.row_labels[10];
        assert_ne!(l0, l1);
        assert!(cc.row_labels[10..].iter().all(|&l| l == l1));
        // Columns follow their block's rows.
        assert!(cc.col_labels[..4].iter().all(|&l| l == l0));
        assert!(cc.col_labels[4..].iter().all(|&l| l == l1));
    }

    #[test]
    fn noisy_blocks_still_recovered() {
        let mut a = block_matrix();
        // Sprinkle weak off-block noise.
        for i in 0..20 {
            for j in 0..8 {
                if a.get(i, j) == 0.0 && (i * 7 + j) % 5 == 0 {
                    a.set(i, j, 0.15);
                }
            }
        }
        let cc = spectral_cocluster(&a, 2, 2);
        let l0 = cc.row_labels[0];
        let same_block_0 = cc.row_labels[..10].iter().filter(|&&l| l == l0).count();
        assert!(same_block_0 >= 9, "block 0 purity {same_block_0}/10");
    }

    #[test]
    fn sizes_account_for_everything() {
        let cc = spectral_cocluster(&block_matrix(), 2, 3);
        let sizes = cc.sizes();
        let rows: usize = sizes.iter().map(|s| s.0).sum();
        let cols: usize = sizes.iter().map(|s| s.1).sum();
        assert_eq!(rows, 20);
        assert_eq!(cols, 8);
    }

    #[test]
    fn handles_empty_columns() {
        let mut a = block_matrix();
        for i in 0..20 {
            a.set(i, 3, 0.0); // column 3 becomes empty
        }
        let cc = spectral_cocluster(&a, 2, 4);
        assert_eq!(cc.col_labels.len(), 8);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_entries() {
        let a = Matrix::from_rows(&[&[1.0, -0.5], &[0.0, 1.0]]);
        spectral_cocluster(&a, 2, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = block_matrix();
        let x = spectral_cocluster(&a, 2, 9);
        let y = spectral_cocluster(&a, 2, 9);
        assert_eq!(x.row_labels, y.row_labels);
        assert_eq!(x.col_labels, y.col_labels);
    }
}
