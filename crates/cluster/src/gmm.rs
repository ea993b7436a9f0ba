//! Diagonal-covariance Gaussian mixture models fit by EM, and Fisher-vector
//! aggregation.
//!
//! Section 3.4 of the paper describes aggregating word/product embeddings
//! into a document/company vector with "the Fisher Kernel Framework
//! (probabilistic modeling of the corpus of documents using a mixture of
//! Gaussians)", citing Jaakkola & Haussler and Clinchant & Perronnin. This
//! module provides that pipeline: a GMM over product-embedding space and the
//! (improved) Fisher vector of a company's product set under that GMM.

use hlm_linalg::special::log_sum_exp;
use hlm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// EM options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GmmOptions {
    /// Number of mixture components.
    pub k: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Stop when the mean log-likelihood improves by less than this.
    pub tol: f64,
    /// Variance floor (keeps components from collapsing onto single points).
    pub var_floor: f64,
    /// Seed for the k-means-style initialization.
    pub seed: u64,
}

impl GmmOptions {
    /// Sensible defaults for `k` components.
    pub fn new(k: usize) -> Self {
        GmmOptions {
            k,
            max_iters: 100,
            tol: 1e-7,
            var_floor: 1e-6,
            seed: 42,
        }
    }
}

/// A fitted diagonal-covariance Gaussian mixture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gmm {
    /// Mixture weights (sum to 1).
    pub weights: Vec<f64>,
    /// Component means, `K x D`.
    pub means: Matrix,
    /// Component variances (diagonal), `K x D`.
    pub vars: Matrix,
    /// Mean log-likelihood per point at the final EM iteration.
    pub final_log_likelihood: f64,
}

impl Gmm {
    /// Fits a GMM to the rows of `points` by EM with a k-means++-style mean
    /// initialization.
    ///
    /// # Panics
    /// Panics if there are fewer points than components or `k == 0`.
    pub fn fit(points: &Matrix, opts: &GmmOptions) -> Gmm {
        let n = points.rows();
        let d = points.cols();
        assert!(opts.k >= 1, "k must be positive");
        assert!(n >= opts.k, "need at least k points");
        let k = opts.k;
        let mut rng = StdRng::seed_from_u64(opts.seed);

        // Initialize means at random distinct points; variances at the
        // global per-dimension variance; uniform weights.
        let mut idx: Vec<usize> = (0..n).collect();
        hlm_linalg::dist::shuffle(&mut rng, &mut idx);
        let mut means = Matrix::zeros(k, d);
        for (c, &i) in idx.iter().take(k).enumerate() {
            means.row_mut(c).copy_from_slice(points.row(i));
        }
        let mut global_var = vec![0.0f64; d];
        let mut mean_all = vec![0.0f64; d];
        for i in 0..n {
            for (m, &x) in mean_all.iter_mut().zip(points.row(i)) {
                *m += x / n as f64;
            }
        }
        for i in 0..n {
            for (v, (&x, &m)) in global_var
                .iter_mut()
                .zip(points.row(i).iter().zip(&mean_all))
            {
                *v += (x - m) * (x - m) / n as f64;
            }
        }
        let mut vars = Matrix::from_fn(k, d, |_, j| global_var[j].max(opts.var_floor));
        let mut weights = vec![1.0 / k as f64; k];

        let mut log_resp = Matrix::zeros(n, k);
        let mut prev_ll = f64::NEG_INFINITY;
        let mut final_ll = prev_ll;
        for _iter in 0..opts.max_iters {
            // E-step: log responsibilities.
            let mut total_ll = 0.0;
            for i in 0..n {
                let row = points.row(i);
                let mut lps = vec![0.0f64; k];
                for (c, (lp, &w)) in lps.iter_mut().zip(&weights).enumerate() {
                    *lp = w.max(1e-300).ln() + log_gaussian_diag(row, means.row(c), vars.row(c));
                }
                let norm = log_sum_exp(&lps);
                total_ll += norm;
                for (c, &lp) in lps.iter().enumerate() {
                    log_resp.set(i, c, lp - norm);
                }
            }
            let mean_ll = total_ll / n as f64;
            final_ll = mean_ll;
            if (mean_ll - prev_ll).abs() < opts.tol {
                break;
            }
            prev_ll = mean_ll;

            // M-step.
            for (c, wc) in weights.iter_mut().enumerate().take(k) {
                let mut nk = 0.0;
                let mut mu = vec![0.0f64; d];
                for i in 0..n {
                    let r = log_resp.get(i, c).exp();
                    nk += r;
                    for (m, &x) in mu.iter_mut().zip(points.row(i)) {
                        *m += r * x;
                    }
                }
                if nk < 1e-12 {
                    // Dead component: re-seed at a random point.
                    let i = rng.gen_range(0..n);
                    means.row_mut(c).copy_from_slice(points.row(i));
                    for (j, &gv) in global_var.iter().enumerate().take(d) {
                        vars.set(c, j, gv.max(opts.var_floor));
                    }
                    *wc = 1e-6;
                    continue;
                }
                mu.iter_mut().for_each(|m| *m /= nk);
                let mut var = vec![0.0f64; d];
                for i in 0..n {
                    let r = log_resp.get(i, c).exp();
                    for (v, (&x, &m)) in var.iter_mut().zip(points.row(i).iter().zip(&mu)) {
                        *v += r * (x - m) * (x - m);
                    }
                }
                for (j, v) in var.iter().enumerate() {
                    vars.set(c, j, (v / nk).max(opts.var_floor));
                }
                means.row_mut(c).copy_from_slice(&mu);
                *wc = nk / n as f64;
            }
            // Renormalize weights (dead-component reseeding can unbalance).
            let ws: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= ws);
        }

        Gmm {
            weights,
            means,
            vars,
            final_log_likelihood: final_ll,
        }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.weights.len()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.means.cols()
    }

    /// Mean log-likelihood of the rows of `points` under the mixture.
    #[cfg(test)]
    pub(crate) fn log_likelihood(&self, points: &Matrix) -> f64 {
        let n = points.rows();
        let mut total = 0.0;
        for i in 0..n {
            total += self.log_density(points.row(i));
        }
        total / n.max(1) as f64
    }

    /// Log density of one point.
    #[cfg(test)]
    pub(crate) fn log_density(&self, x: &[f64]) -> f64 {
        let lps: Vec<f64> = (0..self.k())
            .map(|c| {
                self.weights[c].max(1e-300).ln()
                    + log_gaussian_diag(x, self.means.row(c), self.vars.row(c))
            })
            .collect();
        log_sum_exp(&lps)
    }

    /// Posterior component responsibilities `γ(k | x)`.
    pub(crate) fn responsibilities(&self, x: &[f64]) -> Vec<f64> {
        let lps: Vec<f64> = (0..self.k())
            .map(|c| {
                self.weights[c].max(1e-300).ln()
                    + log_gaussian_diag(x, self.means.row(c), self.vars.row(c))
            })
            .collect();
        hlm_linalg::special::softmax(&lps)
    }

    /// The improved Fisher vector of a point set (Perronnin et al.):
    /// mean- and variance-gradient blocks per component, signed-square-root
    /// power normalization, then L2 normalization. Output dimension is
    /// `2 · K · D`. An empty point set maps to the zero vector.
    pub fn fisher_vector(&self, points: &[&[f64]]) -> Vec<f64> {
        let k = self.k();
        let d = self.dim();
        let mut fv = vec![0.0f64; 2 * k * d];
        let t = points.len();
        if t == 0 {
            return fv;
        }
        for &x in points {
            let gamma = self.responsibilities(x);
            for c in 0..k {
                let g = gamma[c];
                if g <= 0.0 {
                    continue;
                }
                for j in 0..d {
                    let sigma = self.vars.get(c, j).sqrt();
                    let u = (x[j] - self.means.get(c, j)) / sigma;
                    fv[c * d + j] += g * u;
                    fv[k * d + c * d + j] += g * (u * u - 1.0);
                }
            }
        }
        for c in 0..k {
            let wc = self.weights[c].max(1e-12);
            let s_mu = 1.0 / (t as f64 * wc.sqrt());
            let s_sig = 1.0 / (t as f64 * (2.0 * wc).sqrt());
            for j in 0..d {
                fv[c * d + j] *= s_mu;
                fv[k * d + c * d + j] *= s_sig;
            }
        }
        // Power normalization + L2.
        for v in fv.iter_mut() {
            *v = v.signum() * v.abs().sqrt();
        }
        hlm_linalg::vector::normalize(&mut fv);
        fv
    }
}

/// Log density of a diagonal Gaussian.
fn log_gaussian_diag(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), mean.len());
    let mut lp = 0.0;
    for ((&xi, &mi), &vi) in x.iter().zip(mean).zip(var) {
        let v = vi.max(1e-300);
        lp += -0.5 * ((xi - mi) * (xi - mi) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
    }
    lp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two planted Gaussians at (0,0) and (6,6) with sd 0.5.
    fn planted_points(n_per: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(2 * n_per, 2, |i, _| {
            let base = if i < n_per { 0.0 } else { 6.0 };
            base + 0.5 * hlm_linalg::dist::sample_standard_normal(&mut rng)
        })
    }

    #[test]
    fn em_recovers_planted_mixture() {
        let points = planted_points(150, 1);
        let gmm = Gmm::fit(&points, &GmmOptions::new(2));
        // Means near (0,0) and (6,6), in some order.
        let m0 = gmm.means.row(0)[0];
        let (lo, hi) = if m0 < 3.0 { (0, 1) } else { (1, 0) };
        for j in 0..2 {
            assert!(
                gmm.means.get(lo, j).abs() < 0.3,
                "low mean {}",
                gmm.means.get(lo, j)
            );
            assert!((gmm.means.get(hi, j) - 6.0).abs() < 0.3);
        }
        for &w in &gmm.weights {
            assert!((w - 0.5).abs() < 0.1, "weight {w}");
        }
        // Variances near 0.25.
        assert!((gmm.vars.get(0, 0) - 0.25).abs() < 0.15);
    }

    #[test]
    fn log_likelihood_improves_with_right_k() {
        let points = planted_points(100, 2);
        let g1 = Gmm::fit(&points, &GmmOptions::new(1));
        let g2 = Gmm::fit(&points, &GmmOptions::new(2));
        assert!(
            g2.final_log_likelihood > g1.final_log_likelihood + 0.5,
            "2 components {} must beat 1 {}",
            g2.final_log_likelihood,
            g1.final_log_likelihood
        );
        // The reported likelihood matches an independent evaluation.
        assert!((g2.log_likelihood(&points) - g2.final_log_likelihood).abs() < 0.05);
    }

    #[test]
    fn responsibilities_are_posterior_distributions() {
        let points = planted_points(80, 3);
        let gmm = Gmm::fit(&points, &GmmOptions::new(2));
        for i in [0usize, 100] {
            let r = gmm.responsibilities(points.row(i));
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(r.iter().all(|&x| (0.0..=1.0).contains(&x)));
            // Points deep inside a cluster are confidently assigned.
            assert!(r.iter().cloned().fold(0.0, f64::max) > 0.95);
        }
    }

    #[test]
    fn fisher_vectors_reflect_set_overlap() {
        // Fisher vectors of in-model random sets are zero-mean noise; the
        // discriminative signal is *which* points a set contains. Sets with
        // heavy overlap must be far closer than disjoint sets from another
        // cluster.
        let points = planted_points(100, 4);
        let gmm = Gmm::fit(&points, &GmmOptions::new(2));
        let rows = |range: std::ops::Range<usize>| -> Vec<&[f64]> {
            range.map(|i| points.row(i)).collect()
        };
        let fv_a = gmm.fisher_vector(&rows(0..20));
        let fv_overlap = gmm.fisher_vector(&rows(5..25)); // shares 15 of 20 points
        let fv_other = gmm.fisher_vector(&rows(100..120)); // other cluster
        let d_overlap = hlm_linalg::vector::euclidean_distance(&fv_a, &fv_overlap);
        let d_other = hlm_linalg::vector::euclidean_distance(&fv_a, &fv_other);
        assert!(
            d_other > 1.3 * d_overlap,
            "disjoint-set FV distance {d_other} vs overlapping {d_overlap}"
        );
        // Identical sets give identical vectors.
        assert_eq!(fv_a, gmm.fisher_vector(&rows(0..20)));
    }

    #[test]
    fn fisher_vector_shape_and_norm() {
        let points = planted_points(50, 5);
        let gmm = Gmm::fit(&points, &GmmOptions::new(3));
        let fv = gmm.fisher_vector(&[points.row(0), points.row(1)]);
        assert_eq!(fv.len(), 2 * 3 * 2);
        assert!(
            (hlm_linalg::vector::norm(&fv) - 1.0).abs() < 1e-9,
            "L2 normalized"
        );
        let empty = gmm.fisher_vector(&[]);
        assert!(empty.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let points = planted_points(60, 6);
        let a = Gmm::fit(&points, &GmmOptions::new(2));
        let b = Gmm::fit(&points, &GmmOptions::new(2));
        assert_eq!(a.means, b.means);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    #[should_panic(expected = "need at least k points")]
    fn rejects_more_components_than_points() {
        let points = Matrix::zeros(2, 2);
        Gmm::fit(&points, &GmmOptions::new(5));
    }
}
