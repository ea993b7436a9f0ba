//! Bayesian Probabilistic Matrix Factorization (BPMF).
//!
//! The matrix-factorization comparator of Section 5.2, after Salakhutdinov &
//! Mnih, *"Bayesian probabilistic matrix factorization using Markov chain
//! Monte Carlo"* (ICML 2008): company and product factor matrices `U`
//! (`N x D`) and `V` (`M x D`) with Gaussian likelihood
//! `R_ij ~ N(U_i · V_j, 1/α)` and Gaussian–Wishart hyperpriors on the factor
//! means and precisions, sampled by Gibbs.
//!
//! The paper feeds BPMF the binary ranking transform of the install-base
//! data — a company's owned products have rating 1 — and observes the
//! degenerate behaviour of Figures 5–6: essentially every recommendation
//! score lands in `[0.9, 1.0]`, because a dense corpus of positive-only
//! ratings admits a perfect rank-1 explanation ("everything is 1"). The
//! experiment binaries reproduce exactly that setup; the implementation
//! itself is a faithful general BPMF that also handles mixed 0/1 or real
//! ratings (see the recovery tests).

use hlm_linalg::cholesky::Cholesky;
use hlm_linalg::dist::{sample_standard_normal, sample_wishart};
use hlm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One observed rating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rating {
    /// Row (company) index.
    pub row: usize,
    /// Column (product) index.
    pub col: usize,
    /// Observed value.
    pub value: f64,
}

/// BPMF hyper-parameters and sampler settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BpmfConfig {
    /// Latent dimensionality `D`.
    pub n_factors: usize,
    /// Observation precision `α`.
    pub alpha: f64,
    /// Hyperprior strength `β₀` of the factor means.
    pub beta0: f64,
    /// Wishart scale `W₀ = w0_scale · I`.
    pub w0_scale: f64,
    /// Total Gibbs sweeps.
    pub n_iters: usize,
    /// Sweeps discarded before averaging predictions.
    pub burn_in: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BpmfConfig {
    fn default() -> Self {
        BpmfConfig {
            n_factors: 8,
            alpha: 2.0,
            beta0: 2.0,
            w0_scale: 1.0,
            n_iters: 60,
            burn_in: 20,
            seed: 42,
        }
    }
}

impl BpmfConfig {
    /// Checks internal consistency, returning the reason a setting no
    /// sampler can run with is rejected.
    ///
    /// # Errors
    /// The first nonsensical setting, described.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.n_factors >= 1, "need at least one factor"),
            (
                self.alpha > 0.0 && self.beta0 > 0.0 && self.w0_scale > 0.0,
                "alpha, beta0 and w0_scale must be positive",
            ),
            (self.n_iters > self.burn_in, "n_iters must exceed burn_in"),
        ];
        rules
            .iter()
            .find(|(ok, _)| !ok)
            .map_or(Ok(()), |(_, reason)| Err(reason.to_string()))
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on nonsensical settings (see [`BpmfConfig::check`]).
    pub fn validate(&self) {
        self.check().unwrap_or_else(|reason| panic!("{reason}"));
    }
}

/// A fitted BPMF model: posterior-mean predictions averaged over the
/// post-burn-in Gibbs samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BpmfModel {
    predictions: Matrix,
    clamp: Option<(f64, f64)>,
}

impl BpmfModel {
    /// Posterior-mean prediction for a cell, clamped to the configured
    /// rating range.
    pub fn predict(&self, row: usize, col: usize) -> f64 {
        let raw = self.predictions.get(row, col);
        match self.clamp {
            Some((lo, hi)) => raw.clamp(lo, hi),
            None => raw,
        }
    }

    /// All predictions for a row (a company's recommendation scores over
    /// every product).
    pub fn predict_row(&self, row: usize) -> Vec<f64> {
        (0..self.predictions.cols())
            .map(|c| self.predict(row, c))
            .collect()
    }

    /// Matrix dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.predictions.shape()
    }

    /// Every predicted score, flattened row-major (used for the Figure-5
    /// score-distribution boxplot).
    pub fn all_scores(&self) -> Vec<f64> {
        let (r, c) = self.shape();
        let mut out = Vec::with_capacity(r * c);
        for i in 0..r {
            for j in 0..c {
                out.push(self.predict(i, j));
            }
        }
        out
    }
}

/// Samples `(μ, Λ)` from the Gaussian–Wishart posterior given a factor
/// matrix (rows = entities).
fn sample_hyper(
    rng: &mut StdRng,
    factors: &Matrix,
    beta0: f64,
    w0_scale: f64,
) -> (Vec<f64>, Matrix) {
    let n = factors.rows() as f64;
    let d = factors.cols();
    let nu0 = d as f64;

    // Sample mean and covariance of the factor rows.
    let mut xbar = vec![0.0; d];
    for i in 0..factors.rows() {
        for (x, &f) in xbar.iter_mut().zip(factors.row(i)) {
            *x += f;
        }
    }
    if n > 0.0 {
        xbar.iter_mut().for_each(|x| *x /= n);
    }
    let mut s = Matrix::zeros(d, d);
    for i in 0..factors.rows() {
        let diff: Vec<f64> = factors
            .row(i)
            .iter()
            .zip(&xbar)
            .map(|(&f, &m)| f - m)
            .collect();
        s.add_outer(1.0, &diff, &diff);
    }

    // Posterior Gaussian-Wishart parameters.
    let beta_star = beta0 + n;
    let nu_star = nu0 + n;
    let mu_star: Vec<f64> = xbar.iter().map(|&x| n * x / beta_star).collect(); // μ₀ = 0
    let mut w_inv = Matrix::identity(d).scale(1.0 / w0_scale);
    w_inv.axpy(1.0, &s);
    let coeff = beta0 * n / beta_star;
    w_inv.add_outer(coeff, &xbar, &xbar); // (μ₀ − x̄) = −x̄ with μ₀ = 0
    let w_star = Cholesky::decompose_with_jitter(&w_inv, 1e-8, 10)
        .expect("posterior Wishart scale is SPD")
        .inverse();

    let lambda = sample_wishart(rng, nu_star, &w_star);

    // μ ~ N(μ*, (β* Λ)⁻¹): color white noise with chol((β*Λ)⁻¹).
    let prec = lambda.scale(beta_star);
    let prec_chol = Cholesky::decompose_with_jitter(&prec, 1e-8, 10).expect("precision is SPD");
    let z: Vec<f64> = (0..d).map(|_| sample_standard_normal(rng)).collect();
    // If Λ = L Lᵀ then L⁻ᵀ z has covariance Λ⁻¹.
    let noise = prec_chol.backward_substitute(&z);
    let mu: Vec<f64> = mu_star.iter().zip(&noise).map(|(&m, &e)| m + e).collect();
    (mu, lambda)
}

/// Factor rows per parallel chunk (fixed: part of the deterministic
/// sampling schedule).
const FACTOR_ROW_CHUNK: usize = 64;

/// Reusable per-worker temporaries for one factor row's conditional draw,
/// built once per pool slot and overwritten for every row (see
/// [`hlm_par::par_for_each_scratch`]).
struct FactorScratch {
    prec: Matrix,
    b: Vec<f64>,
    z: Vec<f64>,
}

/// Samples one side's factor rows given the other side and hyperparameters.
///
/// Rows are conditionally independent given the other side, so they are
/// drawn over fixed chunks in parallel; each chunk uses its own RNG stream
/// derived from `stream_seed` and the chunk index, making the draw
/// bit-identical at any thread count.
#[allow(clippy::too_many_arguments)]
fn sample_factors(
    stream_seed: u64,
    factors: &mut Matrix,
    other: &Matrix,
    by_entity: &[Vec<(usize, f64)>],
    mu: &[f64],
    lambda: &Matrix,
    alpha: f64,
) {
    let d = factors.cols();
    let n_rows = factors.rows();
    let lambda_mu = lambda.matvec(mu);
    // ~d² multiply-adds per observed rating (rank-1 precision update) plus
    // ~d³ per row for the Cholesky factor-and-solve.
    let n_obs: usize = by_entity.iter().map(Vec::len).sum();
    let budget = hlm_par::Budget::units(((n_obs * d * d + n_rows * d * d * d) as u64) * 2);
    let pool = hlm_par::Pool::global();
    let mut blocks: Vec<&mut [f64]> = factors
        .as_mut_slice()
        .chunks_mut(FACTOR_ROW_CHUNK * d)
        .collect();
    hlm_par::par_for_each_scratch(
        &pool,
        budget,
        &mut blocks,
        || FactorScratch {
            prec: Matrix::zeros(d, d),
            b: vec![0.0; d],
            z: vec![0.0; d],
        },
        |s, c, block| {
            // The stream is keyed by the chunk index alone, so per-chunk
            // draws are identical no matter which slot runs the chunk.
            let mut rng = StdRng::seed_from_u64(hlm_par::split_seed(stream_seed, c as u64));
            let row0 = c * FACTOR_ROW_CHUNK;
            for (r, out_row) in block.chunks_exact_mut(d).enumerate() {
                let i = row0 + r;
                if i >= n_rows {
                    break;
                }
                s.prec.copy_from(lambda);
                s.b.copy_from_slice(&lambda_mu);
                for &(j, rating) in &by_entity[i] {
                    let vj = other.row(j);
                    s.prec.add_outer(alpha, vj, vj);
                    for (bk, &v) in s.b.iter_mut().zip(vj) {
                        *bk += alpha * rating * v;
                    }
                }
                let chol =
                    Cholesky::decompose_with_jitter(&s.prec, 1e-8, 10).expect("precision is SPD");
                let mean = chol.solve(&s.b);
                for zk in s.z.iter_mut() {
                    *zk = sample_standard_normal(&mut rng);
                }
                let noise = chol.backward_substitute(&s.z);
                for (o, (m, e)) in out_row.iter_mut().zip(mean.iter().zip(&noise)) {
                    *o = m + e;
                }
            }
        },
    );
}

/// Fits BPMF by Gibbs sampling.
///
/// `clamp` bounds predictions to a rating range (the paper's binary rankings
/// use `Some((0.0, 1.0))`); `None` leaves raw dot products.
///
/// # Panics
/// Panics on invalid configuration, empty observations, or out-of-range
/// indices, and when the running mean prediction goes non-finite.
pub fn fit(
    n_rows: usize,
    n_cols: usize,
    ratings: &[Rating],
    cfg: &BpmfConfig,
    clamp: Option<(f64, f64)>,
) -> BpmfModel {
    cfg.validate();
    assert!(!ratings.is_empty(), "BPMF needs at least one observation");
    let d = cfg.n_factors;
    let mut by_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_rows];
    let mut by_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_cols];
    for r in ratings {
        assert!(
            r.row < n_rows && r.col < n_cols,
            "rating index out of range"
        );
        assert!(r.value.is_finite(), "rating must be finite");
        by_row[r.row].push((r.col, r.value));
        by_col[r.col].push((r.row, r.value));
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Initialize factors with small Gaussian noise.
    let mut u = Matrix::from_fn(n_rows, d, |_, _| 0.1 * sample_standard_normal(&mut rng));
    let mut v = Matrix::from_fn(n_cols, d, |_, _| 0.1 * sample_standard_normal(&mut rng));

    let mut acc = Matrix::zeros(n_rows, n_cols);
    let mut n_samples = 0u64;

    let rec = hlm_obs::global();
    for iter in 0..cfg.n_iters {
        let sweep_t0 = rec.is_enabled().then(std::time::Instant::now);
        let (mu_u, lambda_u) = sample_hyper(&mut rng, &u, cfg.beta0, cfg.w0_scale);
        let (mu_v, lambda_v) = sample_hyper(&mut rng, &v, cfg.beta0, cfg.w0_scale);
        // Factor streams are keyed by (seed, sweep, side) rather than drawn
        // from the master RNG, so chunked parallel draws stay reproducible.
        let seed_u = hlm_par::split_seed3(cfg.seed ^ 0xFAC7_0125, iter as u64, 0);
        let seed_v = hlm_par::split_seed3(cfg.seed ^ 0xFAC7_0125, iter as u64, 1);
        sample_factors(seed_u, &mut u, &v, &by_row, &mu_u, &lambda_u, cfg.alpha);
        sample_factors(seed_v, &mut v, &u, &by_col, &mu_v, &lambda_v, cfg.alpha);

        if iter >= cfg.burn_in {
            let pred = u.matmul_nt(&v);
            acc.axpy(1.0, &pred);
            n_samples += 1;

            // Divergence check on the running mean of the sampled
            // predictions.
            let inv = 1.0 / n_samples as f64;
            let mean =
                acc.as_slice().iter().map(|&x| x * inv).sum::<f64>() / acc.as_slice().len() as f64;
            assert!(
                mean.is_finite(),
                "mean prediction went non-finite ({mean}) at sweep {iter}"
            );
        }

        // Pure observation of the finished sweep (the sample counter only
        // advances past burn-in, mirroring `n_samples`).
        if let Some(t0) = sweep_t0 {
            rec.observe("bpmf.sample_seconds", t0.elapsed().as_secs_f64());
            rec.add("bpmf.sweeps", 1);
            if iter >= cfg.burn_in {
                rec.add("bpmf.samples", 1);
            }
        }
    }
    assert!(n_samples > 0, "no samples collected");
    acc.scale_mut(1.0 / n_samples as f64);
    BpmfModel {
        predictions: acc,
        clamp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> BpmfConfig {
        BpmfConfig {
            n_iters: 40,
            burn_in: 15,
            n_factors: 4,
            seed,
            ..Default::default()
        }
    }

    /// Low-rank planted matrix: R = u vᵀ with u, v in {1, 2}.
    fn planted_ratings(n: usize, m: usize) -> (Vec<Rating>, Vec<Vec<f64>>) {
        let full: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| {
                        let ui = if i % 2 == 0 { 1.0 } else { 2.0 };
                        let vj = if j % 2 == 0 { 1.0 } else { 2.0 };
                        ui * vj
                    })
                    .collect()
            })
            .collect();
        let mut obs = Vec::new();
        for (i, row) in full.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                // Hold out a diagonal stripe for testing.
                if (i + j) % 5 != 0 {
                    obs.push(Rating {
                        row: i,
                        col: j,
                        value,
                    });
                }
            }
        }
        (obs, full)
    }

    #[test]
    fn recovers_low_rank_structure_on_held_out_cells() {
        let (obs, full) = planted_ratings(30, 12);
        let model = fit(30, 12, &obs, &quick_cfg(1), None);
        let mut se = 0.0;
        let mut n = 0.0;
        for (i, row) in full.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                if (i + j) % 5 == 0 {
                    let e = model.predict(i, j) - value;
                    se += e * e;
                    n += 1.0;
                }
            }
        }
        let rmse = (se / n).sqrt();
        assert!(rmse < 0.35, "held-out RMSE {rmse}");
    }

    #[test]
    fn positive_only_binary_data_degenerates_to_all_ones() {
        // Reproduce the paper's Figure 5 pathology in miniature: feed only
        // rating-1 observations (owned products); every prediction —
        // including unobserved cells — collapses toward 1.
        let n = 40;
        let m = 10;
        let mut obs = Vec::new();
        for i in 0..n {
            for j in 0..m {
                if (i * 7 + j * 3) % 4 != 0 {
                    obs.push(Rating {
                        row: i,
                        col: j,
                        value: 1.0,
                    });
                }
            }
        }
        let cfg = BpmfConfig {
            n_iters: 80,
            burn_in: 30,
            ..quick_cfg(2)
        };
        let model = fit(n, m, &obs, &cfg, Some((0.0, 1.0)));
        let mut scores = model.all_scores();
        let high = scores.iter().filter(|&&s| s > 0.9).count();
        assert!(
            high as f64 > 0.85 * scores.len() as f64,
            "{high}/{} scores above 0.9",
            scores.len()
        );
        // Figure 5's boxplot: the whole interquartile box sits in [0.9, 1].
        scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let q1 = scores[scores.len() / 4];
        assert!(q1 > 0.9, "first quartile {q1} must exceed 0.9");
    }

    #[test]
    fn clamping_bounds_predictions() {
        let (obs, _) = planted_ratings(10, 6);
        let model = fit(10, 6, &obs, &quick_cfg(3), Some((0.0, 1.0)));
        assert!(model.all_scores().iter().all(|&s| (0.0..=1.0).contains(&s)));
        let raw = fit(10, 6, &obs, &quick_cfg(3), None);
        assert!(
            raw.all_scores().iter().any(|&s| s > 1.0),
            "planted values reach 4"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (obs, _) = planted_ratings(12, 6);
        let a = fit(12, 6, &obs, &quick_cfg(7), None);
        let b = fit(12, 6, &obs, &quick_cfg(7), None);
        assert_eq!(a.predict(3, 4), b.predict(3, 4));
        let c = fit(12, 6, &obs, &quick_cfg(8), None);
        assert_ne!(a.predict(3, 4), c.predict(3, 4));
    }

    #[test]
    fn predict_row_matches_cells() {
        let (obs, _) = planted_ratings(8, 5);
        let model = fit(8, 5, &obs, &quick_cfg(9), None);
        let row = model.predict_row(2);
        for (j, &v) in row.iter().enumerate() {
            assert_eq!(v, model.predict(2, j));
        }
        assert_eq!(model.shape(), (8, 5));
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn rejects_empty_observations() {
        fit(3, 3, &[], &quick_cfg(1), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_rating() {
        fit(
            3,
            3,
            &[Rating {
                row: 5,
                col: 0,
                value: 1.0,
            }],
            &quick_cfg(1),
            None,
        );
    }
}
