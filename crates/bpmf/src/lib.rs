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
use hlm_resilience::{Checkpoint, ResilienceError, TrainControl};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Checkpoint kind tag for BPMF Gibbs runs.
pub const BPMF_CHECKPOINT_KIND: &str = "bpmf";

/// Sampler state after a completed sweep. The prediction accumulator is
/// serialized (not recomputed) so averaging order — and therefore the final
/// model bits — match an uninterrupted run.
#[derive(Serialize, Deserialize)]
struct BpmfState {
    iters_done: u64,
    u: Matrix,
    v: Matrix,
    acc: Matrix,
    n_samples: u64,
    rng: [u64; 4],
}

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

    /// Appends prediction rows `U_new · Vᵀ` for companies that arrived after
    /// the fit — the cheap half of the streaming update (see
    /// [`fold_in_rows`]). Existing rows are untouched.
    ///
    /// # Panics
    /// Panics if the factor dimensionalities disagree or `v` does not have
    /// one row per existing prediction column.
    pub fn extend_rows(&mut self, u_new: &Matrix, v: &Matrix) {
        assert_eq!(
            u_new.cols(),
            v.cols(),
            "factor dimensionality mismatch between U_new and V"
        );
        assert_eq!(
            v.rows(),
            self.predictions.cols(),
            "V must have one row per predicted column"
        );
        let extra = u_new.matmul_nt(v);
        let (r0, c) = self.predictions.shape();
        let mut out = Matrix::zeros(r0 + extra.rows(), c);
        for i in 0..r0 {
            out.row_mut(i).copy_from_slice(self.predictions.row(i));
        }
        for i in 0..extra.rows() {
            out.row_mut(r0 + i).copy_from_slice(extra.row(i));
        }
        self.predictions = out;
    }
}

/// Ridge (MAP) factor estimates for new rows given frozen item factors `v`:
/// for each row the posterior mean of `u_i` under the Gaussian likelihood
/// with precision `α` and an isotropic prior with precision `lambda`,
///
/// `u_i = (λI + α Σ v_j v_jᵀ)⁻¹ · α Σ r_ij v_j`.
///
/// This is the standard BPMF cold-start fold-in: item factors stay put, new
/// company factors are solved in closed form — no sampling, deterministic,
/// O(|obs|·d² + d³) per row. Rows with no observations get zero factors
/// (predictions fall back to 0, the clamp floor for binary rankings).
///
/// # Panics
/// Panics if `alpha` or `lambda` is not positive, or a rating addresses an
/// item `>= v.rows()`.
pub fn fold_in_rows(v: &Matrix, rows: &[Vec<(usize, f64)>], alpha: f64, lambda: f64) -> Matrix {
    assert!(alpha > 0.0, "observation precision must be positive");
    assert!(lambda > 0.0, "prior precision must be positive");
    let d = v.cols();
    let prior = Matrix::identity(d).scale(lambda);
    let mut out = Matrix::zeros(rows.len(), d);
    let mut prec = Matrix::zeros(d, d);
    let mut b = vec![0.0; d];
    for (i, obs) in rows.iter().enumerate() {
        if obs.is_empty() {
            continue;
        }
        prec.copy_from(&prior);
        b.iter_mut().for_each(|x| *x = 0.0);
        for &(j, rating) in obs {
            assert!(
                j < v.rows(),
                "rating item {j} outside V's {} rows",
                v.rows()
            );
            let vj = v.row(j);
            prec.add_outer(alpha, vj, vj);
            for (bk, &vk) in b.iter_mut().zip(vj) {
                *bk += alpha * rating * vk;
            }
        }
        let chol = Cholesky::decompose_with_jitter(&prec, 1e-8, 10).expect("precision is SPD");
        out.row_mut(i).copy_from_slice(&chol.solve(&b));
    }
    out
}

/// Extracts the item-factor matrix `V` from a BPMF checkpoint — the frozen
/// side of the streaming fold-in ([`fold_in_rows`]).
pub fn item_factors_from_checkpoint(ckpt: &Checkpoint) -> Result<Matrix, ResilienceError> {
    if ckpt.kind != BPMF_CHECKPOINT_KIND {
        return Err(ResilienceError::Mismatch {
            reason: format!("kind {} != {BPMF_CHECKPOINT_KIND}", ckpt.kind),
        });
    }
    Ok(parse_payload(&ckpt.payload)?.v)
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
/// indices.
pub fn fit(
    n_rows: usize,
    n_cols: usize,
    ratings: &[Rating],
    cfg: &BpmfConfig,
    clamp: Option<(f64, f64)>,
) -> BpmfModel {
    fit_resumable(
        n_rows,
        n_cols,
        ratings,
        cfg,
        clamp,
        &mut TrainControl::noop(),
        None,
    )
    .expect("noop control cannot interrupt training")
}

/// Like [`fit`], but consults `ctrl` at every sweep boundary (watchdog,
/// divergence and opt-in score-collapse detection, per-sample checkpointing)
/// and optionally continues from an earlier run's checkpoint. An
/// interrupted-then-resumed run produces a model bit-identical to an
/// uninterrupted one.
///
/// Note that score-collapse detection only fires when the control opts in
/// via [`hlm_resilience::CollapsePolicy::Detect`]: the paper's Figure-5
/// positive-only setup collapses *by design*, so plain [`fit`] must keep
/// reproducing it.
///
/// # Panics
/// Panics on the same malformed-input conditions as [`fit`].
#[allow(clippy::too_many_arguments)]
pub fn fit_resumable(
    n_rows: usize,
    n_cols: usize,
    ratings: &[Rating],
    cfg: &BpmfConfig,
    clamp: Option<(f64, f64)>,
    ctrl: &mut TrainControl,
    resume: Option<&Checkpoint>,
) -> Result<BpmfModel, ResilienceError> {
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
    let mut start_iter = 0u64;

    if let Some(ckpt) = resume {
        let state = decode_state(ckpt, n_rows, n_cols, d)?;
        start_iter = state.iters_done;
        u = state.u;
        v = state.v;
        acc = state.acc;
        n_samples = state.n_samples;
        rng = StdRng::from_state(state.rng);
    }

    let rec = hlm_obs::global();
    for iter in start_iter as usize..cfg.n_iters {
        ctrl.begin_iteration(iter as u64)?;
        let sweep_t0 = rec.is_enabled().then(std::time::Instant::now);
        let (mu_u, lambda_u) = sample_hyper(&mut rng, &u, cfg.beta0, cfg.w0_scale);
        let (mu_v, lambda_v) = sample_hyper(&mut rng, &v, cfg.beta0, cfg.w0_scale);
        // Factor streams are keyed by (seed, sweep, side) rather than drawn
        // from the master RNG, so chunked parallel draws stay reproducible
        // (and resume-identical: the key depends only on the sweep number).
        let seed_u = hlm_par::split_seed3(cfg.seed ^ 0xFAC7_0125, iter as u64, 0);
        let seed_v = hlm_par::split_seed3(cfg.seed ^ 0xFAC7_0125, iter as u64, 1);
        sample_factors(seed_u, &mut u, &v, &by_row, &mu_u, &lambda_u, cfg.alpha);
        sample_factors(seed_v, &mut v, &u, &by_col, &mu_v, &lambda_v, cfg.alpha);

        if iter >= cfg.burn_in {
            let pred = u.matmul_nt(&v);
            acc.axpy(1.0, &pred);
            n_samples += 1;

            // Divergence and (opt-in) collapse checks on the running mean of
            // the sampled predictions.
            let mean = acc.clone().scale(1.0 / n_samples as f64);
            ctrl.check_metric(
                iter as u64,
                "mean prediction",
                mean.as_slice().iter().sum::<f64>() / mean.as_slice().len() as f64,
            )?;
            ctrl.check_scores(iter as u64, mean.as_slice())?;
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

        ctrl.checkpoint(iter as u64 + 1, || {
            encode_state(&BpmfState {
                iters_done: iter as u64 + 1,
                u: u.clone(),
                v: v.clone(),
                acc: acc.clone(),
                n_samples,
                rng: rng.state(),
            })
        });
    }
    assert!(n_samples > 0, "no samples collected");
    acc.scale_mut(1.0 / n_samples as f64);
    Ok(BpmfModel {
        predictions: acc,
        clamp,
    })
}

/// Materializes a model directly from a checkpoint, without further sweeps —
/// the rollback path when a later sweep diverges. Fails with
/// [`ResilienceError::Mismatch`] if the checkpoint predates burn-in.
pub fn model_from_checkpoint(
    ckpt: &Checkpoint,
    clamp: Option<(f64, f64)>,
) -> Result<BpmfModel, ResilienceError> {
    if ckpt.kind != BPMF_CHECKPOINT_KIND {
        return Err(ResilienceError::Mismatch {
            reason: format!("kind {} != {BPMF_CHECKPOINT_KIND}", ckpt.kind),
        });
    }
    let state = parse_payload(&ckpt.payload)?;
    if state.n_samples == 0 {
        return Err(ResilienceError::Mismatch {
            reason: "checkpoint predates burn-in: no prediction samples collected".to_string(),
        });
    }
    let mut acc = state.acc;
    acc.scale_mut(1.0 / state.n_samples as f64);
    Ok(BpmfModel {
        predictions: acc,
        clamp,
    })
}

fn encode_state(state: &BpmfState) -> Vec<u8> {
    serde_json::to_string(state)
        .expect("bpmf state serializes")
        .into_bytes()
}

fn parse_payload(payload: &[u8]) -> Result<BpmfState, ResilienceError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ResilienceError::corrupt("bpmf payload is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| ResilienceError::corrupt(format!("bpmf payload does not parse: {e}")))
}

fn decode_state(
    ckpt: &Checkpoint,
    n_rows: usize,
    n_cols: usize,
    d: usize,
) -> Result<BpmfState, ResilienceError> {
    if ckpt.kind != BPMF_CHECKPOINT_KIND {
        return Err(ResilienceError::Mismatch {
            reason: format!("kind {} != {BPMF_CHECKPOINT_KIND}", ckpt.kind),
        });
    }
    let state = parse_payload(&ckpt.payload)?;
    if state.u.rows() != n_rows
        || state.u.cols() != d
        || state.v.rows() != n_cols
        || state.v.cols() != d
        || state.acc.rows() != n_rows
        || state.acc.cols() != n_cols
    {
        return Err(ResilienceError::Mismatch {
            reason: "checkpoint factor shapes do not match the rating matrix".to_string(),
        });
    }
    Ok(state)
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
    fn kill_and_resume_matches_uninterrupted_run() {
        use hlm_resilience::{CheckpointStore, MemIo, RunGuard};

        let (obs, _) = planted_ratings(12, 6);
        let cfg = quick_cfg(7);
        let full = fit(12, 6, &obs, &cfg, None);

        // Kill after burn-in (15) so the prediction accumulator is mid-sum.
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(BPMF_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(25));
        let err = fit_resumable(12, 6, &obs, &cfg, None, &mut ctrl, None).unwrap_err();
        assert!(err.is_interruption());

        let ckpt = store.latest_good(BPMF_CHECKPOINT_KIND).unwrap().unwrap();
        assert_eq!(ckpt.iteration, 25);
        let resumed = fit_resumable(
            12,
            6,
            &obs,
            &cfg,
            None,
            &mut TrainControl::noop(),
            Some(&ckpt),
        )
        .unwrap();
        for i in 0..12 {
            assert_eq!(
                resumed.predict_row(i),
                full.predict_row(i),
                "row {i} must be bit-identical after resume"
            );
        }

        // Rollback from the same checkpoint yields a usable (partial-average)
        // model.
        let rolled = model_from_checkpoint(&ckpt, None).unwrap();
        assert_eq!(rolled.shape(), (12, 6));
        assert!(rolled.all_scores().iter().all(|s| s.is_finite()));
    }

    #[test]
    fn collapse_detection_is_opt_in_and_fires_on_constant_scores() {
        use hlm_resilience::CollapsePolicy;

        // All-identical positive-only ratings with heavy clamping produce a
        // near-constant prediction matrix only under pathological configs;
        // instead, prove the plumbing with an injected NaN, and that the
        // default policy leaves the Figure-5 setup alone.
        let (obs, _) = planted_ratings(10, 6);
        let cfg = quick_cfg(4);

        let mut strict = TrainControl::noop()
            .with_faults(hlm_resilience::FaultPlan::none().with_nan_at_iteration(20));
        let err = fit_resumable(10, 6, &obs, &cfg, None, &mut strict, None).unwrap_err();
        assert!(matches!(
            err,
            ResilienceError::Diverged { iteration: 20, .. }
        ));

        // Opt-in collapse detection does not fire on healthy factorization.
        let mut detect = TrainControl::noop().with_collapse_policy(CollapsePolicy::Detect);
        assert!(fit_resumable(10, 6, &obs, &cfg, None, &mut detect, None).is_ok());
    }

    #[test]
    fn fold_in_rows_recovers_planted_factors() {
        // Planted V with distinct rows; new companies rate every item from a
        // known u; the ridge solution must reproduce u (small prior, exact
        // ratings) and the extended model must predict the products.
        let d = 3;
        let v = Matrix::from_fn(6, d, |i, j| ((i * 3 + j) % 5) as f64 * 0.5 - 1.0);
        let planted: Vec<Vec<f64>> = vec![vec![1.0, -0.5, 2.0], vec![0.0, 1.5, -1.0]];
        let rows: Vec<Vec<(usize, f64)>> = planted
            .iter()
            .map(|u| {
                (0..6)
                    .map(|j| (j, u.iter().zip(v.row(j)).map(|(a, b)| a * b).sum()))
                    .collect()
            })
            .collect();
        let u_new = fold_in_rows(&v, &rows, 100.0, 1e-4);
        for (i, u) in planted.iter().enumerate() {
            for (k, &want) in u.iter().enumerate() {
                let got = u_new.get(i, k);
                assert!((got - want).abs() < 1e-2, "u[{i}][{k}] {got} vs {want}");
            }
        }
    }

    #[test]
    fn fold_in_rows_empty_row_gets_zero_factors() {
        let v = Matrix::identity(4);
        let u = fold_in_rows(&v, &[vec![], vec![(0, 1.0)]], 2.0, 1.0);
        assert!(u.row(0).iter().all(|&x| x == 0.0));
        assert!(u.row(1).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn extend_rows_appends_dot_product_predictions() {
        let (obs, _) = planted_ratings(8, 5);
        let mut model = fit(8, 5, &obs, &quick_cfg(5), Some((0.0, 5.0)));
        let v = Matrix::from_fn(5, 2, |i, j| (i + j) as f64 * 0.1);
        let u_new = Matrix::from_rows(&[&[1.0, 2.0]]);
        let before_row0 = model.predict_row(0);
        model.extend_rows(&u_new, &v);
        assert_eq!(model.shape(), (9, 5));
        assert_eq!(model.predict_row(0), before_row0, "existing rows untouched");
        for j in 0..5 {
            let raw: f64 = [1.0, 2.0].iter().zip(v.row(j)).map(|(a, b)| a * b).sum();
            assert_eq!(model.predict(8, j), raw.clamp(0.0, 5.0));
        }
    }

    #[test]
    fn item_factors_roundtrip_through_checkpoint() {
        use hlm_resilience::{CheckpointStore, MemIo, RunGuard};

        let (obs, _) = planted_ratings(12, 6);
        let cfg = quick_cfg(7);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(BPMF_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(25));
        fit_resumable(12, 6, &obs, &cfg, None, &mut ctrl, None).unwrap_err();
        let ckpt = store.latest_good(BPMF_CHECKPOINT_KIND).unwrap().unwrap();

        let v = item_factors_from_checkpoint(&ckpt).unwrap();
        assert_eq!(v.shape(), (6, cfg.n_factors));
        assert!(v.as_slice().iter().all(|x| x.is_finite()));

        let bad = Checkpoint {
            kind: "lda".to_string(),
            ..ckpt.clone()
        };
        assert!(item_factors_from_checkpoint(&bad).is_err());
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
