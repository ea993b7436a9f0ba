//! Batch variational-Bayes inference for LDA (Blei, Ng & Jordan 2003).
//!
//! The paper's experiments used gensim, whose LDA implementation is
//! variational Bayes rather than collapsed Gibbs. This module provides the
//! same mean-field coordinate ascent so the two estimators can be compared
//! (see the inference ablation): per-document variational Dirichlet
//! parameters `γ_d` with token responsibilities
//! `φ_{dwk} ∝ exp(ψ(γ_dk)) · exp(ψ(λ_kw) − ψ(Σ_w λ_kw))`, and a global
//! topic-word Dirichlet `λ`.
//!
//! Token weights are honoured exactly as in the Gibbs sampler, so binary and
//! TF-IDF inputs both work.

use crate::model::{LdaConfig, LdaModel};
use crate::WeightedDoc;
use hlm_linalg::special::digamma;
use hlm_linalg::Matrix;
use hlm_par::Pool;
use hlm_resilience::{Checkpoint, ResilienceError, TrainControl};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Documents per parallel E-step chunk (fixed so results are independent of
/// the worker count).
pub(crate) const VB_DOC_CHUNK: usize = 64;

/// Mean-field E-step for one document: iterates the variational Dirichlet
/// `γ_d` to (near-)convergence against the current `exp(E[log φ])` cache,
/// then accumulates the document's `λ` sufficient statistics into
/// `lambda_contrib` and returns `γ_d`. Shared verbatim by the batch and the
/// online (Hoffman-style) optimizers so both produce the same per-document
/// floating-point sequence.
#[allow(clippy::too_many_arguments)]
pub(crate) fn doc_e_step(
    doc: &[(usize, f64)],
    alpha: f64,
    k: usize,
    e_log_phi: &Matrix,
    doc_iters: usize,
    tol: f64,
    resp: &mut [f64],
    lambda_contrib: &mut Matrix,
) -> Vec<f64> {
    let mut g = vec![alpha + doc.len() as f64 / k as f64; k];
    for _ in 0..doc_iters {
        let mut g_new = vec![alpha; k];
        for &(w, weight) in doc {
            let mut s = 0.0;
            for t in 0..k {
                resp[t] = digamma(g[t]).exp() * e_log_phi.get(t, w);
                s += resp[t];
            }
            if s <= 0.0 {
                continue;
            }
            for t in 0..k {
                g_new[t] += weight * resp[t] / s;
            }
        }
        let delta: f64 = g
            .iter()
            .zip(&g_new)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / k as f64;
        g = g_new;
        if delta < tol {
            break;
        }
    }
    // Accumulate sufficient statistics into λ.
    for &(w, weight) in doc {
        let mut s = 0.0;
        for (t, r) in resp.iter_mut().enumerate().take(k) {
            *r = digamma(g[t]).exp() * e_log_phi.get(t, w);
            s += *r;
        }
        if s <= 0.0 {
            continue;
        }
        for (t, &r) in resp.iter().enumerate().take(k) {
            lambda_contrib.add_at(t, w, weight * r / s);
        }
    }
    g
}

/// Fills the `exp(E[log φ_kw])` cache from the current `λ` (shared by the
/// batch and online optimizers).
pub(crate) fn fill_e_log_phi(lambda: &Matrix, e_log_phi: &mut Matrix) {
    let (k, m) = (lambda.rows(), lambda.cols());
    for t in 0..k {
        let row_sum: f64 = lambda.row(t).iter().sum();
        let psi_sum = digamma(row_sum);
        for w in 0..m {
            e_log_phi.set(t, w, (digamma(lambda.get(t, w)) - psi_sum).exp());
        }
    }
}

/// One chunk's E-step output: its contribution to the new `λ` sufficient
/// statistics, its documents' updated `γ` rows, and the summed absolute
/// `γ` change.
struct EStepOut {
    lambda_contrib: Matrix,
    gamma_rows: Vec<f64>,
    gamma_change: f64,
}

/// Checkpoint kind tag for variational-Bayes runs.
pub const VB_CHECKPOINT_KIND: &str = "lda-vb";

/// Optimizer state after a completed E-M iteration. The RNG is only used to
/// initialize `λ`, which is part of the state, so it needs no capture.
#[derive(Serialize, Deserialize)]
struct VbState {
    iters_done: u64,
    converged: bool,
    lambda: Matrix,
    gamma: Matrix,
}

/// Settings for the variational optimizer.
#[derive(Debug, Clone)]
pub struct VbOptions {
    /// Maximum E-M iterations over the corpus.
    pub max_iters: usize,
    /// Per-document E-step iterations.
    pub doc_iters: usize,
    /// Stop when the mean absolute change of `γ` falls below this.
    pub tol: f64,
}

impl Default for VbOptions {
    fn default() -> Self {
        VbOptions {
            max_iters: 60,
            doc_iters: 30,
            tol: 1e-4,
        }
    }
}

/// Variational-Bayes trainer sharing [`LdaConfig`] with the Gibbs sampler
/// (the `n_iters` / `burn_in` / `sample_lag` fields are ignored; use
/// [`VbOptions`]).
#[derive(Debug, Clone)]
pub struct VbTrainer {
    cfg: LdaConfig,
    opts: VbOptions,
}

impl VbTrainer {
    /// Creates a trainer.
    ///
    /// # Panics
    /// Panics on an inconsistent configuration or zero iteration budgets.
    pub fn new(cfg: LdaConfig, opts: VbOptions) -> Self {
        cfg.validate();
        assert!(
            opts.max_iters >= 1 && opts.doc_iters >= 1,
            "iteration budgets must be positive"
        );
        assert!(opts.tol >= 0.0);
        VbTrainer { cfg, opts }
    }

    /// Runs mean-field coordinate ascent and returns the estimated model
    /// (expected `phi` under the variational posterior `λ`).
    ///
    /// # Panics
    /// Panics on out-of-vocabulary words or non-positive token weights.
    pub fn fit(&self, docs: &[WeightedDoc]) -> LdaModel {
        self.fit_resumable(docs, &mut TrainControl::noop(), None)
            .expect("noop control cannot interrupt training")
    }

    /// Like [`VbTrainer::fit`], but consults `ctrl` at every E-M iteration
    /// boundary and optionally continues from an earlier run's checkpoint,
    /// producing a model bit-identical to an uninterrupted run.
    ///
    /// # Panics
    /// Panics on the same malformed-input conditions as `fit`.
    pub fn fit_resumable(
        &self,
        docs: &[WeightedDoc],
        ctrl: &mut TrainControl,
        resume: Option<&Checkpoint>,
    ) -> Result<LdaModel, ResilienceError> {
        let k = self.cfg.n_topics;
        let m = self.cfg.vocab_size;
        let alpha = self.cfg.effective_alpha();
        let beta = self.cfg.beta;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);

        for doc in docs {
            for &(w, weight) in doc {
                assert!(w < m, "word {w} outside vocabulary of {m}");
                assert!(
                    weight.is_finite() && weight > 0.0,
                    "token weight must be positive, got {weight}"
                );
            }
        }

        // Initialize λ with small positive noise around β.
        let mut lambda = Matrix::from_fn(k, m, |_, _| beta + 0.5 + 0.1 * rng.gen::<f64>());
        let mut gamma = Matrix::filled(docs.len(), k, alpha + 1.0);
        let mut start_iter = 0u64;

        if let Some(ckpt) = resume {
            let state = decode_state(ckpt, docs.len(), k, m)?;
            if state.converged {
                let mut phi = state.lambda;
                phi.normalize_rows();
                return Ok(LdaModel::new(phi, alpha, beta));
            }
            start_iter = state.iters_done;
            lambda = state.lambda;
            gamma = state.gamma;
        }

        // exp(E[log φ_kw]) cache.
        let mut e_log_phi = Matrix::zeros(k, m);
        let pool = Pool::global();
        let rec = hlm_obs::global();
        let n_chunks = hlm_par::chunk_count(docs.len(), VB_DOC_CHUNK);

        for iter in start_iter as usize..self.opts.max_iters {
            ctrl.begin_iteration(iter as u64)?;
            let iter_t0 = rec.is_enabled().then(std::time::Instant::now);
            // Cache expected log topic-word probabilities.
            fill_e_log_phi(&lambda, &mut e_log_phi);

            // Per-document E-steps are independent given λ; run them over
            // fixed document chunks and merge the sufficient statistics in
            // chunk order (deterministic at any thread count).
            let e_outs = pool.run(n_chunks, |c| {
                let (d_lo, d_hi) = hlm_par::chunk_bounds(docs.len(), VB_DOC_CHUNK, c);
                let mut out = EStepOut {
                    lambda_contrib: Matrix::zeros(k, m),
                    gamma_rows: Vec::with_capacity((d_hi - d_lo) * k),
                    gamma_change: 0.0,
                };
                let mut resp = vec![0.0f64; k];
                for (d, doc) in docs.iter().enumerate().take(d_hi).skip(d_lo) {
                    let g = doc_e_step(
                        doc,
                        alpha,
                        k,
                        &e_log_phi,
                        self.opts.doc_iters,
                        self.opts.tol,
                        &mut resp,
                        &mut out.lambda_contrib,
                    );
                    for (t, &gt) in g.iter().enumerate().take(k) {
                        out.gamma_change += (gamma.get(d, t) - gt).abs();
                    }
                    out.gamma_rows.extend_from_slice(&g);
                }
                out
            });

            let mut lambda_new = Matrix::filled(k, m, beta);
            let mut mean_gamma_change = 0.0;
            for (c, out) in e_outs.into_iter().enumerate() {
                let (d_lo, d_hi) = hlm_par::chunk_bounds(docs.len(), VB_DOC_CHUNK, c);
                lambda_new.axpy(1.0, &out.lambda_contrib);
                gamma.as_mut_slice()[d_lo * k..d_hi * k].copy_from_slice(&out.gamma_rows);
                mean_gamma_change += out.gamma_change;
            }
            lambda = lambda_new;
            mean_gamma_change /= (docs.len().max(1) * k) as f64;
            // Read-only observation: the trace mirrors the convergence
            // criterion without influencing it.
            if let Some(t0) = iter_t0 {
                rec.observe("lda.vb.iter_seconds", t0.elapsed().as_secs_f64());
                rec.add("lda.vb.iters", 1);
                rec.trace("lda.vb.mean_gamma_change", iter as u64, mean_gamma_change);
            }
            let change = ctrl.check_metric(iter as u64, "mean gamma change", mean_gamma_change)?;
            let converged = change < self.opts.tol;
            ctrl.checkpoint(iter as u64 + 1, || {
                encode_state(&VbState {
                    iters_done: iter as u64 + 1,
                    converged,
                    lambda: lambda.clone(),
                    gamma: gamma.clone(),
                })
            });
            if converged {
                break;
            }
        }

        let mut phi = lambda;
        phi.normalize_rows();
        Ok(LdaModel::new(phi, alpha, beta))
    }

    /// Materializes a model directly from a checkpoint, without further
    /// E-M iterations — the rollback path when a later iteration diverges.
    pub fn model_from_checkpoint(&self, ckpt: &Checkpoint) -> Result<LdaModel, ResilienceError> {
        let state = decode_state(ckpt, usize::MAX, self.cfg.n_topics, self.cfg.vocab_size)?;
        let mut phi = state.lambda;
        phi.normalize_rows();
        Ok(LdaModel::new(
            phi,
            self.cfg.effective_alpha(),
            self.cfg.beta,
        ))
    }
}

fn encode_state(state: &VbState) -> Vec<u8> {
    serde_json::to_string(state)
        .expect("vb state serializes")
        .into_bytes()
}

fn decode_state(
    ckpt: &Checkpoint,
    n_docs: usize,
    k: usize,
    m: usize,
) -> Result<VbState, ResilienceError> {
    if ckpt.kind != VB_CHECKPOINT_KIND {
        return Err(ResilienceError::Mismatch {
            reason: format!("kind {} != {VB_CHECKPOINT_KIND}", ckpt.kind),
        });
    }
    let text = std::str::from_utf8(&ckpt.payload)
        .map_err(|_| ResilienceError::corrupt("vb payload is not UTF-8"))?;
    let state: VbState = serde_json::from_str(text)
        .map_err(|e| ResilienceError::corrupt(format!("vb payload does not parse: {e}")))?;
    if state.lambda.rows() != k || state.lambda.cols() != m {
        return Err(ResilienceError::Mismatch {
            reason: "checkpoint lambda shape does not match the configuration".to_string(),
        });
    }
    // n_docs == usize::MAX skips the document-count check (rollback path,
    // where the corpus is not at hand).
    if n_docs != usize::MAX && (state.gamma.rows() != n_docs || state.gamma.cols() != k) {
        return Err(ResilienceError::Mismatch {
            reason: "checkpoint gamma shape does not match the corpus".to_string(),
        });
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::GibbsTrainer;
    use crate::perplexity::document_completion_perplexity;
    use crate::unit_weights;

    fn planted_docs(n_docs: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_docs)
            .map(|i| {
                let base = if i % 2 == 0 { 0usize } else { 3 };
                // 3 distinct words from the topic's block (set semantics).
                let mut block: Vec<usize> = (base..base + 3).collect();
                hlm_linalg::dist::shuffle(&mut rng, &mut block);
                block
            })
            .collect()
    }

    fn cfg(k: usize, vocab: usize) -> LdaConfig {
        LdaConfig {
            n_topics: k,
            vocab_size: vocab,
            alpha: Some(0.3),
            beta: 0.1,
            ..Default::default()
        }
    }

    #[test]
    fn vb_recovers_planted_topics() {
        let docs = unit_weights(&planted_docs(150, 1));
        let model = VbTrainer::new(cfg(2, 6), VbOptions::default()).fit(&docs);
        let phi = model.phi();
        // Topic 0 owns one of the two 3-word blocks nearly entirely — its
        // mass on block {0,1,2} is near 1 (it owns that block) or near 0
        // (it owns the other one).
        let block0: f64 = (0..3).map(|w| phi.get(0, w)).sum();
        assert!(
            !(0.1..=0.9).contains(&block0),
            "topics must separate the planted blocks, block mass {block0}"
        );
    }

    #[test]
    fn vb_and_gibbs_agree_on_heldout_fit() {
        let docs = unit_weights(&planted_docs(200, 2));
        let (train, test) = docs.split_at(160);
        let vb = VbTrainer::new(cfg(2, 6), VbOptions::default()).fit(train);
        let gibbs = GibbsTrainer::new(LdaConfig {
            n_iters: 150,
            burn_in: 75,
            sample_lag: 5,
            ..cfg(2, 6)
        })
        .fit(train);
        let p_vb = document_completion_perplexity(&vb, test);
        let p_gibbs = document_completion_perplexity(&gibbs, test);
        assert!(
            (p_vb - p_gibbs).abs() < 0.15 * p_gibbs,
            "VB {p_vb} vs Gibbs {p_gibbs} should agree within 15%"
        );
    }

    #[test]
    fn vb_is_deterministic_given_seed() {
        let docs = unit_weights(&planted_docs(50, 3));
        let a = VbTrainer::new(cfg(3, 6), VbOptions::default()).fit(&docs);
        let b = VbTrainer::new(cfg(3, 6), VbOptions::default()).fit(&docs);
        assert_eq!(a.phi(), b.phi());
    }

    #[test]
    fn vb_handles_weighted_and_empty_documents() {
        let mut docs: Vec<WeightedDoc> = vec![vec![(0, 2.5), (1, 0.3)]; 20];
        docs.push(Vec::new());
        let model = VbTrainer::new(cfg(2, 4), VbOptions::default()).fit(&docs);
        assert!(model.phi().is_finite());
        for t in 0..2 {
            assert!((model.phi().row(t).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn vb_rejects_out_of_vocab() {
        VbTrainer::new(cfg(2, 3), VbOptions::default()).fit(&[vec![(7, 1.0)]]);
    }

    #[test]
    fn vb_kill_and_resume_matches_uninterrupted_run() {
        use hlm_resilience::{CheckpointStore, MemIo, RunGuard, TrainControl};

        let docs = unit_weights(&planted_docs(80, 5));
        let trainer = VbTrainer::new(cfg(2, 6), VbOptions::default());
        let full = trainer.fit(&docs);

        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(VB_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(3));
        let err = trainer.fit_resumable(&docs, &mut ctrl, None).unwrap_err();
        assert!(err.is_interruption());

        let ckpt = store.latest_good(VB_CHECKPOINT_KIND).unwrap().unwrap();
        assert_eq!(ckpt.iteration, 3);
        let resumed = trainer
            .fit_resumable(&docs, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(resumed.phi(), full.phi(), "resume must be bit-identical");
    }

    #[test]
    fn vb_resume_from_converged_checkpoint_returns_final_model() {
        use hlm_resilience::{CheckpointStore, MemIo, TrainControl};

        let docs = unit_weights(&planted_docs(80, 6));
        let trainer = VbTrainer::new(cfg(2, 6), VbOptions::default());
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(VB_CHECKPOINT_KIND, &store);
        let full = trainer.fit_resumable(&docs, &mut ctrl, None).unwrap();

        let ckpt = store.latest_good(VB_CHECKPOINT_KIND).unwrap().unwrap();
        let resumed = trainer
            .fit_resumable(&docs, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(resumed.phi(), full.phi());

        let rolled_back = trainer.model_from_checkpoint(&ckpt).unwrap();
        assert_eq!(rolled_back.phi(), full.phi());
    }
}
