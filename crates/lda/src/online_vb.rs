//! Online (stochastic) variational Bayes over a sharded corpus.
//!
//! Hoffman-style stochastic variational inference (Hoffman, Blei & Bach,
//! "Online Learning for Latent Dirichlet Allocation", NIPS 2010) adapted to
//! the out-of-core pipeline: **one shard is one minibatch**, and one pass
//! over all shards is one epoch. Each step fits the variational `γ` of the
//! shard's documents against the current `λ` (the same per-document E-step
//! as batch VB, see [`crate::vb`]), forms the minibatch estimate
//! `λ̂ = β + (D/|B_t|)·ss`, and blends `λ ← (1−ρ_t)λ + ρ_t λ̂` with the
//! Robbins–Monro step size `ρ_t = (τ₀ + t)^(−κ)`.
//!
//! Unlike the sharded Gibbs path, no per-shard state is spilled between
//! visits: `γ` is re-fit from `λ` at every visit, so a checkpoint is just
//! `(step, λ)` — resuming mid-epoch is bit-identical because document
//! chunks, merge order, and the step counter are all deterministic.
//!
//! The result depends on the shard layout (that is what "minibatch" means),
//! so unlike Gibbs there is no claim that different shard counts agree —
//! only that the same layout gives the same bits regardless of thread
//! count, backing store, or interruptions.

use crate::model::{LdaConfig, LdaModel};
use crate::sharded::DocShardSource;
use crate::vb::{doc_e_step, fill_e_log_phi, VB_DOC_CHUNK};
use hlm_linalg::Matrix;
use hlm_par::Pool;
use hlm_resilience::{Checkpoint, ResilienceError, TrainControl};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Checkpoint kind tag for online variational-Bayes runs.
pub const ONLINE_VB_CHECKPOINT_KIND: &str = "lda-online-vb";

/// Optimizer state after a completed shard step. `γ` is re-derived from `λ`
/// at each visit, so `λ` and the step counter are the whole state.
#[derive(Serialize, Deserialize)]
struct OnlineVbState {
    step: u64,
    n_shards: u64,
    n_docs: u64,
    lambda: Matrix,
}

/// Settings for the online optimizer.
#[derive(Debug, Clone)]
pub struct OnlineVbOptions {
    /// Passes over the full shard sequence (one epoch = one pass).
    pub epochs: usize,
    /// Per-document E-step iterations.
    pub doc_iters: usize,
    /// Per-document `γ` convergence tolerance.
    pub tol: f64,
    /// Forgetting rate `κ ∈ (0.5, 1]` of the Robbins–Monro schedule.
    pub kappa: f64,
    /// Delay `τ₀ ≥ 0` down-weighting the first steps.
    pub tau0: f64,
}

impl Default for OnlineVbOptions {
    fn default() -> Self {
        OnlineVbOptions {
            epochs: 1,
            doc_iters: 30,
            tol: 1e-4,
            kappa: 0.7,
            tau0: 1024.0,
        }
    }
}

/// Online variational-Bayes trainer sharing [`LdaConfig`] with the other
/// estimators (the Gibbs scheduling fields are ignored; use
/// [`OnlineVbOptions`]).
#[derive(Debug, Clone)]
pub struct OnlineVbTrainer {
    cfg: LdaConfig,
    opts: OnlineVbOptions,
}

impl OnlineVbTrainer {
    /// Creates a trainer.
    ///
    /// # Panics
    /// Panics on an inconsistent configuration or schedule.
    pub fn new(cfg: LdaConfig, opts: OnlineVbOptions) -> Self {
        cfg.validate();
        assert!(
            opts.epochs >= 1 && opts.doc_iters >= 1,
            "iteration budgets must be positive"
        );
        assert!(
            opts.kappa > 0.5 && opts.kappa <= 1.0,
            "kappa must lie in (0.5, 1] for convergence, got {}",
            opts.kappa
        );
        assert!(opts.tau0 >= 0.0 && opts.tol >= 0.0);
        OnlineVbTrainer { cfg, opts }
    }

    /// The configuration.
    pub fn config(&self) -> &LdaConfig {
        &self.cfg
    }

    /// Runs `epochs` shard passes and returns the estimated model
    /// (expected `phi` under the final variational posterior `λ`).
    ///
    /// # Panics
    /// Panics on out-of-vocabulary words, non-positive token weights or a
    /// shard the source cannot read.
    pub fn fit<S: DocShardSource + ?Sized>(&self, source: &S) -> LdaModel {
        self.fit_resumable(source, &mut TrainControl::noop(), None)
            .expect("noop control cannot interrupt training")
    }

    /// Like [`fit`](Self::fit), but consults `ctrl` at every shard-step
    /// boundary and optionally resumes from a checkpoint — bit-identical to
    /// the uninterrupted run over the same shard layout.
    pub fn fit_resumable<S: DocShardSource + ?Sized>(
        &self,
        source: &S,
        ctrl: &mut TrainControl,
        resume: Option<&Checkpoint>,
    ) -> Result<LdaModel, ResilienceError> {
        let k = self.cfg.n_topics;
        let m = self.cfg.vocab_size;
        let alpha = self.cfg.effective_alpha();
        let beta = self.cfg.beta;
        let n_docs = source.n_docs();
        let n_shards = source.n_shards();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);

        // Initialize λ exactly as batch VB does.
        let mut lambda = Matrix::from_fn(k, m, |_, _| beta + 0.5 + 0.1 * rng.gen::<f64>());
        let mut start_step = 0u64;

        if let Some(ckpt) = resume {
            if ckpt.kind != ONLINE_VB_CHECKPOINT_KIND {
                return Err(ResilienceError::Mismatch {
                    reason: format!("kind {} != {ONLINE_VB_CHECKPOINT_KIND}", ckpt.kind),
                });
            }
            let text = std::str::from_utf8(&ckpt.payload)
                .map_err(|_| ResilienceError::corrupt("online vb payload is not UTF-8"))?;
            let state: OnlineVbState = serde_json::from_str(text).map_err(|e| {
                ResilienceError::corrupt(format!("online vb payload does not parse: {e}"))
            })?;
            if state.n_docs != n_docs as u64 || state.n_shards != n_shards as u64 {
                return Err(ResilienceError::Mismatch {
                    reason: format!(
                        "checkpoint is for {} docs in {} shards, source has {n_docs} in {n_shards}",
                        state.n_docs, state.n_shards
                    ),
                });
            }
            if state.lambda.rows() != k || state.lambda.cols() != m {
                return Err(ResilienceError::Mismatch {
                    reason: "checkpoint lambda shape does not match the configuration".to_string(),
                });
            }
            start_step = state.step;
            lambda = state.lambda;
        }

        let mut e_log_phi = Matrix::zeros(k, m);
        let pool = Pool::global();
        let rec = hlm_obs::global();
        let total_steps = self.opts.epochs as u64 * n_shards as u64;

        for step in start_step..total_steps {
            ctrl.begin_iteration(step)?;
            let step_t0 = rec.is_enabled().then(std::time::Instant::now);
            let s = (step % n_shards as u64) as usize;
            let batch = source.shard_docs(s)?;
            for &(w, weight) in &batch.tokens {
                assert!(w < m, "word {w} outside vocabulary of {m}");
                assert!(
                    weight.is_finite() && weight > 0.0,
                    "token weight must be positive, got {weight}"
                );
            }

            fill_e_log_phi(&lambda, &mut e_log_phi);

            // Minibatch E-step over fixed document chunks, merged in chunk
            // order (deterministic at any thread count).
            let n_chunks = hlm_par::chunk_count(batch.len(), VB_DOC_CHUNK);
            let contribs = pool.run(n_chunks, |c| {
                let (d_lo, d_hi) = hlm_par::chunk_bounds(batch.len(), VB_DOC_CHUNK, c);
                let mut contrib = Matrix::zeros(k, m);
                let mut resp = vec![0.0f64; k];
                for d in d_lo..d_hi {
                    doc_e_step(
                        batch.doc(d),
                        alpha,
                        k,
                        &e_log_phi,
                        self.opts.doc_iters,
                        self.opts.tol,
                        &mut resp,
                        &mut contrib,
                    );
                }
                contrib
            });
            let mut ss = Matrix::zeros(k, m);
            for contrib in &contribs {
                ss.axpy(1.0, contrib);
            }

            // Natural-gradient step: blend the minibatch estimate of λ into
            // the running one. An empty shard (possible only when the whole
            // corpus is empty) contributes nothing.
            let rho = (self.opts.tau0 + step as f64).powf(-self.opts.kappa);
            let mut mean_change = 0.0;
            if !batch.is_empty() {
                let scale = n_docs as f64 / batch.len() as f64;
                for (l, &s_tw) in lambda.as_mut_slice().iter_mut().zip(ss.as_slice()) {
                    let hat = beta + scale * s_tw;
                    let new = (1.0 - rho) * *l + rho * hat;
                    mean_change += (new - *l).abs();
                    *l = new;
                }
                mean_change /= (k * m) as f64;
            }

            if let Some(t0) = step_t0 {
                rec.observe("lda.online_vb.step_seconds", t0.elapsed().as_secs_f64());
                rec.add("lda.online_vb.steps", 1);
                rec.trace("lda.online_vb.mean_lambda_change", step, mean_change);
            }
            ctrl.check_metric(step, "mean lambda change", mean_change)?;
            ctrl.checkpoint(step + 1, || {
                let state = OnlineVbState {
                    step: step + 1,
                    n_shards: n_shards as u64,
                    n_docs: n_docs as u64,
                    lambda: lambda.clone(),
                };
                serde_json::to_string(&state)
                    .expect("online vb state serializes")
                    .into_bytes()
            });
        }

        let mut phi = lambda;
        phi.normalize_rows();
        Ok(LdaModel::new(phi, alpha, beta))
    }

    /// Materializes a model directly from a checkpoint — the rollback path.
    /// Any step's `λ` is a usable (if less converged) posterior estimate.
    pub fn model_from_checkpoint(&self, ckpt: &Checkpoint) -> Result<LdaModel, ResilienceError> {
        if ckpt.kind != ONLINE_VB_CHECKPOINT_KIND {
            return Err(ResilienceError::Mismatch {
                reason: format!("kind {} != {ONLINE_VB_CHECKPOINT_KIND}", ckpt.kind),
            });
        }
        let text = std::str::from_utf8(&ckpt.payload)
            .map_err(|_| ResilienceError::corrupt("online vb payload is not UTF-8"))?;
        let state: OnlineVbState = serde_json::from_str(text).map_err(|e| {
            ResilienceError::corrupt(format!("online vb payload does not parse: {e}"))
        })?;
        let mut phi = state.lambda;
        phi.normalize_rows();
        Ok(LdaModel::new(
            phi,
            self.cfg.effective_alpha(),
            self.cfg.beta,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::MemDocShards;
    use crate::unit_weights;
    use crate::WeightedDoc;
    use hlm_resilience::{CheckpointStore, MemIo, RunGuard};

    fn planted_docs(n_docs: usize, seed: u64) -> Vec<WeightedDoc> {
        let mut rng = StdRng::seed_from_u64(seed);
        unit_weights(
            &(0..n_docs)
                .map(|i| {
                    let base = if i % 2 == 0 { 0usize } else { 3 };
                    (0..8).map(|_| base + rng.gen_range(0..3)).collect()
                })
                .collect::<Vec<_>>(),
        )
    }

    fn cfg(seed: u64) -> LdaConfig {
        LdaConfig {
            n_topics: 2,
            vocab_size: 6,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn online_vb_recovers_planted_topics() {
        let docs = planted_docs(300, 1);
        let opts = OnlineVbOptions {
            epochs: 8,
            tau0: 4.0,
            ..Default::default()
        };
        let model = OnlineVbTrainer::new(cfg(7), opts).fit(&MemDocShards::new(&docs, 4));
        let phi = model.phi();
        for t in 0..2 {
            let row = phi.row(t);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let lo: f64 = row[..3].iter().sum();
            let hi: f64 = row[3..].iter().sum();
            assert!(
                lo > 0.9 || hi > 0.9,
                "topic {t} should concentrate on one planted block, got {row:?}"
            );
        }
    }

    #[test]
    fn online_vb_is_deterministic_for_a_fixed_layout() {
        let docs = planted_docs(200, 2);
        let opts = OnlineVbOptions {
            epochs: 2,
            ..Default::default()
        };
        let a = OnlineVbTrainer::new(cfg(5), opts.clone()).fit(&MemDocShards::new(&docs, 3));
        let b = OnlineVbTrainer::new(cfg(5), opts).fit(&MemDocShards::new(&docs, 3));
        assert_eq!(a.phi(), b.phi());
    }

    #[test]
    fn kill_mid_epoch_and_resume_is_bit_identical() {
        let docs = planted_docs(200, 3);
        let opts = OnlineVbOptions {
            epochs: 3,
            ..Default::default()
        };
        let source = MemDocShards::new(&docs, 4);
        let full = OnlineVbTrainer::new(cfg(11), opts.clone()).fit(&source);

        let trainer = OnlineVbTrainer::new(cfg(11), opts);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(ONLINE_VB_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(6));
        let err = trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        assert!(err.is_interruption());

        let ckpt = store
            .latest_good(ONLINE_VB_CHECKPOINT_KIND)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.iteration, 6);
        let resumed = trainer
            .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(resumed.phi(), full.phi());
    }

    #[test]
    fn resume_rejects_a_different_shard_layout() {
        let docs = planted_docs(200, 4);
        let opts = OnlineVbOptions {
            epochs: 2,
            ..Default::default()
        };
        let trainer = OnlineVbTrainer::new(cfg(13), opts);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(ONLINE_VB_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(3));
        trainer
            .fit_resumable(&MemDocShards::new(&docs, 4), &mut ctrl, None)
            .unwrap_err();
        let ckpt = store
            .latest_good(ONLINE_VB_CHECKPOINT_KIND)
            .unwrap()
            .unwrap();
        let err = trainer
            .fit_resumable(
                &MemDocShards::new(&docs, 2),
                &mut TrainControl::noop(),
                Some(&ckpt),
            )
            .unwrap_err();
        assert!(matches!(err, ResilienceError::Mismatch { .. }));
    }
}
