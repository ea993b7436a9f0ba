//! Mini-batch trainer with validation-based early stopping.

use crate::model::LstmLm;
use crate::param::{Adam, AdamOptions};
use hlm_resilience::{Checkpoint, ResilienceError, TrainControl};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Checkpoint kind tag for LSTM training runs.
pub const LSTM_CHECKPOINT_KIND: &str = "lstm";

/// Sequences per data-parallel gradient chunk within a mini-batch. Fixed (a
/// function of the batch alone, never the thread count) so gradient merge
/// order — and therefore training — is identical at any parallelism.
const SEQ_CHUNK: usize = 4;

/// Complete trainer state after a finished epoch. The shuffle order and both
/// RNG streams are captured so a resumed run replays the exact same batch
/// sequence and dropout masks as an uninterrupted one.
#[derive(Serialize, Deserialize)]
struct LstmTrainState {
    epochs_done: u64,
    stopped_early: bool,
    model: LstmLm,
    model_rng: [u64; 4],
    adam: Adam,
    lr: f64,
    order: Vec<usize>,
    stats: Vec<EpochStats>,
    best_ppl: Option<f64>,
    best_model: Option<LstmLm>,
    best_rng: [u64; 4],
    since_best: u64,
    shuffle_rng: [u64; 4],
}

/// Training options. The paper trains for 14 epochs; early stopping on
/// validation perplexity guards the small-corpus regime.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Maximum epochs (paper: 14).
    pub epochs: usize,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// Adam settings.
    pub adam: AdamOptions,
    /// Stop when validation perplexity fails to improve this many epochs in
    /// a row (0 disables early stopping).
    pub patience: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Print one line per epoch to stderr.
    pub verbose: bool,
    /// Multiply the learning rate by this factor after each epoch beyond
    /// `decay_after` (Zaremba-style schedule). 1.0 disables decay.
    #[serde(default = "default_lr_decay")]
    pub lr_decay: f64,
    /// First epoch (0-based) after which the decay applies.
    #[serde(default)]
    pub decay_after: usize,
}

fn default_lr_decay() -> f64 {
    1.0
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 14,
            batch_size: 16,
            adam: AdamOptions::default(),
            patience: 3,
            seed: 1234,
            verbose: false,
            lr_decay: 1.0,
            decay_after: 0,
        }
    }
}

impl TrainOptions {
    /// Checks the schedule, returning the reason a trainer cannot run it.
    /// Zero epochs train nothing (the untrained baseline), so nothing else
    /// is checked then.
    ///
    /// # Errors
    /// The first invalid setting, described.
    pub fn check(&self) -> Result<(), String> {
        if self.epochs == 0 {
            return Ok(());
        }
        let rules = [
            (self.batch_size >= 1, "batch size must be positive"),
            (
                self.lr_decay > 0.0 && self.lr_decay <= 1.0,
                "lr_decay must be in (0, 1]",
            ),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some((_, reason)) => Err(reason.to_string()),
            None => self.adam.check(),
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training NLL per target token.
    pub train_nll: f64,
    /// Validation perplexity (NaN when no validation set was given).
    pub valid_perplexity: f64,
}

/// The trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    opts: TrainOptions,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    /// Panics on nonsensical options.
    pub fn new(opts: TrainOptions) -> Self {
        assert!(opts.epochs >= 1, "need at least one epoch");
        opts.check().unwrap_or_else(|reason| panic!("{reason}"));
        Trainer { opts }
    }

    /// Trains `model` on `train` sequences, monitoring perplexity on
    /// `valid` (pass an empty slice to disable validation / early stopping).
    /// Returns per-epoch statistics. The model is left at the parameters of
    /// the best validation epoch (or the final epoch without validation).
    pub fn fit(
        &self,
        model: &mut LstmLm,
        train: &[Vec<usize>],
        valid: &[Vec<usize>],
    ) -> Vec<EpochStats> {
        self.fit_resumable(model, train, valid, &mut TrainControl::noop(), None)
            .expect("noop control cannot interrupt training")
    }

    /// Like [`Trainer::fit`], but consults `ctrl` at every epoch boundary
    /// (watchdog, NaN/divergence detection, per-epoch checkpointing) and
    /// optionally continues from a checkpoint written by an earlier run. An
    /// interrupted-then-resumed run leaves `model` bit-identical to an
    /// uninterrupted one.
    pub fn fit_resumable(
        &self,
        model: &mut LstmLm,
        train: &[Vec<usize>],
        valid: &[Vec<usize>],
        ctrl: &mut TrainControl,
        resume: Option<&Checkpoint>,
    ) -> Result<Vec<EpochStats>, ResilienceError> {
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let mut adam = Adam::new(self.opts.adam);
        let mut lr = self.opts.adam.learning_rate;
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut stats = Vec::with_capacity(self.opts.epochs);
        let mut best: Option<(f64, LstmLm)> = None;
        let mut since_best = 0usize;
        let mut start_epoch = 0u64;

        if let Some(ckpt) = resume {
            let state = decode_state(ckpt, train.len())?;
            start_epoch = state.epochs_done;
            *model = state.model;
            model.set_dropout_rng_state(state.model_rng);
            adam = state.adam;
            lr = state.lr;
            order = state.order;
            stats = state.stats;
            best = match (state.best_ppl, state.best_model) {
                (Some(ppl), Some(mut m)) => {
                    m.set_dropout_rng_state(state.best_rng);
                    Some((ppl, m))
                }
                _ => None,
            };
            since_best = state.since_best as usize;
            rng = StdRng::from_state(state.shuffle_rng);
            if state.stopped_early {
                start_epoch = self.opts.epochs as u64; // skip straight to restore
            }
        }

        let rec = hlm_obs::global();
        // Per-chunk worker models, allocated once and reused across every
        // mini-batch and epoch: each batch re-syncs parameter values in place
        // (`sync_params_from`) instead of cloning a fresh model per chunk.
        let mut workers: Vec<LstmLm> = Vec::new();
        // Rough serial cost of one token's forward+backward in ns: a handful
        // of multiply-adds per scalar parameter.
        let token_cost = 6 * model.parameter_count() as u64;
        for epoch in start_epoch as usize..self.opts.epochs {
            ctrl.begin_iteration(epoch as u64)?;
            let epoch_t0 = rec.is_enabled().then(std::time::Instant::now);
            let mut grad_norm_sum = 0.0;
            let mut n_batches = 0u64;
            hlm_linalg::dist::shuffle(&mut rng, &mut order);
            let mut total_nll = 0.0;
            let mut total_tokens = 0usize;
            let pool = hlm_par::Pool::global();
            for batch in order.chunks(self.opts.batch_size) {
                // Pre-draw every dropout mask from the master RNG in batch
                // order (the same stream consumption as a serial loop), then
                // compute per-sequence gradients data-parallel on cloned
                // models and merge them back in fixed chunk order. The chunk
                // layout depends only on the batch, never on the thread
                // count, so training is bit-identical at any parallelism.
                let masks: Vec<_> = batch
                    .iter()
                    .map(|&idx| model.draw_masks(&train[idx]))
                    .collect();
                let n_chunks = hlm_par::chunk_count(batch.len(), SEQ_CHUNK);
                while workers.len() < n_chunks {
                    workers.push(model.clone());
                }
                let batch_tokens: u64 = batch.iter().map(|&i| train[i].len() as u64 + 1).sum();
                let budget = hlm_par::Budget::items(batch_tokens as usize, token_cost);
                let snapshot: &LstmLm = model;
                let mut views: Vec<&mut LstmLm> = workers[..n_chunks].iter_mut().collect();
                let results = hlm_par::par_for_each_scratch(
                    &pool,
                    budget,
                    &mut views,
                    || (),
                    |_, c, worker| {
                        worker.sync_params_from(snapshot);
                        let (lo, hi) = hlm_par::chunk_bounds(batch.len(), SEQ_CHUNK, c);
                        let mut nll = 0.0;
                        let mut n = 0usize;
                        for i in lo..hi {
                            let (l, cnt) =
                                worker.train_sequence_masked(&train[batch[i]], &masks[i]);
                            nll += l;
                            n += cnt;
                        }
                        (nll, n)
                    },
                );
                drop(views);
                for (&(nll, n), worker) in results.iter().zip(&workers[..n_chunks]) {
                    total_nll += nll;
                    total_tokens += n;
                    model.accumulate_grads(worker);
                }
                // Gradient norm must be read before Adam zeroes the grads;
                // pure observation, gated so disabled runs pay nothing.
                if epoch_t0.is_some() {
                    let norm_sq: f64 = model
                        .parameters_mut()
                        .iter()
                        .map(|p| p.grad.as_slice().iter().map(|g| g * g).sum::<f64>())
                        .sum();
                    grad_norm_sum += norm_sq.sqrt();
                    n_batches += 1;
                }
                adam.step(&mut model.parameters_mut());
            }
            let train_nll = if total_tokens > 0 {
                total_nll / total_tokens as f64
            } else {
                0.0
            };
            if let Some(t0) = epoch_t0 {
                rec.observe("lstm.epoch_seconds", t0.elapsed().as_secs_f64());
                rec.add("lstm.epochs", 1);
                rec.trace("lstm.train_nll", epoch as u64, train_nll);
                if n_batches > 0 {
                    rec.trace(
                        "lstm.grad_norm",
                        epoch as u64,
                        grad_norm_sum / n_batches as f64,
                    );
                }
            }
            let train_nll = ctrl.check_metric(epoch as u64, "train nll", train_nll)?;
            let valid_ppl = if valid.is_empty() {
                f64::NAN
            } else {
                ctrl.check_metric(epoch as u64, "valid perplexity", model.perplexity(valid))?
            };
            if self.opts.verbose {
                eprintln!(
                    "epoch {epoch}: train nll/token {train_nll:.4}, valid ppl {valid_ppl:.3}"
                );
            }
            stats.push(EpochStats {
                epoch,
                train_nll,
                valid_perplexity: valid_ppl,
            });

            if self.opts.lr_decay != 1.0 && epoch >= self.opts.decay_after {
                lr *= self.opts.lr_decay;
                adam.set_learning_rate(lr);
            }

            let mut stop = false;
            if !valid.is_empty() {
                let improved = best.as_ref().is_none_or(|(b, _)| valid_ppl < *b);
                if improved {
                    best = Some((valid_ppl, model.clone()));
                    since_best = 0;
                } else {
                    since_best += 1;
                    if self.opts.patience > 0 && since_best >= self.opts.patience {
                        stop = true;
                    }
                }
            }

            ctrl.checkpoint(epoch as u64 + 1, || {
                encode_state(&LstmTrainState {
                    epochs_done: epoch as u64 + 1,
                    stopped_early: stop,
                    model: model.clone(),
                    model_rng: model.dropout_rng_state(),
                    adam: adam.clone(),
                    lr,
                    order: order.clone(),
                    stats: stats.clone(),
                    best_ppl: best.as_ref().map(|(p, _)| *p),
                    best_model: best.as_ref().map(|(_, m)| m.clone()),
                    best_rng: best
                        .as_ref()
                        .map(|(_, m)| m.dropout_rng_state())
                        .unwrap_or([0; 4]),
                    since_best: since_best as u64,
                    shuffle_rng: rng.state(),
                })
            });

            if stop {
                break;
            }
        }
        if let Some((_, best_model)) = best {
            *model = best_model;
        }
        Ok(stats)
    }

    /// Materializes the model a checkpoint captured, without further epochs —
    /// the rollback path when a later epoch diverges. Returns the best
    /// validation model when early stopping was active, otherwise the model
    /// as of the checkpointed epoch, plus the per-epoch stats so far.
    pub fn model_from_checkpoint(
        &self,
        ckpt: &Checkpoint,
    ) -> Result<(LstmLm, Vec<EpochStats>), ResilienceError> {
        let state = decode_state(ckpt, usize::MAX)?;
        let model = match (state.best_ppl, state.best_model) {
            (Some(_), Some(mut m)) => {
                m.set_dropout_rng_state(state.best_rng);
                m
            }
            _ => {
                let mut m = state.model;
                m.set_dropout_rng_state(state.model_rng);
                m
            }
        };
        Ok((model, state.stats))
    }
}

fn encode_state(state: &LstmTrainState) -> Vec<u8> {
    serde_json::to_string(state)
        .expect("lstm trainer state serializes")
        .into_bytes()
}

fn decode_state(ckpt: &Checkpoint, n_train: usize) -> Result<LstmTrainState, ResilienceError> {
    if ckpt.kind != LSTM_CHECKPOINT_KIND {
        return Err(ResilienceError::Mismatch {
            reason: format!("kind {} != {LSTM_CHECKPOINT_KIND}", ckpt.kind),
        });
    }
    let text = std::str::from_utf8(&ckpt.payload)
        .map_err(|_| ResilienceError::corrupt("lstm payload is not UTF-8"))?;
    let state: LstmTrainState = serde_json::from_str(text)
        .map_err(|e| ResilienceError::corrupt(format!("lstm payload does not parse: {e}")))?;
    // n_train == usize::MAX skips the corpus check (rollback path).
    if n_train != usize::MAX && state.order.len() != n_train {
        return Err(ResilienceError::Mismatch {
            reason: format!(
                "checkpoint shuffled {} sequences, corpus has {n_train}",
                state.order.len()
            ),
        });
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LstmConfig;
    use rand::Rng;

    /// Markov data: 0→1→2→3 with occasional restarts.
    fn markov_sequences(n: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = 4 + rng.gen_range(0..4);
                let mut s = Vec::with_capacity(len);
                let mut cur = rng.gen_range(0..4usize);
                for _ in 0..len {
                    s.push(cur);
                    // Strong transition structure cur -> (cur + 1) % 4.
                    cur = if rng.gen::<f64>() < 0.9 {
                        (cur + 1) % 4
                    } else {
                        rng.gen_range(0..4)
                    };
                }
                s
            })
            .collect()
    }

    fn quick_opts(epochs: usize) -> TrainOptions {
        TrainOptions {
            epochs,
            batch_size: 8,
            adam: AdamOptions {
                learning_rate: 1e-2,
                ..Default::default()
            },
            patience: 0,
            seed: 5,
            verbose: false,
            ..Default::default()
        }
    }

    #[test]
    fn learns_markov_structure() {
        let train = markov_sequences(120, 1);
        let test = markov_sequences(30, 2);
        let mut model = LstmLm::new(
            LstmConfig {
                vocab_size: 4,
                hidden_size: 16,
                n_layers: 1,
                dropout: 0.0,
                ..Default::default()
            },
            3,
        );
        let before = model.perplexity(&test);
        let stats = Trainer::new(quick_opts(15)).fit(&mut model, &train, &[]);
        let after = model.perplexity(&test);
        assert!(after < before * 0.7, "perplexity {before} -> {after}");
        assert!(stats.last().unwrap().train_nll < stats[0].train_nll);
        // 90% deterministic transitions: ppl should get well under uniform 4.
        assert!(after < 2.5, "learned perplexity {after}");
        let d = model.predict_next(&[0]);
        assert!(d[1] > 0.5, "p(1|0) = {}", d[1]);
    }

    #[test]
    fn early_stopping_restores_best_model() {
        let train = markov_sequences(60, 3);
        let valid = markov_sequences(20, 4);
        let mut model = LstmLm::new(
            LstmConfig {
                vocab_size: 4,
                hidden_size: 8,
                n_layers: 1,
                dropout: 0.0,
                ..Default::default()
            },
            7,
        );
        let mut opts = quick_opts(30);
        opts.patience = 2;
        let stats = Trainer::new(opts).fit(&mut model, &train, &valid);
        // Model perplexity on validation equals the best epoch's perplexity.
        let best = stats
            .iter()
            .map(|s| s.valid_perplexity)
            .fold(f64::INFINITY, f64::min);
        let actual = model.perplexity(&valid);
        assert!(
            (actual - best).abs() < 1e-9,
            "restored model ppl {actual} vs best {best}"
        );
    }

    #[test]
    fn epoch_stats_have_expected_length_without_early_stop() {
        let train = markov_sequences(20, 5);
        let mut model = LstmLm::new(
            LstmConfig {
                vocab_size: 4,
                hidden_size: 6,
                n_layers: 1,
                dropout: 0.0,
                ..Default::default()
            },
            9,
        );
        let stats = Trainer::new(quick_opts(4)).fit(&mut model, &train, &[]);
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.valid_perplexity.is_nan()));
    }

    #[test]
    fn deterministic_given_seeds() {
        let train = markov_sequences(30, 6);
        let run = || {
            let mut m = LstmLm::new(
                LstmConfig {
                    vocab_size: 4,
                    hidden_size: 6,
                    n_layers: 1,
                    dropout: 0.1,
                    ..Default::default()
                },
                11,
            );
            Trainer::new(quick_opts(3)).fit(&mut m, &train, &[]);
            m.predict_next(&[0, 1])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lr_decay_schedule_is_applied_and_stable() {
        let train = markov_sequences(40, 8);
        let mut opts = quick_opts(6);
        opts.lr_decay = 0.5;
        opts.decay_after = 1;
        let mut model = LstmLm::new(
            LstmConfig {
                vocab_size: 4,
                hidden_size: 8,
                n_layers: 1,
                dropout: 0.0,
                ..Default::default()
            },
            15,
        );
        let stats = Trainer::new(opts).fit(&mut model, &train, &[]);
        assert_eq!(stats.len(), 6);
        assert!(stats.last().unwrap().train_nll < stats[0].train_nll);
    }

    #[test]
    #[should_panic(expected = "lr_decay")]
    fn rejects_bad_decay() {
        let mut opts = quick_opts(2);
        opts.lr_decay = 1.5;
        Trainer::new(opts);
    }

    #[test]
    fn two_layer_model_trains() {
        let train = markov_sequences(60, 7);
        let mut model = LstmLm::new(
            LstmConfig {
                vocab_size: 4,
                hidden_size: 10,
                n_layers: 2,
                dropout: 0.1,
                ..Default::default()
            },
            13,
        );
        let stats = Trainer::new(quick_opts(8)).fit(&mut model, &train, &[]);
        assert!(stats.last().unwrap().train_nll < stats[0].train_nll);
    }
}
