//! The engine layer: a single entry point for training, scoring and serving
//! every model family the paper compares.
//!
//! The repo grows one crate per substrate (LDA, LSTM, n-grams, CHH, BPMF)
//! plus the contribution layer in `hlm-core`. Consumers used to construct
//! each model by hand — seven different constructor/`fit` shapes scattered
//! across the CLI, the figure experiments and the examples. This crate
//! collapses them behind three types:
//!
//! * [`ModelKind`] — the closed set of model families, parseable from the
//!   strings a CLI or config file would carry;
//! * [`ModelSpec`] — a *validated* configuration for one family. Each family
//!   trains one way: [`ModelSpec::fit_sequences`] on explicit sequences, and
//!   on the companies' history before a cutoff through one function shared
//!   by [`Engine::train`] and the sliding-window [`RecommenderFactory`] that
//!   [`ModelSpec::factory`] returns;
//! * [`TrainedModel`] — the trait object those paths return, exposing
//!   `recommend` and `perplexity` uniformly and the concrete model via
//!   [`TrainedModel::as_any`] for family-specific diagnostics (topic
//!   inspection, heavy-hitter counts, …).
//!
//! Invalid input surfaces as a typed [`EngineError`] rather than a panic, so
//! a server built on the engine can turn bad requests into error responses.
//! The [`Engine`] facade holds the corpus behind an [`Arc`] and shares it
//! with every [`SalesApplication`] it spawns — one copy of the install-base
//! data regardless of how many serving surfaces are open.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use hlm_chh::AprioriConfig;
use hlm_chh::{AprioriModel, ExactChh, StreamingChh};
use hlm_core::app::SalesApplication;
use hlm_core::recommenders::masked_lda_scores;
use hlm_core::similarity::DistanceMetric;
use hlm_core::CoreError;
pub use hlm_core::RepStore;
use hlm_corpus::CorpusSource;
use hlm_corpus::{CompanyId, Corpus, Month, TimeWindow};
use hlm_eval::drift::DriftReport;
use hlm_eval::{Recommender, RecommenderFactory};
use hlm_lda::{
    DocBatch, DocShardSource, GibbsTrainer, LdaConfig, LdaModel, OnlineVbOptions, OnlineVbTrainer,
    ShardedGibbsTrainer, VbOptions, VbTrainer, WeightedDoc,
};
use hlm_linalg::Matrix;
use hlm_lstm::{LstmConfig, LstmLm, TrainOptions, Trainer};
pub use hlm_ngram::NgramConfig;
use hlm_ngram::NgramLm;
pub use hlm_par::{effective_threads, par_threshold, set_par_threshold, set_threads};
pub use hlm_resilience::{
    CancelHandle, Checkpoint, CheckpointStore, Clock, Fault, FaultPlan, ManualClock,
    ResilienceError, RunGuard, SystemClock,
};

use hlm_resilience::TrainControl;
use std::any::Any;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong when configuring, training or serving a
/// model through the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An invalid-input error bubbled up from the contribution layer.
    Core(CoreError),
    /// A model-kind string did not name any registered family.
    UnknownModelKind(String),
    /// A [`ModelSpec`] carries parameters no model can be trained with.
    InvalidSpec {
        /// What is wrong with the spec.
        reason: String,
    },
    /// The family exists but does not support the requested operation.
    Unsupported {
        /// The model family.
        kind: ModelKind,
        /// The operation it cannot perform.
        operation: &'static str,
    },
    /// A resilience failure during training: watchdog trip, divergence with
    /// no good checkpoint to roll back to, or checkpoint IO damage.
    Resilience(ResilienceError),
}

impl EngineError {
    /// True when the error means "the run was stopped on purpose (deadline
    /// or cancellation) and can be resumed from its checkpoints".
    pub fn is_interruption(&self) -> bool {
        matches!(self, EngineError::Resilience(e) if e.is_interruption())
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "{e}"),
            EngineError::UnknownModelKind(s) => {
                write!(
                    f,
                    "unknown model kind {s:?} (expected one of {})",
                    ModelKind::NAMES
                )
            }
            EngineError::InvalidSpec { reason } => write!(f, "invalid model spec: {reason}"),
            EngineError::Unsupported { kind, operation } => {
                write!(f, "model family {kind} does not support {operation}")
            }
            EngineError::Resilience(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Resilience(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ResilienceError> for EngineError {
    fn from(e: ResilienceError) -> Self {
        EngineError::Resilience(e)
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

// ---------------------------------------------------------------------------
// Model kinds
// ---------------------------------------------------------------------------

/// The closed set of model families in the paper's comparison (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Interpolated n-gram language model (sequential association rules).
    Ngram,
    /// Latent Dirichlet Allocation over install bases.
    Lda,
    /// LSTM language model over acquisition sequences.
    Lstm,
    /// Exact Conditional Heavy Hitters.
    ChhExact,
    /// Streaming (SpaceSaving-budgeted) Conditional Heavy Hitters.
    ChhStreaming,
    /// Apriori association rules (time-agnostic baseline).
    Apriori,
    /// Bayesian Probabilistic Matrix Factorization.
    Bpmf,
}

impl ModelKind {
    /// Canonical names, in registry order — the strings [`FromStr`] accepts
    /// and [`fmt::Display`] prints.
    pub(crate) const NAMES: &'static str =
        "ngram, lda, lstm, chh-exact, chh-streaming, apriori, bpmf";

    /// Every family, in registry order (the tests' oracle for the names).
    #[cfg(test)]
    const ALL: [ModelKind; 7] = [
        ModelKind::Ngram,
        ModelKind::Lda,
        ModelKind::Lstm,
        ModelKind::ChhExact,
        ModelKind::ChhStreaming,
        ModelKind::Apriori,
        ModelKind::Bpmf,
    ];
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelKind::Ngram => "ngram",
            ModelKind::Lda => "lda",
            ModelKind::Lstm => "lstm",
            ModelKind::ChhExact => "chh-exact",
            ModelKind::ChhStreaming => "chh-streaming",
            ModelKind::Apriori => "apriori",
            ModelKind::Bpmf => "bpmf",
        };
        f.write_str(s)
    }
}

impl FromStr for ModelKind {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<Self, EngineError> {
        match s.to_ascii_lowercase().as_str() {
            "ngram" | "n-gram" => Ok(ModelKind::Ngram),
            "lda" => Ok(ModelKind::Lda),
            "lstm" => Ok(ModelKind::Lstm),
            "chh" | "chh-exact" | "exact-chh" => Ok(ModelKind::ChhExact),
            "chh-streaming" | "streaming-chh" => Ok(ModelKind::ChhStreaming),
            "apriori" => Ok(ModelKind::Apriori),
            "bpmf" => Ok(ModelKind::Bpmf),
            _ => Err(EngineError::UnknownModelKind(s.to_string())),
        }
    }
}

/// Which LDA posterior estimator to run (Section 3.3 trains with collapsed
/// Gibbs; variational Bayes is the ablation alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdaEstimator {
    /// Collapsed Gibbs sampling (the paper's estimator).
    Gibbs,
    /// Mean-field variational Bayes.
    Vb,
}

// ---------------------------------------------------------------------------
// Model specs
// ---------------------------------------------------------------------------

/// A validated, self-contained configuration for one model family — the one
/// currency every consumer (CLI, experiments, examples) uses to request a
/// model from the engine.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    /// Interpolated n-gram LM; the vocabulary lives in the config.
    Ngram(NgramConfig),
    /// LDA topic model with a choice of estimator.
    Lda {
        /// Topic count, vocabulary, sweeps, priors.
        config: LdaConfig,
        /// Gibbs (paper) or variational Bayes.
        estimator: LdaEstimator,
    },
    /// LSTM LM with its training schedule; `epochs: 0` yields the untrained
    /// random-init baseline of Figure 1.
    Lstm {
        /// Architecture.
        config: LstmConfig,
        /// Training schedule.
        train: TrainOptions,
        /// Parameter-init seed.
        seed: u64,
    },
    /// Exact Conditional Heavy Hitters.
    ChhExact {
        /// Context depth (paper: 2).
        depth: usize,
        /// Number of products `M`.
        vocab_size: usize,
    },
    /// Streaming Conditional Heavy Hitters under a SpaceSaving budget.
    ChhStreaming {
        /// Context depth.
        depth: usize,
        /// Number of products `M`.
        vocab_size: usize,
        /// Maximum tracked contexts.
        max_contexts: usize,
        /// SpaceSaving counters per context.
        counters_per_context: usize,
    },
    /// Apriori association rules.
    Apriori {
        /// Mining thresholds.
        config: AprioriConfig,
        /// Number of products `M`.
        vocab_size: usize,
    },
    /// Bayesian PMF. Carried for completeness of the registry; BPMF scores
    /// `(company, product)` cells rather than histories, so it only runs
    /// under its dedicated protocol ([`hlm_core::recommenders::evaluate_bpmf`])
    /// and every history-based operation returns [`EngineError::Unsupported`].
    Bpmf(hlm_bpmf::BpmfConfig),
}

impl ModelSpec {
    /// The family this spec configures.
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSpec::Ngram(_) => ModelKind::Ngram,
            ModelSpec::Lda { .. } => ModelKind::Lda,
            ModelSpec::Lstm { .. } => ModelKind::Lstm,
            ModelSpec::ChhExact { .. } => ModelKind::ChhExact,
            ModelSpec::ChhStreaming { .. } => ModelKind::ChhStreaming,
            ModelSpec::Apriori { .. } => ModelKind::Apriori,
            ModelSpec::Bpmf(_) => ModelKind::Bpmf,
        }
    }

    /// Report label, mirroring the adapters' conventions (`LDA3`, `2-gram`,
    /// `CHH`, …).
    pub fn label(&self) -> String {
        match self {
            ModelSpec::Ngram(cfg) => format!("{}-gram", cfg.order),
            ModelSpec::Lda { config, .. } => format!("LDA{}", config.n_topics),
            ModelSpec::Lstm { .. } => "LSTM".to_string(),
            ModelSpec::ChhExact { .. } => "CHH".to_string(),
            ModelSpec::ChhStreaming { .. } => "CHH-streaming".to_string(),
            ModelSpec::Apriori { .. } => "Apriori".to_string(),
            ModelSpec::Bpmf(_) => "BPMF".to_string(),
        }
    }

    /// Checks the spec for parameters no model can be trained with: the
    /// family config's own check (the one its constructors assert), plus
    /// the budgets that live on the spec itself.
    ///
    /// # Errors
    /// [`EngineError::InvalidSpec`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), EngineError> {
        let nonempty = |vocab_size: usize| match vocab_size {
            0 => Err("empty vocabulary".to_string()),
            _ => Ok(()),
        };
        let checked = match self {
            ModelSpec::Ngram(cfg) => cfg.check(),
            ModelSpec::Lda { config, .. } => config.check(),
            ModelSpec::Lstm { config, train, .. } => config.check().and_then(|()| train.check()),
            ModelSpec::ChhExact { vocab_size, .. } => nonempty(*vocab_size),
            ModelSpec::ChhStreaming {
                vocab_size,
                max_contexts,
                counters_per_context,
                ..
            } => nonempty(*vocab_size).and_then(|()| {
                if *max_contexts == 0 || *counters_per_context == 0 {
                    Err(format!(
                        "streaming CHH budgets must be positive \
                         (max_contexts={max_contexts}, counters={counters_per_context})"
                    ))
                } else {
                    Ok(())
                }
            }),
            ModelSpec::Apriori { config, vocab_size } => {
                nonempty(*vocab_size).and_then(|()| config.check())
            }
            ModelSpec::Bpmf(cfg) => cfg.check(),
        };
        checked.map_err(|reason| EngineError::InvalidSpec {
            reason: format!("{}: {reason}", self.kind()),
        })
    }

    /// Number of products the spec scores over (`None` for BPMF, which
    /// scores `(company, product)` cells).
    fn vocab_size(&self) -> Option<usize> {
        match self {
            ModelSpec::Ngram(cfg) => Some(cfg.vocab_size),
            ModelSpec::Lda { config, .. } => Some(config.vocab_size),
            ModelSpec::Lstm { config, .. } => Some(config.vocab_size),
            ModelSpec::ChhExact { vocab_size, .. }
            | ModelSpec::ChhStreaming { vocab_size, .. }
            | ModelSpec::Apriori { vocab_size, .. } => Some(*vocab_size),
            ModelSpec::Bpmf(_) => None,
        }
    }

    /// Bridges the spec to the sliding-window evaluation protocol: a
    /// [`RecommenderFactory`] that, per cutoff, trains the spec on the
    /// history before the window exactly as [`Engine::train`] does.
    ///
    /// # Errors
    /// [`EngineError::InvalidSpec`] for unusable parameters;
    /// [`EngineError::Unsupported`] for BPMF (dedicated protocol) and the
    /// variational LDA estimator (the window protocol trains with Gibbs).
    pub fn factory(&self) -> Result<Box<dyn RecommenderFactory>, EngineError> {
        self.validate()?;
        match self {
            ModelSpec::Lda {
                estimator: LdaEstimator::Vb,
                ..
            } => Err(EngineError::Unsupported {
                kind: ModelKind::Lda,
                operation: "sliding-window factory with the VB estimator",
            }),
            ModelSpec::Bpmf(_) => Err(EngineError::Unsupported {
                kind: ModelKind::Bpmf,
                operation: "history-conditioned recommendation \
                            (use hlm_core::recommenders::evaluate_bpmf)",
            }),
            _ => Ok(Box::new(SpecFactory {
                spec: self.clone(),
                label: self.label(),
            })),
        }
    }

    /// Trains a model on explicit acquisition sequences and returns it as a
    /// uniform [`TrainedModel`], checkpointed, resumable and
    /// watchdog-guarded per `plan` for the iterative families (LDA, LSTM).
    /// One-shot families (n-gram, CHH, Apriori) train instantly and consult
    /// only the plan's watchdog. `valid` feeds early stopping where the
    /// family supports it (LSTM) and is ignored elsewhere. An empty plan
    /// ([`TrainPlan::new`]) trains exactly like each family's plain `fit`.
    ///
    /// # Errors
    /// [`EngineError::InvalidSpec`] for unusable parameters;
    /// [`EngineError::Unsupported`] for BPMF, which is not a sequence model;
    /// [`EngineError::Resilience`] for watchdog trips and unrecoverable
    /// divergence.
    pub fn fit_sequences(
        &self,
        train: &[Vec<usize>],
        valid: &[Vec<usize>],
        plan: TrainPlan,
    ) -> Result<ResilientFit<Box<dyn TrainedModel>>, EngineError> {
        self.validate()?;
        let fit = match self {
            ModelSpec::Lda { config, estimator } => {
                let docs = hlm_lda::unit_weights(train);
                fit_lda_resilient(config.clone(), *estimator, &docs, plan)?.map(Family::Lda)
            }
            ModelSpec::Lstm {
                config,
                train: opts,
                seed,
            } => {
                let seqs: Vec<Vec<usize>> =
                    train.iter().filter(|s| !s.is_empty()).cloned().collect();
                let init = LstmLm::new(config.clone(), *seed);
                if opts.epochs == 0 {
                    ResilientFit::fresh(Family::Lstm(init))
                } else {
                    let trainer = Trainer::new(opts.clone());
                    run_resilient(
                        hlm_lstm::LSTM_CHECKPOINT_KIND,
                        plan,
                        |ctrl, resume| {
                            let mut model = init;
                            trainer.fit_resumable(&mut model, &seqs, valid, ctrl, resume)?;
                            Ok(model)
                        },
                        |good| trainer.model_from_checkpoint(good).map(|(m, _)| m),
                    )?
                    .map(Family::Lstm)
                }
            }
            ModelSpec::Ngram(cfg) => {
                one_shot(plan, || Family::Ngram(NgramLm::fit(cfg.clone(), train)))?
            }
            ModelSpec::ChhExact { depth, vocab_size } => one_shot(plan, || {
                Family::ChhExact(ExactChh::fit(*depth, *vocab_size, train))
            })?,
            ModelSpec::ChhStreaming {
                depth,
                vocab_size,
                max_contexts,
                counters_per_context,
            } => one_shot(plan, || {
                let mut model =
                    StreamingChh::new(*depth, *vocab_size, *max_contexts, *counters_per_context);
                for seq in train {
                    model.observe_sequence(seq);
                }
                Family::ChhStreaming(model)
            })?,
            ModelSpec::Apriori { config, vocab_size } => one_shot(plan, || {
                let baskets: Vec<Vec<usize>> =
                    train.iter().filter(|b| !b.is_empty()).cloned().collect();
                // No history at all: a degenerate single-basket model
                // predicts zeros rather than panicking.
                let baskets = if baskets.is_empty() {
                    vec![vec![0]]
                } else {
                    baskets
                };
                Family::Apriori(AprioriModel::mine(*vocab_size, &baskets, config))
            })?,
            ModelSpec::Bpmf(_) => {
                return Err(EngineError::Unsupported {
                    kind: ModelKind::Bpmf,
                    operation: "training on acquisition sequences",
                })
            }
        };
        let label = self.label();
        Ok(fit.map(|model| Box::new(Trained { model, label }) as Box<dyn TrainedModel>))
    }

    /// Trains on the given companies' history strictly before `cutoff`:
    /// the one path behind [`Engine::train`] and [`ModelSpec::factory`].
    /// LDA sees each company's products in product-id order; every other
    /// family sees its acquisition sequence. No validation set.
    fn fit_before(
        &self,
        corpus: &Corpus,
        ids: &[CompanyId],
        cutoff: Month,
        plan: TrainPlan,
    ) -> Result<ResilientFit<Box<dyn TrainedModel>>, EngineError> {
        let vocab = corpus.vocab().len();
        if let Some(m) = self.vocab_size().filter(|&m| m != vocab) {
            return Err(EngineError::InvalidSpec {
                reason: format!(
                    "{}: vocab_size {m} != corpus vocabulary of {vocab}",
                    self.kind()
                ),
            });
        }
        let mut seqs = sequences_before(corpus, ids, cutoff);
        if self.kind() == ModelKind::Lda {
            seqs.iter_mut().for_each(|s| s.sort_unstable());
        }
        self.fit_sequences(&seqs, &[], plan)
    }
}

/// The given companies' acquisition sequences strictly before `cutoff`.
fn sequences_before(corpus: &Corpus, ids: &[CompanyId], cutoff: Month) -> Vec<Vec<usize>> {
    ids.iter()
        .map(|&id| {
            corpus
                .company(id)
                .sequence_before(cutoff)
                .into_iter()
                .map(|p| p.index())
                .collect()
        })
        .collect()
}

/// A one-shot family trains instantly: one watchdog check, then the fit.
fn one_shot(
    plan: TrainPlan,
    fit: impl FnOnce() -> Family,
) -> Result<ResilientFit<Family>, EngineError> {
    plan.guard.check(0)?;
    Ok(ResilientFit::fresh(fit()))
}

/// Incrementally folds new documents (and optionally a grown vocabulary)
/// into a trained LDA model — the replay loop's cheap path between full
/// retrains. Validates inputs and delegates to [`hlm_lda::fold_in`].
///
/// # Errors
/// [`EngineError::InvalidSpec`] on zero sweeps, non-positive prior mass, a
/// shrinking vocabulary, or a document word outside `new_vocab_size`.
pub fn fold_in_lda(
    model: &LdaModel,
    new_docs: &[WeightedDoc],
    new_vocab_size: usize,
    opts: &hlm_lda::FoldInOptions,
) -> Result<LdaModel, EngineError> {
    if opts.n_sweeps == 0 {
        return Err(EngineError::InvalidSpec {
            reason: "fold-in needs at least one sweep".into(),
        });
    }
    // NaN must be rejected too, hence the explicit is_nan arm.
    if opts.prior_tokens.is_nan() || opts.prior_tokens <= 0.0 {
        return Err(EngineError::InvalidSpec {
            reason: format!(
                "fold-in prior token mass must be positive, got {}",
                opts.prior_tokens
            ),
        });
    }
    if new_vocab_size < model.vocab_size() {
        return Err(EngineError::InvalidSpec {
            reason: format!(
                "fold-in cannot shrink the vocabulary: {new_vocab_size} < {}",
                model.vocab_size()
            ),
        });
    }
    for doc in new_docs {
        for &(w, _) in doc {
            if w >= new_vocab_size {
                return Err(EngineError::InvalidSpec {
                    reason: format!(
                        "document word {w} outside the grown vocabulary of {new_vocab_size}"
                    ),
                });
            }
        }
    }
    let rec = hlm_obs::global();
    let _span = rec.span("engine.fold_in_lda");
    rec.add("engine.fold_ins", 1);
    Ok(hlm_lda::fold_in(model, new_docs, new_vocab_size, opts))
}

// ---------------------------------------------------------------------------
// Resilient training
// ---------------------------------------------------------------------------

/// How a training run checkpoints, resumes and guards itself. Consumed by
/// [`Engine::train`], [`ModelSpec::fit_sequences`] and the `fit_*`
/// functions (the [`RunGuard`] inside is single-use). An empty plan — no
/// store, an unlimited guard, no faults — trains exactly like each family's
/// plain `fit`.
#[derive(Default)]
pub struct TrainPlan {
    store: Option<CheckpointStore>,
    resume: bool,
    guard: RunGuard,
    faults: FaultPlan,
}

impl TrainPlan {
    /// A plan with no checkpointing and an unlimited watchdog.
    pub fn new() -> Self {
        TrainPlan::default()
    }

    /// Checkpoint every completed iteration into `store`.
    pub(crate) fn with_store(mut self, store: CheckpointStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Checkpoint into (and resume from) a directory on disk.
    ///
    /// # Errors
    /// [`EngineError::Resilience`] if the directory cannot be created.
    pub fn on_disk(self, dir: impl Into<std::path::PathBuf>) -> Result<Self, EngineError> {
        Ok(self.with_store(CheckpointStore::on_disk(dir)?))
    }

    /// Before training, look for the latest good checkpoint in the store and
    /// continue from it instead of starting over.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Attach a watchdog (deadline, cancellation, deterministic aborts).
    pub fn with_guard(mut self, guard: RunGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Attach a deterministic fault plan (metric poisoning for tests).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// The result of a resilient training run: the model plus how the run got
/// there (fresh, resumed, or rolled back after divergence).
pub struct ResilientFit<M> {
    /// The trained (or rolled-back) model.
    pub model: M,
    /// Iteration count of the checkpoint the run resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Checkpoints successfully persisted during this run.
    pub checkpoints_written: u64,
    /// Set when training diverged and the model was recovered from the last
    /// good checkpoint instead — the model is usable but captures fewer
    /// iterations than requested.
    pub rolled_back: Option<ResilienceError>,
}

impl<M> fmt::Debug for ResilientFit<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientFit")
            .field("resumed_from", &self.resumed_from)
            .field("checkpoints_written", &self.checkpoints_written)
            .field("rolled_back", &self.rolled_back)
            .finish_non_exhaustive()
    }
}

impl<M> ResilientFit<M> {
    /// A run that had nothing to resume, checkpoint or roll back.
    fn fresh(model: M) -> Self {
        ResilientFit {
            model,
            resumed_from: None,
            checkpoints_written: 0,
            rolled_back: None,
        }
    }

    /// Converts the model, keeping how the run got there.
    fn map<N>(self, f: impl FnOnce(M) -> N) -> ResilientFit<N> {
        ResilientFit {
            model: f(self.model),
            resumed_from: self.resumed_from,
            checkpoints_written: self.checkpoints_written,
            rolled_back: self.rolled_back,
        }
    }
}

/// Shared scaffolding for the per-family resilient fits: resolves the resume
/// checkpoint, builds the [`TrainControl`], runs `fit`, and on divergence
/// rolls back to the last good checkpoint via `rollback`.
fn run_resilient<M>(
    kind: &str,
    plan: TrainPlan,
    fit: impl FnOnce(
        &mut TrainControl,
        Option<&hlm_resilience::Checkpoint>,
    ) -> Result<M, ResilienceError>,
    rollback: impl FnOnce(&hlm_resilience::Checkpoint) -> Result<M, ResilienceError>,
) -> Result<ResilientFit<M>, EngineError> {
    let TrainPlan {
        store,
        resume,
        guard,
        faults,
    } = plan;

    let resume_ckpt = match (&store, resume) {
        (Some(s), true) => s.latest_good(kind)?,
        _ => None,
    };
    let resumed_from = resume_ckpt.as_ref().map(|c| c.iteration);

    let mut ctrl = match &store {
        Some(s) => TrainControl::new(kind, s),
        None => TrainControl::noop(),
    }
    .with_guard(guard)
    .with_faults(faults);

    let result = fit(&mut ctrl, resume_ckpt.as_ref());
    let checkpoints_written = ctrl.saves();

    match result {
        Ok(model) => Ok(ResilientFit {
            model,
            resumed_from,
            checkpoints_written,
            rolled_back: None,
        }),
        Err(diverged @ ResilienceError::Diverged { .. }) => {
            // A poisoned model must never escape: recover the last snapshot
            // that passed its divergence checks, or surface the error.
            if let Some(s) = &store {
                match s.latest_good(kind) {
                    Ok(Some(good)) => {
                        if let Ok(model) = rollback(&good) {
                            hlm_obs::global().add("engine.rollbacks", 1);
                            return Ok(ResilientFit {
                                model,
                                resumed_from,
                                checkpoints_written,
                                rolled_back: Some(diverged),
                            });
                        }
                    }
                    Ok(None) => {}
                    // A failed read is not "no checkpoint": it means the
                    // store itself is broken, which the operator must hear
                    // about. Count it, log it, and still surface the
                    // original divergence below.
                    Err(read_err) => {
                        hlm_obs::global().add(hlm_obs::names::ENGINE_LATEST_GOOD_ERRORS, 1);
                        eprintln!(
                            "warning: divergence rollback could not read the latest good \
                             checkpoint for {kind}: {read_err}"
                        );
                    }
                }
            }
            Err(EngineError::Resilience(diverged))
        }
        Err(e) => Err(EngineError::Resilience(e)),
    }
}

/// Trains an LDA model on weighted documents (binary or TF-IDF input) with
/// the requested estimator, checkpointed, resumable and watchdog-guarded per
/// `plan`, returning the concrete [`LdaModel`] for consumers that need
/// topics, embeddings or fold-in θ directly. On divergence the model rolls
/// back to the last good checkpoint (reported in
/// [`ResilientFit::rolled_back`]) instead of being returned poisoned.
///
/// # Errors
/// [`EngineError::InvalidSpec`] on an invalid config or an empty document
/// collection; [`EngineError::Resilience`] when the watchdog trips
/// (resumable — see [`EngineError::is_interruption`]) or divergence hits
/// with no good checkpoint to fall back to.
pub fn fit_lda_resilient(
    config: LdaConfig,
    estimator: LdaEstimator,
    docs: &[WeightedDoc],
    plan: TrainPlan,
) -> Result<ResilientFit<LdaModel>, EngineError> {
    ModelSpec::Lda {
        config: config.clone(),
        estimator,
    }
    .validate()?;
    if docs.is_empty() {
        return Err(EngineError::InvalidSpec {
            reason: "LDA needs at least one training document".into(),
        });
    }
    let rec = hlm_obs::global();
    let _span = rec.span("engine.fit_lda_resilient");
    rec.add("engine.trains", 1);
    match estimator {
        LdaEstimator::Gibbs => {
            let trainer = GibbsTrainer::new(config);
            run_resilient(
                hlm_lda::GIBBS_CHECKPOINT_KIND,
                plan,
                |ctrl, resume| trainer.fit_resumable(docs, ctrl, resume),
                |good| trainer.model_from_checkpoint(good),
            )
        }
        LdaEstimator::Vb => {
            let trainer = VbTrainer::new(config, VbOptions::default());
            run_resilient(
                hlm_lda::VB_CHECKPOINT_KIND,
                plan,
                |ctrl, resume| trainer.fit_resumable(docs, ctrl, resume),
                |good| trainer.model_from_checkpoint(good),
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Out-of-core (sharded) training
// ---------------------------------------------------------------------------

/// Adapts any [`CorpusSource`] into LDA document shards: each company
/// becomes its binary install-base document (distinct products, weight 1.0
/// each) — exactly what `hlm_core::representations::binary_docs` produces
/// for the full id range, so in-memory and sharded training see identical
/// token streams. A shard that cannot be read back intact is a
/// [`ResilienceError::Corrupt`] naming it.
pub(crate) struct CorpusDocShards<'a, S: CorpusSource + ?Sized> {
    source: &'a S,
}

impl<'a, S: CorpusSource + ?Sized> CorpusDocShards<'a, S> {
    /// Wraps a corpus source.
    pub fn new(source: &'a S) -> Self {
        CorpusDocShards { source }
    }
}

impl<S: CorpusSource + ?Sized> DocShardSource for CorpusDocShards<'_, S> {
    fn n_docs(&self) -> usize {
        self.source.n_companies()
    }

    fn n_shards(&self) -> usize {
        self.source.n_shards()
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        self.source.shard_span(s)
    }

    fn shard_docs(&self, s: usize) -> Result<DocBatch, ResilienceError> {
        let sets = self
            .source
            .product_sets(s)
            .map_err(|e| ResilienceError::corrupt(e.to_string()))?;
        Ok(DocBatch {
            tokens: sets.products.iter().map(|p| (p.index(), 1.0)).collect(),
            doc_start: sets.offsets,
        })
    }
}

fn validate_sharded_spec(config: &LdaConfig, source: &dyn CorpusSource) -> Result<(), EngineError> {
    ModelSpec::Lda {
        config: config.clone(),
        estimator: LdaEstimator::Gibbs,
    }
    .validate()?;
    if source.n_companies() == 0 {
        return Err(EngineError::InvalidSpec {
            reason: "LDA needs at least one training document".into(),
        });
    }
    if config.vocab_size != source.vocab().len() {
        return Err(EngineError::InvalidSpec {
            reason: format!(
                "config vocab_size {} != corpus vocabulary of {}",
                config.vocab_size,
                source.vocab().len()
            ),
        });
    }
    Ok(())
}

/// Out-of-core collapsed Gibbs over a sharded corpus: streams one shard of
/// companies at a time, spilling per-shard sampler state under `work_dir`.
/// Bit-identical to [`fit_lda_resilient`] with [`LdaEstimator::Gibbs`] on
/// `binary_docs` of the same corpus, at any shard and thread count. Note the
/// plan's guard/checkpoint cadence counts *shard steps* (one shard of one
/// sweep), not sweeps.
///
/// # Errors
/// As in [`fit_lda_resilient`], plus a config/corpus vocabulary-size
/// mismatch.
pub fn fit_lda_sharded_gibbs(
    config: LdaConfig,
    source: &dyn CorpusSource,
    work_dir: impl Into<std::path::PathBuf>,
    plan: TrainPlan,
) -> Result<ResilientFit<LdaModel>, EngineError> {
    validate_sharded_spec(&config, source)?;
    let rec = hlm_obs::global();
    let _span = rec.span("engine.fit_lda_sharded_gibbs");
    rec.add("engine.trains", 1);
    let trainer = ShardedGibbsTrainer::new(config, work_dir);
    let docs = CorpusDocShards::new(source);
    run_resilient(
        hlm_lda::SHARDED_GIBBS_CHECKPOINT_KIND,
        plan,
        |ctrl, resume| trainer.fit_resumable(&docs, ctrl, resume),
        |good| trainer.model_from_checkpoint(good),
    )
}

/// Out-of-core online variational Bayes over a sharded corpus: one shard is
/// one minibatch, one pass over the shards is one epoch (`opts.epochs`
/// passes total). Deterministic and kill/resume-safe for a fixed shard
/// layout; see [`hlm_lda::online_vb`] for why different layouts legitimately
/// differ.
///
/// # Errors
/// As in [`fit_lda_sharded_gibbs`].
pub fn fit_lda_sharded_online_vb(
    config: LdaConfig,
    opts: OnlineVbOptions,
    source: &dyn CorpusSource,
    plan: TrainPlan,
) -> Result<ResilientFit<LdaModel>, EngineError> {
    validate_sharded_spec(&config, source)?;
    let rec = hlm_obs::global();
    let _span = rec.span("engine.fit_lda_sharded_online_vb");
    rec.add("engine.trains", 1);
    let trainer = OnlineVbTrainer::new(config, opts);
    let docs = CorpusDocShards::new(source);
    run_resilient(
        hlm_lda::ONLINE_VB_CHECKPOINT_KIND,
        plan,
        |ctrl, resume| trainer.fit_resumable(&docs, ctrl, resume),
        |good| trainer.model_from_checkpoint(good),
    )
}

// ---------------------------------------------------------------------------
// Degraded-mode serving
// ---------------------------------------------------------------------------

/// How a [`ResilientModel`] serves. A primary answer with a non-finite or
/// collapsed (all-constant) score vector always falls back; these options
/// add the latency budget.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Per-request latency budget; a primary answer that took longer is
    /// discarded in favour of the fallback. `None` disables the deadline.
    pub request_budget_millis: Option<u64>,
}

/// A response from the fallback chain: the value plus whether it came from
/// the degraded path (and why).
#[derive(Debug, Clone, PartialEq)]
pub struct Served<T> {
    /// The answer (from the primary model, or the fallback when degraded).
    pub value: T,
    /// `None` when the primary answered cleanly; otherwise the reason the
    /// request fell back to the unigram baseline.
    pub degraded: Option<String>,
}

impl<T> Served<T> {
    /// Did this response come from the fallback path?
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

/// The serving fallback chain: a primary [`TrainedModel`] backed by a
/// unigram baseline. If the primary errors, produces non-finite or collapsed
/// scores, or blows the per-request latency budget, the request is
/// transparently answered by the unigram model and tagged degraded — the
/// sales application keeps answering either way.
pub struct ResilientModel {
    primary: Box<dyn TrainedModel>,
    fallback: NgramLm,
    opts: ServeOptions,
    clock: Box<dyn Clock>,
}

impl ResilientModel {
    /// Chains `primary` over a unigram `fallback` (train one with
    /// [`NgramConfig::unigram`] on the same sequences).
    pub fn new(primary: Box<dyn TrainedModel>, fallback: NgramLm, opts: ServeOptions) -> Self {
        ResilientModel {
            primary,
            fallback,
            opts,
            clock: Box::new(SystemClock::new()),
        }
    }

    /// Replace the latency clock (tests pass a
    /// [`hlm_resilience::ManualClock`] for deterministic deadline misses).
    pub fn with_clock(mut self, clock: Box<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// The primary model.
    pub fn primary(&self) -> &dyn TrainedModel {
        self.primary.as_ref()
    }

    /// Why a primary score vector is unusable, or `None` if it is fine.
    fn score_defect(&self, scores: &[f64]) -> Option<String> {
        if let Some(bad) = scores.iter().find(|s| !s.is_finite()) {
            return Some(format!("primary produced a non-finite score ({bad})"));
        }
        if scores.len() > 1 {
            let first = scores[0];
            if scores.iter().all(|s| (s - first).abs() < 1e-12) {
                return Some("primary score distribution collapsed to a constant".to_string());
            }
        }
        None
    }

    /// Next-acquisition scores with fallback: never errors, always answers.
    /// Uses the construction-time [`ServeOptions::request_budget_millis`];
    /// servers propagating a *per-request* deadline use
    /// [`ResilientModel::recommend_within`] instead.
    pub fn recommend(&self, history: &[usize]) -> Served<Vec<f64>> {
        self.recommend_within(history, self.opts.request_budget_millis)
    }

    /// [`ResilientModel::recommend`] with an explicit per-request latency
    /// budget, overriding the construction-time default. This is how a
    /// request deadline carried on the wire (header or query parameter)
    /// reaches the fallback chain: a primary answer that outlives *this
    /// request's* budget is discarded in favour of the unigram fallback.
    pub fn recommend_within(
        &self,
        history: &[usize],
        budget_millis: Option<u64>,
    ) -> Served<Vec<f64>> {
        let rec = hlm_obs::global();
        rec.add("serve.requests", 1);
        let req_t0 = rec.is_enabled().then(std::time::Instant::now);
        let started = self.clock.elapsed_millis();
        let degraded_reason = match self.primary.recommend(history) {
            Ok(scores) => {
                let elapsed = self.clock.elapsed_millis().saturating_sub(started);
                if let Some(defect) = self.score_defect(&scores) {
                    defect
                } else if budget_millis.is_some_and(|budget| elapsed > budget) {
                    format!("primary missed its deadline ({elapsed} ms)")
                } else {
                    if let Some(t0) = req_t0 {
                        rec.observe("serve.latency_seconds", t0.elapsed().as_secs_f64());
                    }
                    return Served {
                        value: scores,
                        degraded: None,
                    };
                }
            }
            Err(e) => format!("primary failed: {e}"),
        };
        rec.add("serve.degraded", 1);
        let served = Served {
            value: self.fallback.predict_next(history),
            degraded: Some(degraded_reason),
        };
        if let Some(t0) = req_t0 {
            rec.observe("serve.latency_seconds", t0.elapsed().as_secs_f64());
        }
        served
    }

    /// Held-out perplexity with fallback: a primary that errors or reports a
    /// non-finite value is replaced by the unigram baseline's figure.
    pub fn perplexity(&self, test: &[Vec<usize>]) -> Served<f64> {
        let rec = hlm_obs::global();
        rec.add("serve.requests", 1);
        let degraded_reason = match self.primary.perplexity(test) {
            Ok(ppl) if ppl.is_finite() => {
                return Served {
                    value: ppl,
                    degraded: None,
                }
            }
            Ok(ppl) => format!("primary perplexity is not finite ({ppl})"),
            Err(e) => format!("primary failed: {e}"),
        };
        rec.add("serve.degraded", 1);
        Served {
            value: self.fallback.perplexity(test),
            degraded: Some(degraded_reason),
        }
    }
}

// ---------------------------------------------------------------------------
// Trained models
// ---------------------------------------------------------------------------

/// A trained model of any family behind one interface. Obtained from
/// [`ModelSpec::fit_sequences`] or [`Engine::train`].
///
/// `Send + Sync` is part of the contract so trained models can be handed
/// across worker threads and shared by a multi-threaded server; every family's model is plain owned data, so the
/// bound costs implementors nothing.
pub trait TrainedModel: Send + Sync {
    /// The family that trained this model.
    fn kind(&self) -> ModelKind;

    /// Report label (`LDA3`, `2-gram`, …).
    fn label(&self) -> &str;

    /// Scores per product (length = vocabulary size) for the next
    /// acquisition given an install-base history.
    ///
    /// # Errors
    /// [`EngineError::Unsupported`] for families that cannot condition on a
    /// history.
    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError>;

    /// Per-token perplexity over held-out sequences (Figure 1 / Table 1
    /// protocol).
    ///
    /// # Errors
    /// [`EngineError::Unsupported`] for non-probabilistic families
    /// (CHH, Apriori).
    fn perplexity(&self, test: &[Vec<usize>]) -> Result<f64, EngineError>;

    /// The concrete model (e.g. [`ExactChh`], [`LdaModel`]) for
    /// family-specific diagnostics; downcast with `downcast_ref`.
    fn as_any(&self) -> &dyn Any;
}

/// The concrete model behind a [`Trained`], one variant per family that
/// trains on histories. It lives behind a `Box<dyn TrainedModel>`, so the
/// LSTM variant's size costs nothing.
#[allow(clippy::large_enum_variant)]
enum Family {
    Ngram(NgramLm),
    Lda(LdaModel),
    Lstm(LstmLm),
    ChhExact(ExactChh),
    ChhStreaming(StreamingChh),
    Apriori(AprioriModel),
}

/// Every family's [`TrainedModel`]: the concrete model and its report label.
struct Trained {
    model: Family,
    label: String,
}

impl TrainedModel for Trained {
    fn kind(&self) -> ModelKind {
        match self.model {
            Family::Ngram(_) => ModelKind::Ngram,
            Family::Lda(_) => ModelKind::Lda,
            Family::Lstm(_) => ModelKind::Lstm,
            Family::ChhExact(_) => ModelKind::ChhExact,
            Family::ChhStreaming(_) => ModelKind::ChhStreaming,
            Family::Apriori(_) => ModelKind::Apriori,
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
        Ok(match &self.model {
            Family::Ngram(m) => m.predict_next(history),
            Family::Lda(m) => masked_lda_scores(m, history),
            Family::Lstm(m) => m.predict_next(history),
            Family::ChhExact(m) => m.predict_next(history),
            Family::ChhStreaming(m) => m.predict_next(history),
            Family::Apriori(m) => m.predict(history),
        })
    }

    fn perplexity(&self, test: &[Vec<usize>]) -> Result<f64, EngineError> {
        match &self.model {
            Family::Ngram(m) => Ok(m.perplexity(test)),
            Family::Lda(m) => {
                let docs = hlm_lda::unit_weights(test);
                Ok(hlm_lda::document_completion_perplexity(m, &docs))
            }
            Family::Lstm(m) => Ok(m.perplexity(test)),
            Family::ChhExact(_) | Family::ChhStreaming(_) | Family::Apriori(_) => {
                Err(EngineError::Unsupported {
                    kind: self.kind(),
                    operation: "perplexity",
                })
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        match &self.model {
            Family::Ngram(m) => m,
            Family::Lda(m) => m,
            Family::Lstm(m) => m,
            Family::ChhExact(m) => m,
            Family::ChhStreaming(m) => m,
            Family::Apriori(m) => m,
        }
    }
}

/// Wraps an already-materialized [`LdaModel`] as a [`TrainedModel`] — the
/// entry point for serving a model recovered from a checkpoint
/// (`GibbsTrainer::model_from_checkpoint`) rather than freshly trained:
/// hot-swap paths load the snapshot, wrap it here, and chain it into a
/// [`ResilientModel`] via [`Engine::resilient_over`].
pub fn lda_trained(model: LdaModel) -> Box<dyn TrainedModel> {
    let label = format!("LDA{}", model.n_topics());
    Box::new(Trained {
        model: Family::Lda(model),
        label,
    })
}

// ---------------------------------------------------------------------------
// Sliding-window adapter
// ---------------------------------------------------------------------------

/// The [`RecommenderFactory`] behind [`ModelSpec::factory`]: per cutoff, it
/// trains the spec on the history before the window through the same
/// function as [`Engine::train`], with an empty plan.
struct SpecFactory {
    spec: ModelSpec,
    label: String,
}

impl RecommenderFactory for SpecFactory {
    // `factory()` validated the spec, and an empty plan neither interrupts
    // nor checkpoints. What is left to fail is the caller's input (a corpus
    // whose vocabulary the spec does not match, or no training companies),
    // which this trait has no error channel for.
    #[allow(clippy::expect_used)]
    fn train(
        &self,
        corpus: &Corpus,
        train_ids: &[CompanyId],
        cutoff: Month,
    ) -> Box<dyn Recommender> {
        let fit = self
            .spec
            .fit_before(corpus, train_ids, cutoff, TrainPlan::new())
            .expect("a validated spec trains on a corpus of its vocabulary");
        Box::new(SpecRecommender(fit.model))
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// A model trained for one window, answering the window protocol.
struct SpecRecommender(Box<dyn TrainedModel>);

impl Recommender for SpecRecommender {
    // Every family `factory()` accepts recommends from any history: only
    // BPMF refuses, and `factory()` refuses BPMF.
    #[allow(clippy::expect_used)]
    fn scores(&self, history: &[usize]) -> Vec<f64> {
        self.0
            .recommend(history)
            .expect("every family factory() accepts recommends")
    }

    fn name(&self) -> &str {
        self.0.label()
    }
}

// ---------------------------------------------------------------------------
// Engine facade
// ---------------------------------------------------------------------------

/// The serving facade: one corpus behind an [`Arc`], shared by every model
/// it trains and every [`SalesApplication`] it spawns — plus one
/// [`ServingCache`] shared by every application, invalidated whenever the
/// engine trains so stale rankings cannot outlive the model that produced
/// them.
pub struct Engine {
    corpus: Arc<Corpus>,
    serving_cache: Arc<hlm_core::ServingCache>,
}

impl Engine {
    /// Wraps a corpus (or an already-shared `Arc<Corpus>`).
    pub fn new(corpus: impl Into<Arc<Corpus>>) -> Self {
        Engine {
            corpus: corpus.into(),
            serving_cache: Arc::new(hlm_core::ServingCache::default()),
        }
    }

    /// The underlying corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// A shared handle to the corpus (cheap; no data copy).
    pub fn corpus_arc(&self) -> Arc<Corpus> {
        Arc::clone(&self.corpus)
    }

    /// The engine's serving-side memo. Every [`Engine::sales_app`] shares
    /// it; every [`Engine::train`] call invalidates it.
    pub fn serving_cache(&self) -> &Arc<hlm_core::ServingCache> {
        &self.serving_cache
    }

    /// Trains a model on the given companies' history strictly before
    /// `cutoff`, checkpointed, resumable and watchdog-guarded per `plan`.
    /// This is the path the sliding-window factory of [`ModelSpec::factory`]
    /// trains each window with: LDA sees each company's products in
    /// product-id order, every other family its acquisition sequence.
    ///
    /// # Errors
    /// As in [`ModelSpec::fit_sequences`], plus [`EngineError::InvalidSpec`]
    /// when the spec's vocabulary is not the corpus's.
    pub fn train(
        &self,
        spec: &ModelSpec,
        ids: &[CompanyId],
        cutoff: Month,
        plan: TrainPlan,
    ) -> Result<ResilientFit<Box<dyn TrainedModel>>, EngineError> {
        let rec = hlm_obs::global();
        let _span = rec.span("engine.train");
        rec.add("engine.trains", 1);
        self.serving_cache.invalidate();
        spec.fit_before(&self.corpus, ids, cutoff, plan)
    }

    /// Chains an *already trained* primary model (e.g. one recovered from a
    /// checkpoint via [`lda_trained`]) over a unigram fallback fitted on
    /// every company's full history. This is the hot-swap path: the server
    /// loads a candidate snapshot, wraps it here, canary-probes the result,
    /// and only then atomically replaces the serving bundle.
    pub fn resilient_over(
        &self,
        primary: Box<dyn TrainedModel>,
        opts: ServeOptions,
    ) -> ResilientModel {
        let ids: Vec<CompanyId> = self.corpus.ids().collect();
        let seqs = sequences_before(&self.corpus, &ids, Month(i32::MAX));
        let fallback = NgramLm::fit(NgramConfig::unigram(self.corpus.vocab().len()), &seqs);
        ResilientModel::new(primary, fallback, opts)
    }

    /// Opens the sales application over this corpus with the given company
    /// representations, sharing the corpus `Arc` (no data copy) and the
    /// engine's [`ServingCache`] — repeat queries against the same model
    /// generation replay memoized answers; any later [`Engine::train`] call
    /// invalidates them.
    ///
    /// # Errors
    /// [`EngineError::Core`] on a row/company mismatch.
    pub fn sales_app(
        &self,
        representations: impl Into<Arc<Matrix>>,
        metric: DistanceMetric,
    ) -> Result<SalesApplication, EngineError> {
        Ok(
            SalesApplication::new(self.corpus_arc(), representations, metric)?
                .with_cache(Arc::clone(&self.serving_cache)),
        )
    }

    /// Market-drift check between two time windows (Section 6's monitoring
    /// loop).
    pub fn detect_drift(
        &self,
        reference: TimeWindow,
        recent: TimeWindow,
        significance: f64,
    ) -> DriftReport {
        hlm_eval::drift::detect_drift(&self.corpus, reference, recent, significance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlm_datagen::GeneratorConfig;

    fn corpus() -> Corpus {
        hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(150, 5))
    }

    fn tiny_seqs() -> Vec<Vec<usize>> {
        vec![
            vec![0, 1, 2, 3],
            vec![1, 2, 3, 4],
            vec![0, 2, 4],
            vec![3, 1, 0, 2],
        ]
    }

    #[test]
    fn model_kind_round_trips_and_rejects_unknown() {
        for kind in ModelKind::ALL {
            assert_eq!(kind.to_string().parse::<ModelKind>().unwrap(), kind);
        }
        assert_eq!("CHH".parse::<ModelKind>().unwrap(), ModelKind::ChhExact);
        let err = "markov-chain".parse::<ModelKind>().unwrap_err();
        assert_eq!(
            err,
            EngineError::UnknownModelKind("markov-chain".to_string())
        );
        assert!(err.to_string().contains("markov-chain"));
    }

    #[test]
    fn every_family_has_a_factory_or_a_reasoned_refusal() {
        let specs = [
            ModelSpec::Ngram(NgramConfig::bigram(5)),
            ModelSpec::Lda {
                config: LdaConfig {
                    n_topics: 2,
                    vocab_size: 5,
                    ..Default::default()
                },
                estimator: LdaEstimator::Gibbs,
            },
            ModelSpec::Lstm {
                config: LstmConfig {
                    vocab_size: 5,
                    hidden_size: 4,
                    ..Default::default()
                },
                train: TrainOptions::default(),
                seed: 1,
            },
            ModelSpec::ChhExact {
                depth: 2,
                vocab_size: 5,
            },
            ModelSpec::ChhStreaming {
                depth: 2,
                vocab_size: 5,
                max_contexts: 10,
                counters_per_context: 4,
            },
            ModelSpec::Apriori {
                config: AprioriConfig::default(),
                vocab_size: 5,
            },
        ];
        for spec in &specs {
            let factory = spec
                .factory()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            assert!(!factory.name().is_empty());
        }
        // BPMF is registered but refuses the history-based protocol.
        let err = ModelSpec::Bpmf(hlm_bpmf::BpmfConfig::default())
            .factory()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            EngineError::Unsupported {
                kind: ModelKind::Bpmf,
                ..
            }
        ));
    }

    #[test]
    fn ngram_and_lda_train_score_and_measure_perplexity() {
        let train = tiny_seqs();
        let test = vec![vec![0, 1, 2], vec![2, 3, 4]];
        for spec in [
            ModelSpec::Ngram(NgramConfig::bigram(5)),
            ModelSpec::Lda {
                config: LdaConfig {
                    n_topics: 2,
                    vocab_size: 5,
                    n_iters: 20,
                    burn_in: 10,
                    ..Default::default()
                },
                estimator: LdaEstimator::Gibbs,
            },
        ] {
            let model = spec
                .fit_sequences(&train, &[], TrainPlan::new())
                .unwrap()
                .model;
            assert_eq!(model.kind(), spec.kind());
            let scores = model.recommend(&[0, 1]).unwrap();
            assert_eq!(scores.len(), 5);
            assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
            let ppl = model.perplexity(&test).unwrap();
            assert!(ppl.is_finite() && ppl > 1.0, "{}: ppl {ppl}", model.label());
        }
    }

    #[test]
    fn chh_models_recommend_but_refuse_perplexity() {
        let train = tiny_seqs();
        for spec in [
            ModelSpec::ChhExact {
                depth: 2,
                vocab_size: 5,
            },
            ModelSpec::ChhStreaming {
                depth: 2,
                vocab_size: 5,
                max_contexts: 20,
                counters_per_context: 4,
            },
        ] {
            let model = spec
                .fit_sequences(&train, &[], TrainPlan::new())
                .unwrap()
                .model;
            assert_eq!(model.recommend(&[0, 1]).unwrap().len(), 5);
            let err = model.perplexity(&[vec![0, 1]]).unwrap_err();
            assert!(matches!(err, EngineError::Unsupported { .. }));
        }
    }

    #[test]
    fn downcast_reaches_the_concrete_model() {
        let spec = ModelSpec::ChhExact {
            depth: 1,
            vocab_size: 5,
        };
        let model = spec
            .fit_sequences(&tiny_seqs(), &[], TrainPlan::new())
            .unwrap()
            .model;
        let chh = model
            .as_any()
            .downcast_ref::<ExactChh>()
            .expect("concrete ExactChh");
        assert!(chh.context_count() > 0);
        // Wrong type: downcast politely fails.
        assert!(model.as_any().downcast_ref::<NgramLm>().is_none());
    }

    #[test]
    fn fit_lda_validates_and_supports_both_estimators() {
        let docs = hlm_lda::unit_weights(&tiny_seqs());
        let cfg = LdaConfig {
            n_topics: 2,
            vocab_size: 5,
            n_iters: 15,
            burn_in: 5,
            ..Default::default()
        };
        for est in [LdaEstimator::Gibbs, LdaEstimator::Vb] {
            let model = fit_lda_resilient(cfg.clone(), est, &docs, TrainPlan::new())
                .unwrap()
                .model;
            assert_eq!(model.n_topics(), 2);
        }
        let err = fit_lda_resilient(cfg, LdaEstimator::Gibbs, &[], TrainPlan::new()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSpec { .. }));
    }

    #[test]
    fn fold_in_lda_validates_and_grows_vocab() {
        let docs = hlm_lda::unit_weights(&tiny_seqs());
        let cfg = LdaConfig {
            n_topics: 2,
            vocab_size: 5,
            n_iters: 15,
            burn_in: 5,
            ..Default::default()
        };
        let model = fit_lda_resilient(cfg, LdaEstimator::Gibbs, &docs, TrainPlan::new())
            .unwrap()
            .model;
        let opts = hlm_lda::FoldInOptions {
            prior_tokens: 15.0,
            ..Default::default()
        };

        // Vocabulary grows by one; the folded model scores the new word.
        let new_docs = hlm_lda::unit_weights(&[vec![0, 1, 5], vec![2, 5]]);
        let folded = fold_in_lda(&model, &new_docs, 6, &opts).unwrap();
        assert_eq!(folded.vocab_size(), 6);
        assert_eq!(folded.n_topics(), 2);

        // Errors, not panics, on malformed requests.
        let shrink = fold_in_lda(&model, &new_docs, 4, &opts).unwrap_err();
        assert!(matches!(shrink, EngineError::InvalidSpec { .. }));
        let oov = fold_in_lda(&model, &new_docs, 5, &opts).unwrap_err();
        assert!(matches!(oov, EngineError::InvalidSpec { .. }));
        let zero = fold_in_lda(
            &model,
            &new_docs,
            6,
            &hlm_lda::FoldInOptions {
                n_sweeps: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(zero, EngineError::InvalidSpec { .. }));
    }

    #[test]
    fn train_kill_and_resume_matches_plain_training() {
        use hlm_resilience::{CheckpointStore, MemIo};

        let engine = Engine::new(corpus());
        let ids: Vec<CompanyId> = engine.corpus().ids().collect();
        let spec = ModelSpec::Lda {
            config: LdaConfig {
                n_topics: 2,
                vocab_size: engine.corpus().vocab().len(),
                n_iters: 40,
                burn_in: 20,
                ..Default::default()
            },
            estimator: LdaEstimator::Gibbs,
        };
        let cutoff = Month(i32::MAX);
        let full = engine
            .train(&spec, &ids, cutoff, TrainPlan::new())
            .unwrap()
            .model;

        // Kill at sweep 30 (mid phi accumulation), resume from the store.
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let plan = TrainPlan::new()
            .with_store(store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(30));
        let err = engine.train(&spec, &ids, cutoff, plan).unwrap_err();
        assert!(err.is_interruption(), "{err}");
        // The store was consumed by the plan; rebuild over the same MemIo is
        // not possible, so run the kill/resume pair against a disk store.
        let dir = std::env::temp_dir().join(format!("hlm-engine-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = TrainPlan::new()
            .on_disk(&dir)
            .unwrap()
            .with_guard(RunGuard::unlimited().abort_at_iteration(30));
        let err = engine.train(&spec, &ids, cutoff, plan).unwrap_err();
        assert!(err.is_interruption());

        let plan = TrainPlan::new().on_disk(&dir).unwrap().resume(true);
        let fit = engine.train(&spec, &ids, cutoff, plan).unwrap();
        assert_eq!(fit.resumed_from, Some(30));
        assert!(fit.rolled_back.is_none());
        let test = vec![vec![0, 1, 2], vec![2, 3]];
        let full_ppl = full.perplexity(&test).unwrap();
        let resumed_ppl = fit.model.perplexity(&test).unwrap();
        assert!(
            (full_ppl - resumed_ppl).abs() < 1e-9,
            "resumed ppl {resumed_ppl} != full ppl {full_ppl}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_rolls_back_to_last_good_checkpoint_on_divergence() {
        use hlm_resilience::{CheckpointStore, FaultPlan, MemIo};

        let engine = Engine::new(corpus());
        let ids: Vec<CompanyId> = engine.corpus().ids().collect();
        let spec = ModelSpec::Lda {
            config: LdaConfig {
                n_topics: 2,
                vocab_size: engine.corpus().vocab().len(),
                n_iters: 40,
                burn_in: 20,
                ..Default::default()
            },
            estimator: LdaEstimator::Gibbs,
        };
        // NaN injected at sweep 35: past burn-in, so checkpoints 1..=35 hold
        // phi samples and rollback succeeds.
        let plan = TrainPlan::new()
            .with_store(CheckpointStore::new(Box::new(MemIo::new())))
            .with_faults(FaultPlan::none().with_nan_at_iteration(35));
        let fit = engine.train(&spec, &ids, Month(i32::MAX), plan).unwrap();
        let rolled = fit.rolled_back.expect("divergence must be reported");
        assert!(matches!(
            rolled,
            ResilienceError::Diverged { iteration: 35, .. }
        ));
        // The rolled-back model is usable.
        let scores = fit.model.recommend(&[0, 1]).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));

        // Without a store there is nothing to roll back to: the divergence
        // surfaces as an error instead of a poisoned model.
        let plan = TrainPlan::new().with_faults(FaultPlan::none().with_nan_at_iteration(35));
        let err = engine
            .train(&spec, &ids, Month(i32::MAX), plan)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Resilience(ResilienceError::Diverged { .. })
        ));
    }

    /// A primary that always reports the same constant score for every
    /// product — the paper's BPMF degeneracy, distilled.
    struct CollapsedPrimary {
        vocab: usize,
    }

    impl TrainedModel for CollapsedPrimary {
        fn kind(&self) -> ModelKind {
            ModelKind::Bpmf
        }
        fn label(&self) -> &str {
            "collapsed"
        }
        fn recommend(&self, _history: &[usize]) -> Result<Vec<f64>, EngineError> {
            Ok(vec![1.0; self.vocab])
        }
        fn perplexity(&self, _test: &[Vec<usize>]) -> Result<f64, EngineError> {
            Ok(f64::NAN)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn degraded_serving_falls_back_to_unigram_and_tags_the_response() {
        let train = tiny_seqs();
        let fallback = NgramLm::fit(NgramConfig::unigram(5), &train);

        // Healthy primary: served directly, not degraded.
        let healthy = ModelSpec::Ngram(NgramConfig::bigram(5))
            .fit_sequences(&train, &[], TrainPlan::new())
            .unwrap()
            .model;
        let server = ResilientModel::new(healthy, fallback.clone(), ServeOptions::default());
        let served = server.recommend(&[0, 1]);
        assert!(!served.is_degraded());
        assert_eq!(served.value.len(), 5);

        // Collapsed primary: unigram answers, response is tagged.
        let server = ResilientModel::new(
            Box::new(CollapsedPrimary { vocab: 5 }),
            fallback.clone(),
            ServeOptions::default(),
        );
        let served = server.recommend(&[0, 1]);
        assert!(served.is_degraded(), "collapse must degrade");
        assert!(served.degraded.as_deref().unwrap().contains("collapsed"));
        assert_eq!(served.value, fallback.predict_next(&[0, 1]));
        let ppl = server.perplexity(&[vec![0, 1, 2]]);
        assert!(ppl.is_degraded());
        assert!(ppl.value.is_finite());

        // Primaries that refuse the operation degrade too (CHH perplexity).
        let chh = ModelSpec::ChhExact {
            depth: 2,
            vocab_size: 5,
        }
        .fit_sequences(&train, &[], TrainPlan::new())
        .unwrap()
        .model;
        let server = ResilientModel::new(chh, fallback.clone(), ServeOptions::default());
        let ppl = server.perplexity(&[vec![0, 1, 2]]);
        assert!(ppl.is_degraded());
        assert!(ppl.value.is_finite());
    }

    /// A primary whose every answer takes a fixed number of (manual-clock)
    /// milliseconds — for deterministic deadline tests.
    struct SlowPrimary {
        inner: Box<dyn TrainedModel>,
        clock: hlm_resilience::ManualClock,
        cost_millis: u64,
    }

    impl TrainedModel for SlowPrimary {
        fn kind(&self) -> ModelKind {
            self.inner.kind()
        }
        fn label(&self) -> &str {
            "slow"
        }
        fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
            self.clock.advance(self.cost_millis);
            self.inner.recommend(history)
        }
        fn perplexity(&self, test: &[Vec<usize>]) -> Result<f64, EngineError> {
            self.inner.perplexity(test)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn deadline_miss_degrades_deterministically() {
        use hlm_resilience::ManualClock;

        let train = tiny_seqs();
        let fallback = NgramLm::fit(NgramConfig::unigram(5), &train);
        let clock = ManualClock::new();
        let primary = SlowPrimary {
            inner: ModelSpec::Ngram(NgramConfig::bigram(5))
                .fit_sequences(&train, &[], TrainPlan::new())
                .unwrap()
                .model,
            clock: clock.clone(),
            cost_millis: 50,
        };
        let server = ResilientModel::new(
            Box::new(primary),
            fallback,
            ServeOptions {
                request_budget_millis: Some(20),
            },
        )
        .with_clock(Box::new(clock));
        let served = server.recommend(&[0, 1]);
        assert!(served.is_degraded(), "50 ms answer over a 20 ms budget");
        assert!(served.degraded.as_deref().unwrap().contains("deadline"));
    }

    #[test]
    fn per_request_budget_overrides_the_default() {
        use hlm_resilience::ManualClock;

        let train = tiny_seqs();
        let fallback = NgramLm::fit(NgramConfig::unigram(5), &train);
        let clock = ManualClock::new();
        let primary = SlowPrimary {
            inner: ModelSpec::Ngram(NgramConfig::bigram(5))
                .fit_sequences(&train, &[], TrainPlan::new())
                .unwrap()
                .model,
            clock: clock.clone(),
            cost_millis: 50,
        };
        // No default budget: plain recommend() never misses a deadline.
        let server = ResilientModel::new(Box::new(primary), fallback, ServeOptions::default())
            .with_clock(Box::new(clock));
        assert!(!server.recommend(&[0, 1]).is_degraded());
        // A tight per-request budget degrades this one call only.
        let served = server.recommend_within(&[0, 1], Some(20));
        assert!(served.is_degraded(), "50 ms answer over a 20 ms budget");
        assert!(served.degraded.as_deref().unwrap().contains("deadline"));
        // A generous per-request budget passes again.
        assert!(!server.recommend_within(&[0, 1], Some(500)).is_degraded());
    }

    #[test]
    fn checkpointed_lda_serves_bit_identically_via_resilient_over() {
        let engine = Engine::new(corpus());
        let ids: Vec<CompanyId> = engine.corpus().ids().collect();
        let docs = hlm_core::representations::binary_docs(engine.corpus(), &ids);
        let config = LdaConfig {
            n_topics: 3,
            vocab_size: engine.corpus().vocab().len(),
            n_iters: 30,
            burn_in: 15,
            sample_lag: 5,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join(format!(
            "hlm-engine-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = TrainPlan::new().on_disk(&dir).unwrap();
        let fit = fit_lda_resilient(config.clone(), LdaEstimator::Gibbs, &docs, plan).unwrap();
        assert_eq!(fit.checkpoints_written, 30);

        // Reload the final snapshot: the recovered model must answer exactly
        // like the one the uninterrupted fit returned — this is what makes a
        // server warm-started from `latest_good` bit-identical.
        let store = CheckpointStore::on_disk(&dir).unwrap();
        let good = store
            .latest_good(hlm_lda::GIBBS_CHECKPOINT_KIND)
            .unwrap()
            .expect("final checkpoint present");
        assert_eq!(good.iteration, 30);
        let recovered = GibbsTrainer::new(config)
            .model_from_checkpoint(&good)
            .unwrap();

        let warm = engine.resilient_over(lda_trained(recovered), ServeOptions::default());
        let direct = lda_trained(fit.model);
        for history in [vec![0usize, 3], vec![5, 1, 2], vec![7]] {
            let a = warm.recommend(&history);
            assert!(!a.is_degraded(), "{:?}", a.degraded);
            assert_eq!(a.value, direct.recommend(&history).unwrap());
        }
        assert_eq!(warm.primary().label(), "LDA3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One spec per check a family's config makes (plus the budgets on the
    /// spec itself), each failing only that check.
    fn specs_failing_one_check() -> Vec<ModelSpec> {
        let lda = |edit: fn(&mut LdaConfig)| {
            let mut config = LdaConfig {
                n_topics: 2,
                vocab_size: 38,
                n_iters: 10,
                burn_in: 5,
                sample_lag: 2,
                ..Default::default()
            };
            edit(&mut config);
            ModelSpec::Lda {
                config,
                estimator: LdaEstimator::Gibbs,
            }
        };
        let ngram = |edit: fn(&mut NgramConfig)| {
            let mut cfg = NgramConfig::bigram(5);
            edit(&mut cfg);
            ModelSpec::Ngram(cfg)
        };
        let lstm = |edit: fn(&mut LstmConfig, &mut TrainOptions)| {
            let mut config = LstmConfig {
                vocab_size: 5,
                hidden_size: 4,
                ..Default::default()
            };
            let mut train = TrainOptions {
                epochs: 1,
                ..Default::default()
            };
            edit(&mut config, &mut train);
            ModelSpec::Lstm {
                config,
                train,
                seed: 1,
            }
        };
        let streaming = |vocab_size, max_contexts, counters_per_context| ModelSpec::ChhStreaming {
            depth: 2,
            vocab_size,
            max_contexts,
            counters_per_context,
        };
        let apriori = |edit: fn(&mut AprioriConfig)| {
            let mut config = AprioriConfig::default();
            edit(&mut config);
            ModelSpec::Apriori {
                config,
                vocab_size: 5,
            }
        };
        let bpmf = |edit: fn(&mut hlm_bpmf::BpmfConfig)| {
            let mut cfg = hlm_bpmf::BpmfConfig::default();
            edit(&mut cfg);
            ModelSpec::Bpmf(cfg)
        };
        vec![
            lda(|c| c.n_topics = 0),
            lda(|c| c.n_topics = 70_000),
            lda(|c| c.vocab_size = 0),
            lda(|c| c.alpha = Some(0.0)),
            lda(|c| c.beta = 0.0),
            lda(|c| c.burn_in = c.n_iters),
            lda(|c| c.sample_lag = 0),
            ngram(|c| c.order = 0),
            ngram(|c| c.vocab_size = 0),
            ngram(|c| c.add_k = 0.0),
            ngram(|c| c.lambdas = Some(vec![1.0])),
            ngram(|c| c.lambdas = Some(vec![-0.5, 1.5])),
            ngram(|c| c.lambdas = Some(vec![0.5, 0.9])),
            lstm(|c, _| c.vocab_size = 0),
            lstm(|c, _| c.hidden_size = 0),
            lstm(|c, _| c.n_layers = 0),
            lstm(|c, _| c.dropout = 1.0),
            lstm(|_, t| t.batch_size = 0),
            lstm(|_, t| t.lr_decay = 0.0),
            lstm(|_, t| t.adam.learning_rate = 0.0),
            lstm(|_, t| t.adam.beta1 = 1.0),
            lstm(|_, t| t.adam.epsilon = 0.0),
            lstm(|_, t| t.adam.clip_norm = Some(0.0)),
            ModelSpec::ChhExact {
                depth: 2,
                vocab_size: 0,
            },
            streaming(0, 10, 4),
            streaming(5, 0, 4),
            streaming(5, 10, 0),
            apriori(|c| c.min_support = 0.0),
            apriori(|c| c.min_confidence = 1.5),
            apriori(|c| c.max_len = 1),
            ModelSpec::Apriori {
                config: AprioriConfig::default(),
                vocab_size: 0,
            },
            bpmf(|c| c.n_factors = 0),
            bpmf(|c| c.alpha = 0.0),
            bpmf(|c| c.burn_in = c.n_iters),
        ]
    }

    #[test]
    fn invalid_specs_are_rejected_before_training() {
        let corpus = corpus();
        let shards = hlm_corpus::shard::MemShardSource::new(&corpus, 64);
        // Validation fails before a sharded fit creates its work dir.
        let work = std::env::temp_dir().join("hlm-engine-invalid-spec-never-created");
        let docs = hlm_lda::unit_weights(&tiny_seqs());
        let invalid = |what: &str, spec: &ModelSpec, got: Result<(), EngineError>| match got {
            Err(EngineError::InvalidSpec { .. }) => {}
            other => panic!("{what} on {spec:?}: expected InvalidSpec, got {other:?}"),
        };
        for spec in &specs_failing_one_check() {
            let fit = spec.fit_sequences(&tiny_seqs(), &[], TrainPlan::new());
            invalid("fit_sequences", spec, fit.map(drop));
            invalid("factory", spec, spec.factory().map(drop));
            if let ModelSpec::Lda { config, estimator } = spec {
                let fit = fit_lda_resilient(config.clone(), *estimator, &docs, TrainPlan::new());
                invalid("fit_lda_resilient", spec, fit.map(drop));
                let fit = fit_lda_sharded_gibbs(config.clone(), &shards, &work, TrainPlan::new());
                invalid("fit_lda_sharded_gibbs", spec, fit.map(drop));
            }
        }
    }

    #[test]
    fn one_shot_families_consult_the_watchdog() {
        let spec = ModelSpec::Ngram(NgramConfig::bigram(5));
        let plan = TrainPlan::new().with_guard(RunGuard::unlimited().abort_at_iteration(0));
        let err = spec.fit_sequences(&tiny_seqs(), &[], plan).unwrap_err();
        assert!(err.is_interruption());
        let fit = spec
            .fit_sequences(&tiny_seqs(), &[], TrainPlan::new())
            .unwrap();
        assert_eq!(fit.checkpoints_written, 0);
        assert!(fit.model.recommend(&[0]).is_ok());
    }

    #[test]
    fn engine_trains_and_opens_the_sales_app_with_shared_corpus() {
        let engine = Engine::new(corpus());
        let ids: Vec<CompanyId> = engine.corpus().ids().collect();
        let spec = ModelSpec::Ngram(NgramConfig::bigram(engine.corpus().vocab().len()));
        let model = engine
            .train(&spec, &ids, Month(i32::MAX), TrainPlan::new())
            .unwrap()
            .model;
        assert_eq!(
            model.recommend(&[0]).unwrap().len(),
            engine.corpus().vocab().len()
        );

        // The sales app shares the corpus allocation, not a copy.
        let reps = hlm_core::representations::raw_binary(engine.corpus(), &ids);
        let app = engine.sales_app(reps, DistanceMetric::Cosine).unwrap();
        assert!(Arc::ptr_eq(&engine.corpus_arc(), &app.corpus_arc()));

        // A mismatched representation matrix surfaces as a typed core error.
        let bad = Matrix::zeros(3, 4);
        let err = engine.sales_app(bad, DistanceMetric::Cosine).err().unwrap();
        assert_eq!(
            err,
            EngineError::Core(CoreError::RepresentationMismatch {
                rows: 3,
                companies: 150
            })
        );
    }

    fn sharded_dirs(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let base = std::env::temp_dir().join(format!(
            "hlm_engine_sharded_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        (base.join("store"), base.join("work"))
    }

    #[test]
    fn sharded_gibbs_over_shard_store_matches_in_memory_binary_docs() {
        let corpus = corpus();
        let (store_dir, work_dir) = sharded_dirs("gibbs");
        let store = hlm_corpus::shard::write_corpus_sharded(&corpus, &store_dir, 3).unwrap();
        let cfg = LdaConfig {
            n_topics: 4,
            vocab_size: corpus.vocab().len(),
            n_iters: 12,
            burn_in: 6,
            sample_lag: 2,
            seed: 17,
            ..Default::default()
        };

        let ids: Vec<CompanyId> = corpus.ids().collect();
        let docs = hlm_core::representations::binary_docs(&corpus, &ids);
        let in_memory =
            fit_lda_resilient(cfg.clone(), LdaEstimator::Gibbs, &docs, TrainPlan::new())
                .unwrap()
                .model;

        let sharded = fit_lda_sharded_gibbs(cfg, &store, &work_dir, TrainPlan::new()).unwrap();
        assert!(sharded.resumed_from.is_none());
        assert_eq!(sharded.model.phi(), in_memory.phi());
        std::fs::remove_dir_all(store_dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn sharded_online_vb_matches_across_backing_stores() {
        let corpus = corpus();
        let (store_dir, _) = sharded_dirs("ovb");
        let store = hlm_corpus::shard::write_corpus_sharded(&corpus, &store_dir, 3).unwrap();
        let cfg = LdaConfig {
            n_topics: 4,
            vocab_size: corpus.vocab().len(),
            seed: 23,
            ..Default::default()
        };
        let opts = OnlineVbOptions {
            epochs: 2,
            ..Default::default()
        };

        // Same shard layout, different backing store (disk vs RAM): the fits
        // must agree to the last bit.
        let from_disk =
            fit_lda_sharded_online_vb(cfg.clone(), opts.clone(), &store, TrainPlan::new()).unwrap();
        let mem =
            hlm_corpus::shard::MemShardSource::new(&corpus, store.manifest().shard_size as usize);
        let from_mem = fit_lda_sharded_online_vb(cfg, opts, &mem, TrainPlan::new()).unwrap();
        assert_eq!(from_disk.model.phi(), from_mem.model.phi());
        std::fs::remove_dir_all(store_dir.parent().unwrap()).unwrap();
    }
}
