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
//! * [`ModelSpec`] — a *validated* configuration for one family, convertible
//!   into either a sliding-window [`RecommenderFactory`] (delegating to the
//!   adapters in [`hlm_core::recommenders`]) or a concrete trained model;
//! * [`TrainedModel`] — the trait object returned by [`ModelSpec::fit_sequences`]
//!   / [`Engine::train`], exposing `recommend` and `perplexity` uniformly and
//!   the concrete model via [`TrainedModel::as_any`] for family-specific
//!   diagnostics (topic inspection, heavy-hitter counts, …).
//!
//! Invalid input surfaces as a typed [`EngineError`] rather than a panic, so
//! a server built on the engine can turn bad requests into error responses.
//! The [`Engine`] facade holds the corpus behind an [`Arc`] and shares it
//! with every [`SalesApplication`] it spawns — one copy of the install-base
//! data regardless of how many serving surfaces are open.

use hlm_chh::{AprioriConfig, AprioriModel, ExactChh, StreamingChh};
use hlm_core::app::SalesApplication;
use hlm_core::recommenders::{
    masked_lda_scores, AprioriRecommenderFactory, ChhRecommenderFactory, LdaRecommenderFactory,
    LstmRecommenderFactory, NgramRecommenderFactory,
};
use hlm_core::similarity::DistanceMetric;
use hlm_core::CoreError;
pub use hlm_core::{RepStore, StorePrecision};
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
use hlm_ngram::{NgramConfig, NgramLm};
pub use hlm_par::{effective_threads, par_threshold, set_par_threshold, set_threads};
pub use hlm_resilience::{
    CancelHandle, Checkpoint, CheckpointStore, Clock, CollapsePolicy, Fault, FaultPlan,
    ManualClock, ResilienceError, RunGuard, SystemClock,
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
    pub const NAMES: &'static str = "ngram, lda, lstm, chh-exact, chh-streaming, apriori, bpmf";

    /// Every family, in registry order.
    pub const ALL: [ModelKind; 7] = [
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

    /// Checks the spec for parameters no model can be trained with.
    ///
    /// # Errors
    /// [`EngineError::InvalidSpec`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), EngineError> {
        let invalid = |reason: String| Err(EngineError::InvalidSpec { reason });
        match self {
            ModelSpec::Ngram(cfg) => {
                if cfg.order == 0 {
                    return invalid("n-gram order must be at least 1".into());
                }
                if cfg.vocab_size == 0 {
                    return invalid("n-gram vocabulary must be non-empty".into());
                }
            }
            ModelSpec::Lda { config, .. } => {
                if config.n_topics == 0 {
                    return invalid("LDA needs at least one topic".into());
                }
                if config.vocab_size == 0 {
                    return invalid("LDA vocabulary must be non-empty".into());
                }
            }
            ModelSpec::Lstm { config, .. } => {
                if config.vocab_size == 0 {
                    return invalid("LSTM vocabulary must be non-empty".into());
                }
                if config.hidden_size == 0 || config.n_layers == 0 {
                    return invalid("LSTM needs at least one hidden unit and one layer".into());
                }
            }
            ModelSpec::ChhExact { vocab_size, .. } => {
                if *vocab_size == 0 {
                    return invalid("CHH vocabulary must be non-empty".into());
                }
            }
            ModelSpec::ChhStreaming {
                vocab_size,
                max_contexts,
                counters_per_context,
                ..
            } => {
                if *vocab_size == 0 {
                    return invalid("CHH vocabulary must be non-empty".into());
                }
                if *max_contexts == 0 || *counters_per_context == 0 {
                    return invalid(format!(
                        "streaming CHH budgets must be positive \
                         (max_contexts={max_contexts}, counters={counters_per_context})"
                    ));
                }
            }
            ModelSpec::Apriori { config, vocab_size } => {
                if *vocab_size == 0 {
                    return invalid("Apriori vocabulary must be non-empty".into());
                }
                if config.max_len == 0 {
                    return invalid("Apriori max_len must be at least 1".into());
                }
            }
            ModelSpec::Bpmf(cfg) => {
                if cfg.n_factors == 0 {
                    return invalid("BPMF needs at least one latent factor".into());
                }
            }
        }
        Ok(())
    }

    /// Bridges the spec to the sliding-window evaluation protocol: a
    /// [`RecommenderFactory`] that retrains on history before each window.
    /// Delegates to the adapters in [`hlm_core::recommenders`]; the streaming
    /// CHH factory (which core does not provide) lives in this crate.
    ///
    /// # Errors
    /// [`EngineError::InvalidSpec`] for unusable parameters;
    /// [`EngineError::Unsupported`] for BPMF (dedicated protocol) and the
    /// variational LDA estimator (the window protocol trains with Gibbs).
    pub fn factory(&self) -> Result<Box<dyn RecommenderFactory>, EngineError> {
        self.validate()?;
        match self {
            ModelSpec::Ngram(cfg) => Ok(Box::new(NgramRecommenderFactory::new(cfg.clone()))),
            ModelSpec::Lda { config, estimator } => match estimator {
                LdaEstimator::Gibbs => Ok(Box::new(LdaRecommenderFactory::new(config.clone()))),
                LdaEstimator::Vb => Err(EngineError::Unsupported {
                    kind: ModelKind::Lda,
                    operation: "sliding-window factory with the VB estimator",
                }),
            },
            ModelSpec::Lstm {
                config,
                train,
                seed,
            } => Ok(Box::new(LstmRecommenderFactory {
                config: config.clone(),
                train: train.clone(),
                seed: *seed,
            })),
            ModelSpec::ChhExact { depth, .. } => {
                Ok(Box::new(ChhRecommenderFactory { depth: *depth }))
            }
            ModelSpec::ChhStreaming {
                depth,
                max_contexts,
                counters_per_context,
                ..
            } => Ok(Box::new(StreamingChhRecommenderFactory {
                depth: *depth,
                max_contexts: *max_contexts,
                counters_per_context: *counters_per_context,
            })),
            ModelSpec::Apriori { config, .. } => Ok(Box::new(AprioriRecommenderFactory {
                config: config.clone(),
            })),
            ModelSpec::Bpmf(_) => Err(EngineError::Unsupported {
                kind: ModelKind::Bpmf,
                operation: "history-conditioned recommendation \
                            (use hlm_core::recommenders::evaluate_bpmf)",
            }),
        }
    }

    /// Trains a model on explicit acquisition sequences and returns it as a
    /// uniform [`TrainedModel`]. `valid` feeds early stopping where the
    /// family supports it (LSTM) and is ignored elsewhere.
    ///
    /// # Errors
    /// [`EngineError::InvalidSpec`] for unusable parameters;
    /// [`EngineError::Unsupported`] for BPMF, which is not a sequence model.
    pub fn fit_sequences(
        &self,
        train: &[Vec<usize>],
        valid: &[Vec<usize>],
    ) -> Result<Box<dyn TrainedModel>, EngineError> {
        self.validate()?;
        let label = self.label();
        match self {
            ModelSpec::Ngram(cfg) => {
                let model = NgramLm::fit(cfg.clone(), train);
                Ok(Box::new(TrainedNgram { model, label }))
            }
            ModelSpec::Lda { config, estimator } => {
                let docs = hlm_lda::unit_weights(train);
                let model = fit_lda(config.clone(), *estimator, &docs)?;
                Ok(Box::new(TrainedLda { model, label }))
            }
            ModelSpec::Lstm {
                config,
                train: opts,
                seed,
            } => {
                let seqs: Vec<Vec<usize>> =
                    train.iter().filter(|s| !s.is_empty()).cloned().collect();
                let mut model = LstmLm::new(config.clone(), *seed);
                if opts.epochs > 0 {
                    Trainer::new(opts.clone()).fit(&mut model, &seqs, valid);
                }
                Ok(Box::new(TrainedLstm { model, label }))
            }
            ModelSpec::ChhExact { depth, vocab_size } => {
                let model = ExactChh::fit(*depth, *vocab_size, train);
                Ok(Box::new(TrainedChhExact { model, label }))
            }
            ModelSpec::ChhStreaming {
                depth,
                vocab_size,
                max_contexts,
                counters_per_context,
            } => {
                let mut model =
                    StreamingChh::new(*depth, *vocab_size, *max_contexts, *counters_per_context);
                for seq in train {
                    model.observe_sequence(seq);
                }
                Ok(Box::new(TrainedChhStreaming { model, label }))
            }
            ModelSpec::Apriori { config, vocab_size } => {
                let baskets: Vec<Vec<usize>> =
                    train.iter().filter(|b| !b.is_empty()).cloned().collect();
                let model = if baskets.is_empty() {
                    // Degenerate single-basket model: predictions are zeros
                    // rather than a panic, matching the core adapter.
                    AprioriModel::mine(*vocab_size, &[vec![0]], config)
                } else {
                    AprioriModel::mine(*vocab_size, &baskets, config)
                };
                Ok(Box::new(TrainedApriori { model, label }))
            }
            ModelSpec::Bpmf(_) => Err(EngineError::Unsupported {
                kind: ModelKind::Bpmf,
                operation: "training on acquisition sequences",
            }),
        }
    }
}

/// Trains an LDA model on weighted documents (binary or TF-IDF input) with
/// the requested estimator, returning the concrete [`LdaModel`] for
/// consumers that need topics, embeddings or fold-in θ directly.
///
/// # Errors
/// [`EngineError::InvalidSpec`] on zero topics, an empty vocabulary, or an
/// empty document collection.
pub fn fit_lda(
    config: LdaConfig,
    estimator: LdaEstimator,
    docs: &[WeightedDoc],
) -> Result<LdaModel, EngineError> {
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
    let _span = rec.span("engine.fit_lda");
    rec.add("engine.trains", 1);
    Ok(match estimator {
        LdaEstimator::Gibbs => GibbsTrainer::new(config).fit(docs),
        LdaEstimator::Vb => VbTrainer::new(config, VbOptions::default()).fit(docs),
    })
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

/// How a resilient training run checkpoints, resumes and guards itself.
/// Consumed by [`Engine::train_resilient`] / [`ModelSpec::fit_sequences_resilient`]
/// (the [`RunGuard`] inside is single-use). A default plan — no store, an
/// unlimited guard — makes those entry points behave exactly like the plain
/// `fit` paths.
#[derive(Default)]
pub struct TrainPlan {
    store: Option<CheckpointStore>,
    resume: bool,
    guard: RunGuard,
    collapse: CollapsePolicy,
    faults: FaultPlan,
    checkpoint_every: u64,
    sampler: Option<hlm_lda::SamplerChoice>,
}

impl TrainPlan {
    /// A plan with no checkpointing and an unlimited watchdog.
    pub fn new() -> Self {
        TrainPlan {
            checkpoint_every: 1,
            ..TrainPlan::default()
        }
    }

    /// Checkpoint every completed iteration into `store`.
    pub fn with_store(mut self, store: CheckpointStore) -> Self {
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

    /// Opt in to score-collapse detection at iteration boundaries.
    pub fn with_collapse_policy(mut self, policy: CollapsePolicy) -> Self {
        self.collapse = policy;
        self
    }

    /// Attach a deterministic fault plan (metric poisoning for tests).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Checkpoint only every `n` completed iterations (clamped to ≥ 1).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }

    /// Override the Gibbs token-sampler kernel (`Auto` picks by topic
    /// count). A fixed choice is part of the sampling schedule: changing it
    /// changes the RNG consumption pattern, so resumed runs must keep the
    /// choice their checkpoints were written under. Ignored by estimators
    /// without a Gibbs kernel (VB, online VB).
    pub fn with_sampler(mut self, sampler: hlm_lda::SamplerChoice) -> Self {
        self.sampler = Some(sampler);
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
        collapse,
        faults,
        checkpoint_every,
        sampler: _, // consumed by the LDA entry points before they get here
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
    .with_collapse_policy(collapse)
    .with_faults(faults)
    .with_checkpoint_every(checkpoint_every.max(1));

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

/// Like [`fit_lda`], but checkpointed, resumable and watchdog-guarded per
/// `plan`. On divergence the model rolls back to the last good checkpoint
/// (reported in [`ResilientFit::rolled_back`]) instead of being returned
/// poisoned.
///
/// # Errors
/// Spec errors as in [`fit_lda`]; [`EngineError::Resilience`] when the
/// watchdog trips (resumable — see [`EngineError::is_interruption`]) or
/// divergence hits with no good checkpoint to fall back to.
pub fn fit_lda_resilient(
    mut config: LdaConfig,
    estimator: LdaEstimator,
    docs: &[WeightedDoc],
    plan: TrainPlan,
) -> Result<ResilientFit<LdaModel>, EngineError> {
    if let Some(sampler) = plan.sampler {
        config.sampler = sampler;
    }
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
pub struct CorpusDocShards<'a, S: CorpusSource + ?Sized> {
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
/// Spec errors as in [`fit_lda`] (plus a config/corpus vocabulary-size
/// mismatch); resilience errors as in [`fit_lda_resilient`].
pub fn fit_lda_sharded_gibbs(
    mut config: LdaConfig,
    source: &dyn CorpusSource,
    work_dir: impl Into<std::path::PathBuf>,
    plan: TrainPlan,
) -> Result<ResilientFit<LdaModel>, EngineError> {
    if let Some(sampler) = plan.sampler {
        config.sampler = sampler;
    }
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

/// Checkpointed, resumable, watchdog-guarded BPMF fit. BPMF scores
/// `(company, product)` cells rather than histories, so it gets its own
/// entry point instead of riding [`ModelSpec::fit_sequences_resilient`].
///
/// # Errors
/// [`EngineError::InvalidSpec`] on zero factors or empty ratings;
/// resilience errors as in [`fit_lda_resilient`].
pub fn fit_bpmf_resilient(
    n_rows: usize,
    n_cols: usize,
    ratings: &[hlm_bpmf::Rating],
    cfg: &hlm_bpmf::BpmfConfig,
    clamp: Option<(f64, f64)>,
    plan: TrainPlan,
) -> Result<ResilientFit<hlm_bpmf::BpmfModel>, EngineError> {
    ModelSpec::Bpmf(cfg.clone()).validate()?;
    if ratings.is_empty() {
        return Err(EngineError::InvalidSpec {
            reason: "BPMF needs at least one observed rating".into(),
        });
    }
    run_resilient(
        hlm_bpmf::BPMF_CHECKPOINT_KIND,
        plan,
        |ctrl, resume| hlm_bpmf::fit_resumable(n_rows, n_cols, ratings, cfg, clamp, ctrl, resume),
        |good| hlm_bpmf::model_from_checkpoint(good, clamp),
    )
}

impl ModelSpec {
    /// Like [`ModelSpec::fit_sequences`], but checkpointed, resumable and
    /// watchdog-guarded per `plan` for the iterative families (LSTM, LDA).
    /// One-shot families (n-gram, CHH, Apriori) train instantly and consult
    /// only the plan's watchdog; BPMF is refused as in `fit_sequences`.
    ///
    /// # Errors
    /// As in [`ModelSpec::fit_sequences`], plus [`EngineError::Resilience`]
    /// for watchdog trips and unrecoverable divergence.
    pub fn fit_sequences_resilient(
        &self,
        train: &[Vec<usize>],
        valid: &[Vec<usize>],
        plan: TrainPlan,
    ) -> Result<ResilientFit<Box<dyn TrainedModel>>, EngineError> {
        self.validate()?;
        let label = self.label();
        match self {
            ModelSpec::Lda { config, estimator } => {
                let docs = hlm_lda::unit_weights(train);
                let fit = fit_lda_resilient(config.clone(), *estimator, &docs, plan)?;
                Ok(ResilientFit {
                    model: Box::new(TrainedLda {
                        model: fit.model,
                        label,
                    }),
                    resumed_from: fit.resumed_from,
                    checkpoints_written: fit.checkpoints_written,
                    rolled_back: fit.rolled_back,
                })
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
                    return Ok(ResilientFit {
                        model: Box::new(TrainedLstm { model: init, label }),
                        resumed_from: None,
                        checkpoints_written: 0,
                        rolled_back: None,
                    });
                }
                let trainer = Trainer::new(opts.clone());
                let fit = run_resilient(
                    hlm_lstm::LSTM_CHECKPOINT_KIND,
                    plan,
                    |ctrl, resume| {
                        let mut model = init;
                        trainer.fit_resumable(&mut model, &seqs, valid, ctrl, resume)?;
                        Ok(model)
                    },
                    |good| trainer.model_from_checkpoint(good).map(|(m, _)| m),
                )?;
                Ok(ResilientFit {
                    model: Box::new(TrainedLstm {
                        model: fit.model,
                        label,
                    }),
                    resumed_from: fit.resumed_from,
                    checkpoints_written: fit.checkpoints_written,
                    rolled_back: fit.rolled_back,
                })
            }
            // One-shot families: a single watchdog check, then the plain fit.
            _ => {
                plan.guard.check(0)?;
                Ok(ResilientFit {
                    model: self.fit_sequences(train, valid)?,
                    resumed_from: None,
                    checkpoints_written: 0,
                    rolled_back: None,
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Degraded-mode serving
// ---------------------------------------------------------------------------

/// How a [`ResilientModel`] decides a primary answer is unusable.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Per-request latency budget; a primary answer that took longer is
    /// discarded in favour of the fallback. `None` disables the deadline.
    pub request_budget_millis: Option<u64>,
    /// Score-collapse policy: [`CollapsePolicy::Detect`] (the default here)
    /// also treats an all-constant score vector as a primary failure.
    pub collapse: CollapsePolicy,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            request_budget_millis: None,
            collapse: CollapsePolicy::Detect,
        }
    }
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
        if self.opts.collapse == CollapsePolicy::Detect && scores.len() > 1 {
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
/// across worker threads ([`Engine::train_many`]) and shared by a
/// multi-threaded server; every family's model is plain owned data, so the
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

struct TrainedNgram {
    model: NgramLm,
    label: String,
}

impl TrainedModel for TrainedNgram {
    fn kind(&self) -> ModelKind {
        ModelKind::Ngram
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
        Ok(self.model.predict_next(history))
    }

    fn perplexity(&self, test: &[Vec<usize>]) -> Result<f64, EngineError> {
        Ok(self.model.perplexity(test))
    }

    fn as_any(&self) -> &dyn Any {
        &self.model
    }
}

struct TrainedLda {
    model: LdaModel,
    label: String,
}

impl TrainedModel for TrainedLda {
    fn kind(&self) -> ModelKind {
        ModelKind::Lda
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
        Ok(masked_lda_scores(&self.model, history))
    }

    fn perplexity(&self, test: &[Vec<usize>]) -> Result<f64, EngineError> {
        let docs = hlm_lda::unit_weights(test);
        Ok(hlm_lda::document_completion_perplexity(&self.model, &docs))
    }

    fn as_any(&self) -> &dyn Any {
        &self.model
    }
}

/// Wraps an already-materialized [`LdaModel`] as a [`TrainedModel`] — the
/// entry point for serving a model recovered from a checkpoint
/// (`GibbsTrainer::model_from_checkpoint`) rather than freshly trained:
/// hot-swap paths load the snapshot, wrap it here, and chain it into a
/// [`ResilientModel`] via [`Engine::resilient_over`].
pub fn lda_trained(model: LdaModel) -> Box<dyn TrainedModel> {
    let label = format!("LDA{}", model.n_topics());
    Box::new(TrainedLda { model, label })
}

struct TrainedLstm {
    model: LstmLm,
    label: String,
}

impl TrainedModel for TrainedLstm {
    fn kind(&self) -> ModelKind {
        ModelKind::Lstm
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
        Ok(self.model.predict_next(history))
    }

    fn perplexity(&self, test: &[Vec<usize>]) -> Result<f64, EngineError> {
        Ok(self.model.perplexity(test))
    }

    fn as_any(&self) -> &dyn Any {
        &self.model
    }
}

struct TrainedChhExact {
    model: ExactChh,
    label: String,
}

impl TrainedModel for TrainedChhExact {
    fn kind(&self) -> ModelKind {
        ModelKind::ChhExact
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
        Ok(self.model.predict_next(history))
    }

    fn perplexity(&self, _test: &[Vec<usize>]) -> Result<f64, EngineError> {
        Err(EngineError::Unsupported {
            kind: ModelKind::ChhExact,
            operation: "perplexity",
        })
    }

    fn as_any(&self) -> &dyn Any {
        &self.model
    }
}

struct TrainedChhStreaming {
    model: StreamingChh,
    label: String,
}

impl TrainedModel for TrainedChhStreaming {
    fn kind(&self) -> ModelKind {
        ModelKind::ChhStreaming
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
        Ok(self.model.predict_next(history))
    }

    fn perplexity(&self, _test: &[Vec<usize>]) -> Result<f64, EngineError> {
        Err(EngineError::Unsupported {
            kind: ModelKind::ChhStreaming,
            operation: "perplexity",
        })
    }

    fn as_any(&self) -> &dyn Any {
        &self.model
    }
}

struct TrainedApriori {
    model: AprioriModel,
    label: String,
}

impl TrainedModel for TrainedApriori {
    fn kind(&self) -> ModelKind {
        ModelKind::Apriori
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
        Ok(self.model.predict(history))
    }

    fn perplexity(&self, _test: &[Vec<usize>]) -> Result<f64, EngineError> {
        Err(EngineError::Unsupported {
            kind: ModelKind::Apriori,
            operation: "perplexity",
        })
    }

    fn as_any(&self) -> &dyn Any {
        &self.model
    }
}

// ---------------------------------------------------------------------------
// Streaming CHH factory (core only ships the exact one)
// ---------------------------------------------------------------------------

/// Sliding-window factory for streaming Conditional Heavy Hitters: per
/// cutoff, a fresh sketch observes every training sequence before the
/// window.
#[derive(Debug, Clone)]
pub struct StreamingChhRecommenderFactory {
    /// Context depth.
    pub depth: usize,
    /// Maximum tracked contexts.
    pub max_contexts: usize,
    /// SpaceSaving counters per context.
    pub counters_per_context: usize,
}

struct StreamingChhRecommender {
    model: StreamingChh,
}

impl Recommender for StreamingChhRecommender {
    fn scores(&self, history: &[usize]) -> Vec<f64> {
        self.model.predict_next(history)
    }

    fn name(&self) -> &str {
        "CHH-streaming"
    }
}

impl RecommenderFactory for StreamingChhRecommenderFactory {
    fn train(
        &self,
        corpus: &Corpus,
        train_ids: &[CompanyId],
        cutoff: Month,
    ) -> Box<dyn Recommender> {
        let mut model = StreamingChh::new(
            self.depth,
            corpus.vocab().len(),
            self.max_contexts,
            self.counters_per_context,
        );
        for &id in train_ids {
            let seq: Vec<usize> = corpus
                .company(id)
                .sequence_before(cutoff)
                .into_iter()
                .map(|p| p.index())
                .collect();
            model.observe_sequence(&seq);
        }
        Box::new(StreamingChhRecommender { model })
    }

    fn name(&self) -> &str {
        "CHH-streaming"
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
    /// it; every `train*` call invalidates it.
    pub fn serving_cache(&self) -> &Arc<hlm_core::ServingCache> {
        &self.serving_cache
    }

    /// Trains a model on the given companies' acquisition histories strictly
    /// before `cutoff`.
    ///
    /// # Errors
    /// Spec validation and family-support errors as in
    /// [`ModelSpec::fit_sequences`].
    pub fn train(
        &self,
        spec: &ModelSpec,
        ids: &[CompanyId],
        cutoff: Month,
    ) -> Result<Box<dyn TrainedModel>, EngineError> {
        let rec = hlm_obs::global();
        let _span = rec.span("engine.train");
        rec.add("engine.trains", 1);
        self.serving_cache.invalidate();
        spec.fit_sequences(&self.sequences_before(ids, cutoff), &[])
    }

    /// The given companies' acquisition sequences strictly before `cutoff`.
    fn sequences_before(&self, ids: &[CompanyId], cutoff: Month) -> Vec<Vec<usize>> {
        ids.iter()
            .map(|&id| {
                self.corpus
                    .company(id)
                    .sequence_before(cutoff)
                    .into_iter()
                    .map(|p| p.index())
                    .collect()
            })
            .collect()
    }

    /// Trains several model specs concurrently on the *same* histories —
    /// one worker-pool task per spec, results in spec order. Each family
    /// seeds its own RNG from its config, so the outcome is bit-identical
    /// to training the specs one after another (and independent of the
    /// thread count); only the wall-clock changes. This is the batch path
    /// behind the ablation tables, where half a dozen families train on one
    /// split.
    ///
    /// Per-spec failures are returned in place rather than aborting the
    /// batch: one invalid spec must not cost the others their training run.
    pub fn train_many(
        &self,
        specs: &[ModelSpec],
        ids: &[CompanyId],
        cutoff: Month,
    ) -> Vec<Result<Box<dyn TrainedModel>, EngineError>> {
        let seqs = self.sequences_before(ids, cutoff);
        self.serving_cache.invalidate();
        let pool = hlm_par::Pool::global();
        pool.run(specs.len(), |i| specs[i].fit_sequences(&seqs, &[]))
    }

    /// Like [`Engine::train`], but checkpointed, resumable and
    /// watchdog-guarded per `plan` (see [`ModelSpec::fit_sequences_resilient`]).
    ///
    /// # Errors
    /// As in [`ModelSpec::fit_sequences_resilient`].
    pub fn train_resilient(
        &self,
        spec: &ModelSpec,
        ids: &[CompanyId],
        cutoff: Month,
        plan: TrainPlan,
    ) -> Result<ResilientFit<Box<dyn TrainedModel>>, EngineError> {
        let rec = hlm_obs::global();
        let _span = rec.span("engine.train_resilient");
        rec.add("engine.trains", 1);
        self.serving_cache.invalidate();
        spec.fit_sequences_resilient(&self.sequences_before(ids, cutoff), &[], plan)
    }

    /// Trains the primary model *and* a unigram baseline on the same
    /// histories, chained into a [`ResilientModel`] so serving degrades
    /// gracefully instead of failing.
    ///
    /// # Errors
    /// As in [`Engine::train`].
    pub fn serve_resilient(
        &self,
        spec: &ModelSpec,
        ids: &[CompanyId],
        cutoff: Month,
        opts: ServeOptions,
    ) -> Result<ResilientModel, EngineError> {
        let rec = hlm_obs::global();
        let _span = rec.span("engine.serve_resilient");
        rec.add("engine.trains", 1);
        self.serving_cache.invalidate();
        let seqs = self.sequences_before(ids, cutoff);
        let primary = spec.fit_sequences(&seqs, &[])?;
        let fallback = NgramLm::fit(NgramConfig::unigram(self.corpus.vocab().len()), &seqs);
        Ok(ResilientModel::new(primary, fallback, opts))
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
        let seqs = self.sequences_before(&ids, Month(i32::MAX));
        let fallback = NgramLm::fit(NgramConfig::unigram(self.corpus.vocab().len()), &seqs);
        ResilientModel::new(primary, fallback, opts)
    }

    /// Trains a model on every company's full history.
    ///
    /// # Errors
    /// As in [`Engine::train`].
    pub fn train_full(&self, spec: &ModelSpec) -> Result<Box<dyn TrainedModel>, EngineError> {
        let ids: Vec<CompanyId> = self.corpus.ids().collect();
        self.train(spec, &ids, Month(i32::MAX))
    }

    /// Opens the sales application over this corpus with the given company
    /// representations, sharing the corpus `Arc` (no data copy) and the
    /// engine's [`ServingCache`] — repeat queries against the same model
    /// generation replay memoized answers; any later `train*` call
    /// invalidates them.
    ///
    /// # Errors
    /// [`EngineError::Core`] on a row/company mismatch.
    pub fn sales_app(
        &self,
        representations: impl Into<Arc<Matrix>>,
        metric: DistanceMetric,
    ) -> Result<SalesApplication, EngineError> {
        self.sales_app_with_precision(representations, metric, hlm_core::StorePrecision::F64)
    }

    /// [`Engine::sales_app`] with an explicit scoring precision for the
    /// serving read path: `F64` is the exact default; `F32` serves from the
    /// reduced-precision store (faster scans, recall-gated rather than
    /// bit-identical — DESIGN.md §3.10).
    ///
    /// # Errors
    /// [`EngineError::Core`] on a row/company mismatch.
    pub fn sales_app_with_precision(
        &self,
        representations: impl Into<Arc<Matrix>>,
        metric: DistanceMetric,
        precision: hlm_core::StorePrecision,
    ) -> Result<SalesApplication, EngineError> {
        Ok(SalesApplication::new_with_precision(
            self.corpus_arc(),
            representations,
            metric,
            precision,
        )?
        .with_cache(Arc::clone(&self.serving_cache)))
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
            let model = spec.fit_sequences(&train, &[]).unwrap();
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
            let model = spec.fit_sequences(&train, &[]).unwrap();
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
        let model = spec.fit_sequences(&tiny_seqs(), &[]).unwrap();
        let chh = model
            .as_any()
            .downcast_ref::<ExactChh>()
            .expect("concrete ExactChh");
        assert!(chh.context_count() > 0);
        // Wrong type: downcast politely fails.
        assert!(model.as_any().downcast_ref::<NgramLm>().is_none());
    }

    #[test]
    fn invalid_specs_are_rejected_before_training() {
        let zero_topics = ModelSpec::Lda {
            config: LdaConfig {
                n_topics: 0,
                vocab_size: 5,
                ..Default::default()
            },
            estimator: LdaEstimator::Gibbs,
        };
        assert!(matches!(
            zero_topics.fit_sequences(&tiny_seqs(), &[]).err().unwrap(),
            EngineError::InvalidSpec { .. }
        ));
        let zero_budget = ModelSpec::ChhStreaming {
            depth: 2,
            vocab_size: 5,
            max_contexts: 0,
            counters_per_context: 4,
        };
        assert!(matches!(
            zero_budget.fit_sequences(&tiny_seqs(), &[]).err().unwrap(),
            EngineError::InvalidSpec { .. }
        ));
        let zero_order = ModelSpec::Ngram(NgramConfig {
            order: 0,
            ..NgramConfig::bigram(5)
        });
        assert!(matches!(
            zero_order.factory().err().unwrap(),
            EngineError::InvalidSpec { .. }
        ));
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
            let model = fit_lda(cfg.clone(), est, &docs).unwrap();
            assert_eq!(model.n_topics(), 2);
        }
        let err = fit_lda(cfg, LdaEstimator::Gibbs, &[]).unwrap_err();
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
        let model = fit_lda(cfg, LdaEstimator::Gibbs, &docs).unwrap();
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
    fn train_many_matches_serial_training_and_keeps_per_spec_errors_in_place() {
        let engine = Engine::new(corpus());
        let ids: Vec<CompanyId> = engine.corpus().ids().collect();
        let vocab = engine.corpus().vocab().len();
        let cutoff = Month(i32::MAX);
        let specs = vec![
            ModelSpec::Ngram(NgramConfig::bigram(vocab)),
            // Invalid on purpose: the batch must carry this error in place
            // without costing the neighbouring specs their training runs.
            ModelSpec::Lda {
                config: LdaConfig {
                    n_topics: 0,
                    vocab_size: vocab,
                    ..Default::default()
                },
                estimator: LdaEstimator::Gibbs,
            },
            ModelSpec::Lda {
                config: LdaConfig {
                    n_topics: 2,
                    vocab_size: vocab,
                    n_iters: 20,
                    burn_in: 10,
                    ..Default::default()
                },
                estimator: LdaEstimator::Gibbs,
            },
        ];
        let batch = engine.train_many(&specs, &ids, cutoff);
        assert_eq!(batch.len(), specs.len());
        match &batch[1] {
            Err(EngineError::InvalidSpec { .. }) => {}
            Err(other) => panic!("expected InvalidSpec, got {other}"),
            Ok(_) => panic!("invalid spec must not train"),
        }
        let test = vec![vec![0, 1, 2], vec![2, 3]];
        for i in [0, 2] {
            let parallel = batch[i].as_ref().unwrap();
            let serial = engine.train(&specs[i], &ids, cutoff).unwrap();
            assert_eq!(parallel.label(), serial.label());
            let (p, s) = (
                parallel.perplexity(&test).unwrap(),
                serial.perplexity(&test).unwrap(),
            );
            assert!((p - s).abs() < 1e-12, "spec {i}: {p} != {s}");
        }
    }

    #[test]
    fn train_resilient_kill_and_resume_matches_plain_training() {
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
        let full = engine.train(&spec, &ids, cutoff).unwrap();

        // Kill at sweep 30 (mid phi accumulation), resume from the store.
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let plan = TrainPlan::new()
            .with_store(store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(30));
        let err = engine
            .train_resilient(&spec, &ids, cutoff, plan)
            .unwrap_err();
        assert!(err.is_interruption(), "{err}");
        // The store was consumed by the plan; rebuild over the same MemIo is
        // not possible, so run the kill/resume pair against a disk store.
        let dir = std::env::temp_dir().join(format!("hlm-engine-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = TrainPlan::new()
            .on_disk(&dir)
            .unwrap()
            .with_guard(RunGuard::unlimited().abort_at_iteration(30));
        let err = engine
            .train_resilient(&spec, &ids, cutoff, plan)
            .unwrap_err();
        assert!(err.is_interruption());

        let plan = TrainPlan::new().on_disk(&dir).unwrap().resume(true);
        let fit = engine.train_resilient(&spec, &ids, cutoff, plan).unwrap();
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
    fn train_resilient_rolls_back_to_last_good_checkpoint_on_divergence() {
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
        let fit = engine
            .train_resilient(&spec, &ids, Month(i32::MAX), plan)
            .unwrap();
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
            .train_resilient(&spec, &ids, Month(i32::MAX), plan)
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
            .fit_sequences(&train, &[])
            .unwrap();
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
        .fit_sequences(&train, &[])
        .unwrap();
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
                .fit_sequences(&train, &[])
                .unwrap(),
            clock: clock.clone(),
            cost_millis: 50,
        };
        let server = ResilientModel::new(
            Box::new(primary),
            fallback,
            ServeOptions {
                request_budget_millis: Some(20),
                collapse: CollapsePolicy::Detect,
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
                .fit_sequences(&train, &[])
                .unwrap(),
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

    #[test]
    fn one_shot_families_consult_the_watchdog() {
        let spec = ModelSpec::Ngram(NgramConfig::bigram(5));
        let plan = TrainPlan::new().with_guard(RunGuard::unlimited().abort_at_iteration(0));
        let err = spec
            .fit_sequences_resilient(&tiny_seqs(), &[], plan)
            .unwrap_err();
        assert!(err.is_interruption());
        let fit = spec
            .fit_sequences_resilient(&tiny_seqs(), &[], TrainPlan::new())
            .unwrap();
        assert_eq!(fit.checkpoints_written, 0);
        assert!(fit.model.recommend(&[0]).is_ok());
    }

    #[test]
    fn bpmf_trains_resiliently_through_the_engine() {
        use hlm_bpmf::{BpmfConfig, Rating};
        use hlm_resilience::{CheckpointStore, MemIo};

        let ratings: Vec<Rating> = (0..8)
            .flat_map(|r| {
                (0..4).map(move |c| Rating {
                    row: r,
                    col: c,
                    value: ((r + c) % 3) as f64,
                })
            })
            .collect();
        let cfg = BpmfConfig {
            n_factors: 2,
            n_iters: 30,
            burn_in: 10,
            seed: 5,
            ..Default::default()
        };
        let full = fit_bpmf_resilient(8, 4, &ratings, &cfg, None, TrainPlan::new())
            .unwrap()
            .model;

        let dir = std::env::temp_dir().join(format!("hlm-engine-bpmf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = TrainPlan::new()
            .on_disk(&dir)
            .unwrap()
            .with_guard(RunGuard::unlimited().abort_at_iteration(17));
        let err = fit_bpmf_resilient(8, 4, &ratings, &cfg, None, plan).unwrap_err();
        assert!(err.is_interruption());
        let plan = TrainPlan::new().on_disk(&dir).unwrap().resume(true);
        let fit = fit_bpmf_resilient(8, 4, &ratings, &cfg, None, plan).unwrap();
        assert_eq!(fit.resumed_from, Some(17));
        for r in 0..8 {
            assert_eq!(fit.model.predict_row(r), full.predict_row(r));
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Rollback needs at least one post-burn-in sample.
        let plan = TrainPlan::new()
            .with_store(CheckpointStore::new(Box::new(MemIo::new())))
            .with_faults(hlm_resilience::FaultPlan::none().with_nan_at_iteration(25));
        let fit = fit_bpmf_resilient(8, 4, &ratings, &cfg, None, plan).unwrap();
        assert!(fit.rolled_back.is_some());
        assert!(fit.model.all_scores().iter().all(|s| s.is_finite()));
    }

    #[test]
    fn engine_trains_and_opens_the_sales_app_with_shared_corpus() {
        let engine = Engine::new(corpus());
        let model = engine
            .train_full(&ModelSpec::Ngram(NgramConfig::bigram(
                engine.corpus().vocab().len(),
            )))
            .unwrap();
        assert_eq!(
            model.recommend(&[0]).unwrap().len(),
            engine.corpus().vocab().len()
        );

        // The sales app shares the corpus allocation, not a copy.
        let ids: Vec<CompanyId> = engine.corpus().ids().collect();
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
        let in_memory = fit_lda(cfg.clone(), LdaEstimator::Gibbs, &docs).unwrap();

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
