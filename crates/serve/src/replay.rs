//! Live event-stream replay with drift-triggered incremental retraining.
//!
//! The paper's Section-6 deployment story, driven end to end: an event
//! stream ([`hlm_datagen::generate_events`]) unfolds month by month against
//! a *running* [`Server`](crate::Server). Each month the driver
//!
//! 1. **evaluates** the serving model's hit rate at `top_n` on the month's
//!    incoming acquisitions (before revealing them — a true forward test),
//! 2. **applies** the month's events to the replayed market state,
//! 3. runs the **drift detector** over a trailing reference/recent window
//!    pair anchored at the month the serving model was last trained,
//! 4. and per [`RetrainPolicy`] either does nothing, **folds in** vocabulary
//!    growth ([`hlm_engine::fold_in_lda`] — cheap, no full refit), or
//!    **retrains** from scratch with a checkpointed resumable fit
//!    ([`hlm_engine::fit_lda_resilient`]).
//!
//! Updated models reach the serving path through the production machinery,
//! not a side door: the driver stages a candidate [`ModelBundle`], and the
//! server's [`BundleLoader`] hands it to `POST /admin/swap`, which
//! canary-probes and atomically installs it (or rolls back).
//!
//! # Determinism and resume
//!
//! A replay is a pure function of its [`ReplayConfig`]: the stream is
//! seeded, fits are bit-identical at any thread count, fold-in is serial,
//! and evaluation is serial. There is deliberately **no** separate replay
//! state file — a killed replay resumes by re-driving the deterministic
//! stream with `resume = true`; completed fits fast-forward instantly from
//! their final checkpoints (each fit checkpoints into its own
//! `fit-NNN/` subdirectory), the interrupted fit continues from its last
//! good sweep, and the resumed run's models, precision rows, and swap
//! sequence are bit-identical to an uninterrupted run's.
//!
//! Counters: `replay.events`, `replay.drift_checks` (valid reports only),
//! `replay.retrains`, `replay.swaps`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hlm_core::DistanceMetric;
use hlm_corpus::{CompanyId, Month, TimeWindow};
use hlm_datagen::{generate_events, EventStream, EventStreamConfig, StreamEvent, StreamState};
use hlm_engine::{
    fit_lda_resilient, fold_in_lda, Engine, EngineError, LdaEstimator, RunGuard, ServeOptions,
    TrainPlan,
};
use hlm_lda::{FoldInOptions, LdaConfig, LdaModel};
use hlm_obs::names;

use crate::{bundle_from_model, BundleLoader, ModelBundle, Server, ServerConfig};

/// When the replay loop retrains the serving model from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainPolicy {
    /// Serve the initial model forever (the baseline the drift-triggered
    /// policy must beat on late-window precision).
    Never,
    /// Retrain every `n` months regardless of what the detector says.
    Periodic(u32),
    /// Retrain when the drift detector reports a significant shift between
    /// the model's training era and the trailing window.
    DriftTriggered,
}

impl FromStr for RetrainPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "never" => Ok(RetrainPolicy::Never),
            "drift" => Ok(RetrainPolicy::DriftTriggered),
            other => {
                if let Some(n) = other.strip_prefix("periodic:") {
                    let n: u32 = n
                        .parse()
                        .map_err(|_| format!("bad periodic interval {n:?}"))?;
                    if n == 0 {
                        return Err("periodic interval must be at least 1 month".into());
                    }
                    Ok(RetrainPolicy::Periodic(n))
                } else {
                    Err(format!(
                        "unknown policy {other:?} (expected never, periodic:N, or drift)"
                    ))
                }
            }
        }
    }
}

/// Deterministic kill switch for the resume drill: abort fit number
/// `fit_index` (0 = the initial fit, 1 = the first retrain, …) once it
/// reaches `iteration`. The aborted replay exits with an interruption
/// error; rerunning with `resume = true` and no abort continues the fit
/// from its checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitAbort {
    /// Which fit to kill (in training order across the whole replay).
    pub fit_index: usize,
    /// Sweep at which the watchdog pulls the plug.
    pub iteration: u64,
}

/// Everything one replay run needs.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The event stream to replay (generated internally, deterministically).
    pub stream: EventStreamConfig,
    /// How many trailing months of the stream are replayed live; everything
    /// earlier is warmup history the initial model trains on.
    pub serve_months: u32,
    /// Retraining policy.
    pub policy: RetrainPolicy,
    /// Drift-test significance level.
    pub significance: f64,
    /// Reference window length (months, ending at the serving model's
    /// training month).
    pub reference_months: u32,
    /// Recent window length (months, trailing the replay cursor).
    pub recent_months: u32,
    /// LDA settings for the initial fit and retrains. `vocab_size` is
    /// overridden with the market's current vocabulary at each fit; `seed`
    /// is decorrelated per fit.
    pub lda: LdaConfig,
    /// Gibbs sweeps per vocabulary fold-in.
    pub fold_sweeps: usize,
    /// Pseudo-count mass of the base model during fold-in; `None` uses the
    /// current corpus's total token weight (recommended — it lets new
    /// products compete honestly for probability mass).
    pub fold_prior_tokens: Option<f64>,
    /// Recommendations per company when scoring hit rate.
    pub top_n: usize,
    /// Checkpoint root; each fit uses `fit-NNN/` under it. `None` disables
    /// checkpointing (and therefore resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume fits from their latest good checkpoints.
    pub resume: bool,
    /// Deterministic mid-fit abort (resume drill).
    pub abort: Option<FitAbort>,
    /// The server the replay swaps models into (port 0 by default).
    pub server: ServerConfig,
}

impl ReplayConfig {
    /// Defaults tuned for the repo's test-scale streams: replay the last
    /// five years, 12/6-month drift windows at 5%, top-5 scoring.
    pub fn new(stream: EventStreamConfig) -> Self {
        ReplayConfig {
            stream,
            serve_months: 60,
            policy: RetrainPolicy::DriftTriggered,
            significance: 0.05,
            reference_months: 12,
            recent_months: 6,
            lda: LdaConfig::default(),
            fold_sweeps: 20,
            fold_prior_tokens: None,
            top_n: 5,
            checkpoint_dir: None,
            resume: false,
            abort: None,
            server: ServerConfig::default(),
        }
    }
}

/// What the driver did in one month.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayAction {
    /// Kept serving the current model.
    Keep,
    /// Folded vocabulary growth into the model and hot-swapped.
    FoldIn,
    /// Retrained from scratch and hot-swapped.
    Retrain,
}

impl ReplayAction {
    fn as_str(self) -> &'static str {
        match self {
            ReplayAction::Keep => "keep",
            ReplayAction::FoldIn => "fold_in",
            ReplayAction::Retrain => "retrain",
        }
    }
}

/// One month of the precision-over-time curve.
#[derive(Debug, Clone)]
pub struct ReplayRow {
    /// The replayed month.
    pub month: Month,
    /// Events applied this month.
    pub events: u64,
    /// Acquisitions the serving model was scored on (company known, product
    /// in the model's vocabulary, non-empty history).
    pub evaluated: u64,
    /// Scored acquisitions whose product appeared in the model's top-`n`
    /// unowned recommendations.
    pub hits: u64,
    /// Drift-test p-value (NaN when the windows had insufficient data).
    pub drift_p: f64,
    /// Whether a valid drift test rejected homogeneity.
    pub drifted: bool,
    /// What the driver did after seeing this month.
    pub action: ReplayAction,
    /// Serving-model version after this month (0 = initial; +1 per
    /// successful swap).
    pub version: u64,
}

impl ReplayRow {
    /// Hit rate at `top_n` (NaN when nothing was evaluable).
    pub fn hit_rate(&self) -> f64 {
        if self.evaluated == 0 {
            f64::NAN
        } else {
            self.hits as f64 / self.evaluated as f64
        }
    }
}

/// The replay's outcome: the curve plus the counter totals.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// One row per replayed month.
    pub rows: Vec<ReplayRow>,
    /// Total events applied.
    pub events: u64,
    /// Valid drift checks run.
    pub drift_checks: u64,
    /// Full retrains completed.
    pub retrains: u64,
    /// Vocabulary fold-ins performed.
    pub fold_ins: u64,
    /// Successful hot swaps (`POST /admin/swap` answered 200).
    pub swaps: u64,
    /// Final market vocabulary size.
    pub vocab_len: usize,
    /// Companies that arrived by the end of the stream.
    pub companies: usize,
}

impl ReplayOutcome {
    /// The precision-over-time curve as CSV (EXPERIMENTS.md artifact).
    pub fn csv(&self) -> String {
        let mut out =
            String::from("month,events,evaluated,hits,hit_rate,drift_p,drifted,action,version\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                r.month,
                r.events,
                r.evaluated,
                r.hits,
                r.hit_rate(),
                r.drift_p,
                r.drifted,
                r.action.as_str(),
                r.version
            ));
        }
        out
    }

    /// Mean hit rate over the last `months` evaluable rows — the
    /// late-window number the drift-triggered policy must win on.
    pub fn late_hit_rate(&self, months: usize) -> f64 {
        let tail: Vec<&ReplayRow> = self
            .rows
            .iter()
            .rev()
            .filter(|r| r.evaluated > 0)
            .take(months)
            .collect();
        if tail.is_empty() {
            return f64::NAN;
        }
        let hits: u64 = tail.iter().map(|r| r.hits).sum();
        let evaluated: u64 = tail.iter().map(|r| r.evaluated).sum();
        hits as f64 / evaluated as f64
    }
}

/// Generates the configured stream and replays it. See [`replay_stream`].
///
/// # Errors
/// As [`replay_stream`].
pub fn replay(cfg: &ReplayConfig) -> Result<ReplayOutcome, EngineError> {
    let stream = generate_events(&cfg.stream);
    replay_stream(cfg, &stream)
}

/// Replays an already-generated stream against a live server.
///
/// # Errors
/// [`EngineError::InvalidSpec`] on a degenerate configuration (no warmup
/// data, bad windows) or a serving-stack failure; a resumable
/// [`EngineError::Resilience`] interruption when [`ReplayConfig::abort`]
/// (or a watchdog) kills a fit mid-run.
pub fn replay_stream(
    cfg: &ReplayConfig,
    stream: &EventStream,
) -> Result<ReplayOutcome, EngineError> {
    if cfg.serve_months == 0 {
        return Err(invalid("replay needs at least one live month"));
    }
    if cfg.top_n == 0 {
        return Err(invalid("top_n must be at least 1"));
    }
    if cfg.reference_months == 0 || cfg.recent_months == 0 {
        return Err(invalid("drift windows need at least one month each"));
    }
    let serve_start = {
        let s = stream.end.plus_months(-(cfg.serve_months as i32));
        if s <= stream.start {
            return Err(invalid(
                "serve_months swallows the whole stream: nothing left for warmup",
            ));
        }
        s
    };

    // Warmup: apply history, train the initial model on it.
    let mut state = StreamState::new(stream.base_vocab.clone());
    let mut idx = 0;
    while idx < stream.events.len() && stream.events[idx].month() < serve_start {
        state.apply(&stream.events[idx]);
        idx += 1;
    }
    if state.company_count() == 0 {
        return Err(invalid("warmup period contains no companies"));
    }
    let mut fit_index = 0usize;
    let mut model = run_fit(cfg, &state, fit_index)?;
    fit_index += 1;
    let mut model_month = serve_start;
    let mut version = 0u64;

    // The serving stack: candidate bundles are staged here and installed
    // through the server's own swap endpoint.
    let staged: Arc<Mutex<Option<ModelBundle>>> = Arc::new(Mutex::new(None));
    let loader: BundleLoader = {
        let staged = Arc::clone(&staged);
        Box::new(move || {
            staged
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .ok_or_else(|| "no staged bundle".to_string())
        })
    };
    let engine = Arc::new(Engine::new(state.corpus()));
    let bundle = bundle_from_model(
        &engine,
        model.clone(),
        0,
        DistanceMetric::Cosine,
        ServeOptions::default(),
    )
    .map_err(|e| invalid(format!("initial bundle: {e}")))?;
    let server = Server::bind(cfg.server.clone(), engine, bundle, Some(loader))
        .map_err(|e| invalid(format!("bind: {e}")))?;
    let addr = server.local_addr();
    let handle = server.start().map_err(|e| invalid(format!("start: {e}")))?;

    let rec = hlm_obs::global();
    let mut outcome = ReplayOutcome {
        rows: Vec::new(),
        events: 0,
        drift_checks: 0,
        retrains: 0,
        fold_ins: 0,
        swaps: 0,
        vocab_len: 0,
        companies: 0,
    };

    let mut month = serve_start;
    let result = (|| -> Result<(), EngineError> {
        while month < stream.end {
            let next = month.plus_months(1);
            let mut j = idx;
            while j < stream.events.len() && stream.events[j].month() == month {
                j += 1;
            }
            let month_events = &stream.events[idx..j];

            // 1. Forward test: score this month's acquisitions before the
            // model can see them.
            let (evaluated, hits) = evaluate_month(&model, &state, month_events, cfg.top_n);

            // 2. Reveal the month.
            for ev in month_events {
                state.apply(ev);
            }
            idx = j;
            outcome.events += month_events.len() as u64;
            rec.add(names::REPLAY_EVENTS, month_events.len() as u64);

            // 3. Drift check: "has the market moved since this model was
            // trained?" — reference ends at the model's training month,
            // recent trails the cursor.
            let corpus = state.corpus();
            let reference = TimeWindow {
                start: model_month.plus_months(-(cfg.reference_months as i32)),
                end: model_month,
            };
            let recent = TimeWindow {
                start: next.plus_months(-(cfg.recent_months as i32)),
                end: next,
            };
            let report =
                hlm_eval::drift::detect_drift(&corpus, reference, recent, cfg.significance);
            let valid = report.is_valid();
            if valid {
                outcome.drift_checks += 1;
                rec.add(names::REPLAY_DRIFT_CHECKS, 1);
            }
            let drifted = valid && report.drifted;

            // 4. Act.
            let retrain_due = match cfg.policy {
                RetrainPolicy::Never => false,
                RetrainPolicy::Periodic(n) => next.months_since(model_month) >= n as i32,
                RetrainPolicy::DriftTriggered => drifted,
            };
            let vocab_grew = state.vocab().len() > model.vocab_size();
            let action = if retrain_due {
                ReplayAction::Retrain
            } else if vocab_grew {
                ReplayAction::FoldIn
            } else {
                ReplayAction::Keep
            };
            match action {
                ReplayAction::Retrain => {
                    model = run_fit(cfg, &state, fit_index)?;
                    fit_index += 1;
                    model_month = next;
                    outcome.retrains += 1;
                    rec.add(names::REPLAY_RETRAINS, 1);
                    swap_in(&staged, addr, &state, &model, fit_index as u64)?;
                    outcome.swaps += 1;
                    rec.add(names::REPLAY_SWAPS, 1);
                    version += 1;
                }
                ReplayAction::FoldIn => {
                    let docs = fold_in_docs(&state, model.vocab_size());
                    let opts = FoldInOptions {
                        n_sweeps: cfg.fold_sweeps,
                        prior_tokens: cfg
                            .fold_prior_tokens
                            .unwrap_or_else(|| corpus_token_mass(&state)),
                        // Keyed by the month so every fold draws a distinct,
                        // schedule-independent stream.
                        seed: cfg.lda.seed ^ (next.0 as i64 as u64),
                    };
                    model = fold_in_lda(&model, &docs, state.vocab().len(), &opts)?;
                    outcome.fold_ins += 1;
                    swap_in(&staged, addr, &state, &model, fit_index as u64)?;
                    outcome.swaps += 1;
                    rec.add(names::REPLAY_SWAPS, 1);
                    version += 1;
                }
                ReplayAction::Keep => {}
            }

            outcome.rows.push(ReplayRow {
                month,
                events: month_events.len() as u64,
                evaluated,
                hits,
                drift_p: report.p_value,
                drifted,
                action,
                version,
            });
            month = next;
        }
        Ok(())
    })();

    handle.shutdown();
    result?;
    outcome.vocab_len = state.vocab().len();
    outcome.companies = state.company_count();
    Ok(outcome)
}

fn invalid(reason: impl Into<String>) -> EngineError {
    EngineError::InvalidSpec {
        reason: reason.into(),
    }
}

/// One checkpointed fit over the market as currently replayed. Fit `i`
/// checkpoints into `<dir>/fit-i`; with `resume`, a completed fit
/// fast-forwards from its final checkpoint and an interrupted one continues
/// mid-run — both bit-identical to an uninterrupted fit.
fn run_fit(
    cfg: &ReplayConfig,
    state: &StreamState,
    fit_index: usize,
) -> Result<LdaModel, EngineError> {
    let corpus = state.corpus();
    let ids: Vec<CompanyId> = corpus.ids().collect();
    let docs = hlm_core::representations::binary_docs(&corpus, &ids);
    let mut lda = cfg.lda.clone();
    lda.vocab_size = corpus.vocab().len();
    // Decorrelate retrains without threading a counter through the seed the
    // user configured.
    lda.seed = cfg
        .lda
        .seed
        .wrapping_add((fit_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut plan = TrainPlan::new();
    if let Some(dir) = &cfg.checkpoint_dir {
        plan = plan.on_disk(fit_dir(dir, fit_index))?.resume(cfg.resume);
    }
    if let Some(abort) = cfg.abort {
        if abort.fit_index == fit_index {
            plan = plan.with_guard(RunGuard::unlimited().abort_at_iteration(abort.iteration));
        }
    }
    Ok(fit_lda_resilient(lda, LdaEstimator::Gibbs, &docs, plan)?.model)
}

fn fit_dir(root: &Path, fit_index: usize) -> PathBuf {
    root.join(format!("fit-{fit_index:03}"))
}

/// Documents carrying evidence for columns beyond the model's vocabulary —
/// exactly the companies that own at least one newly launched product.
fn fold_in_docs(state: &StreamState, old_vocab: usize) -> Vec<hlm_lda::WeightedDoc> {
    state
        .companies()
        .iter()
        .filter(|c| c.events().iter().any(|e| e.product.index() >= old_vocab))
        .map(|c| {
            c.product_set()
                .into_iter()
                .map(|p| (p.index(), 1.0))
                .collect()
        })
        .collect()
}

fn corpus_token_mass(state: &StreamState) -> f64 {
    state
        .companies()
        .iter()
        .map(|c| c.product_set().len() as f64)
        .sum::<f64>()
        .max(1.0)
}

/// Score one month's acquisitions against the serving model: for each
/// acquisition of a scorable product by an already-known company, rank the
/// company's unowned products and test whether the acquired one lands in
/// the top `n`. Serial and deterministic.
fn evaluate_month(
    model: &LdaModel,
    state: &StreamState,
    month_events: &[StreamEvent],
    top_n: usize,
) -> (u64, u64) {
    let vocab = model.vocab_size();
    let mut evaluated = 0u64;
    let mut hits = 0u64;
    for ev in month_events {
        let StreamEvent::Acquisition { id, event, .. } = ev else {
            continue;
        };
        if event.product.index() >= vocab || id.index() >= state.company_count() {
            continue;
        }
        let company = &state.companies()[id.index()];
        if company.owns(event.product) {
            // A merge that widens an existing span is not a new product.
            continue;
        }
        let history: Vec<(usize, f64)> = company
            .events()
            .iter()
            .filter(|e| e.product.index() < vocab)
            .map(|e| (e.product.index(), 1.0))
            .collect();
        if history.is_empty() {
            continue;
        }
        evaluated += 1;

        let theta = model.infer_theta(&history);
        let mut scored: Vec<(usize, f64)> = (0..vocab)
            .filter(|&w| !company.owns(hlm_corpus::ProductId(w as u16)))
            .map(|w| {
                let s: f64 = theta
                    .iter()
                    .enumerate()
                    .map(|(t, &th)| th * model.phi().get(t, w))
                    .sum();
                (w, s)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        if scored
            .iter()
            .take(top_n)
            .any(|&(w, _)| w == event.product.index())
        {
            hits += 1;
        }
    }
    (evaluated, hits)
}

/// Build a candidate bundle over the current market, stage it, and install
/// it through the server's own `POST /admin/swap` (canary probe included).
fn swap_in(
    staged: &Mutex<Option<ModelBundle>>,
    addr: SocketAddr,
    state: &StreamState,
    model: &LdaModel,
    checkpoint_iteration: u64,
) -> Result<(), EngineError> {
    // A fresh engine over the grown corpus: the candidate's representations
    // and serving cache must cover every company that has arrived.
    let engine = Engine::new(state.corpus());
    let bundle = bundle_from_model(
        &engine,
        model.clone(),
        checkpoint_iteration,
        DistanceMetric::Cosine,
        ServeOptions::default(),
    )
    .map_err(|e| invalid(format!("candidate bundle: {e}")))?;
    *staged.lock().unwrap_or_else(|e| e.into_inner()) = Some(bundle);
    let reply = post_swap(addr).map_err(|e| invalid(format!("swap request: {e}")))?;
    if !reply.starts_with("HTTP/1.1 200") {
        let first = reply.lines().next().unwrap_or("");
        return Err(invalid(format!("swap rejected: {first}")));
    }
    Ok(())
}

/// Minimal HTTP client for the swap endpoint (std-only, like the server).
fn post_swap(addr: SocketAddr) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!(
                "POST /admin/swap HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_and_rejects() {
        assert_eq!(
            "never".parse::<RetrainPolicy>().unwrap(),
            RetrainPolicy::Never
        );
        assert_eq!(
            "periodic:6".parse::<RetrainPolicy>().unwrap(),
            RetrainPolicy::Periodic(6)
        );
        assert_eq!(
            "drift".parse::<RetrainPolicy>().unwrap(),
            RetrainPolicy::DriftTriggered
        );
        assert!("periodic:0".parse::<RetrainPolicy>().is_err());
        assert!("weekly".parse::<RetrainPolicy>().is_err());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut cfg = ReplayConfig::new(EventStreamConfig::with_size_and_seed(30, 1));
        cfg.serve_months = 0;
        assert!(matches!(replay(&cfg), Err(EngineError::InvalidSpec { .. })));
        let mut cfg = ReplayConfig::new(EventStreamConfig::with_size_and_seed(30, 1));
        cfg.serve_months = 10_000;
        assert!(matches!(replay(&cfg), Err(EngineError::InvalidSpec { .. })));
    }

    #[test]
    fn outcome_csv_and_late_window_math() {
        let row = |month: i32, evaluated: u64, hits: u64| ReplayRow {
            month: Month(month),
            events: 3,
            evaluated,
            hits,
            drift_p: 0.5,
            drifted: false,
            action: ReplayAction::Keep,
            version: 0,
        };
        let outcome = ReplayOutcome {
            rows: vec![row(0, 4, 1), row(1, 0, 0), row(2, 4, 3)],
            events: 9,
            drift_checks: 2,
            retrains: 0,
            fold_ins: 0,
            swaps: 0,
            vocab_len: 38,
            companies: 10,
        };
        let csv = outcome.csv();
        assert!(csv.starts_with("month,events,"));
        assert_eq!(csv.lines().count(), 4);
        // Last evaluable row only: 3/4.
        assert!((outcome.late_hit_rate(1) - 0.75).abs() < 1e-12);
        // Both evaluable rows: 4/8.
        assert!((outcome.late_hit_rate(5) - 0.5).abs() < 1e-12);
    }
}
