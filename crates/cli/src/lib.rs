//! Implementation of the `hlm` command-line tool.
//!
//! Subcommands (see `hlm help`):
//!
//! * `generate` — write a synthetic install-base corpus as CSV,
//! * `stats` — corpus summary (sizes, industries, popular products),
//! * `topics` — train LDA and print the learned topics,
//! * `similar` — top-k similar companies + whitespace recommendations,
//! * `drift` — chi-square concept-drift check between two periods.
//!
//! The argument parser is deliberately dependency-free; every command is a
//! library function returning its output as a `String` so the whole surface
//! is unit-testable. Failures are typed ([`CliError`]) and carry the process
//! exit code: usage errors exit 2, data errors 3, engine/training errors 4.

pub mod args;
pub(crate) mod commands;

pub use args::{
    parse_args, parse_invocation, Command, Invocation, MetricsFormat, ParsedArgs, ReplayFlags,
    ServeFlags, TopicsEstimator, TrainFlags,
};
pub use hlm_engine::{effective_threads, set_threads};

use std::fmt;

/// A command failure, classified so the binary can exit with a stable code
/// that scripts (and CI) can branch on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The invocation itself is wrong: bad flags, bad option values
    /// (exit code 2).
    Usage(String),
    /// The input data cannot be read or parsed: missing files, malformed
    /// CSV, error budget exhausted (exit code 3).
    Data(String),
    /// Training or serving failed: divergence, cancellation, deadline,
    /// checkpoint IO (exit code 4).
    Engine(String),
}

impl CliError {
    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Data(_) => 3,
            CliError::Engine(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    /// Single-line rendering (newlines flattened) for stderr.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CliError::Usage(m) | CliError::Data(m) | CliError::Engine(m) => m,
        };
        f.write_str(&msg.replace('\n', " "))
    }
}

impl std::error::Error for CliError {}

/// Entry point shared by `main` and the tests: dispatches a parsed command.
///
/// # Errors
/// Returns a [`CliError`] carrying a human-readable message and the exit
/// code class.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(commands::help_text()),
        Command::Generate {
            companies,
            seed,
            out,
            shards,
        } => commands::generate(*companies, *seed, out, *shards),
        Command::Stats { data } => commands::stats(data),
        Command::Topics {
            data,
            topics,
            iters,
            estimator,
            sampler,
            flags,
        } => commands::topics(data, *topics, *iters, *estimator, *sampler, flags),
        Command::Similar {
            data,
            company,
            k,
            whitespace,
        } => commands::similar(data, *company, *k, *whitespace),
        Command::Serve { data, flags } => commands::serve(data, flags),
        Command::Replay { flags } => commands::replay(flags),
        Command::Drift {
            data,
            reference,
            recent,
            months,
        } => commands::drift(data, *reference, *recent, *months),
    }
}

/// Full entry point for a parsed [`Invocation`]: applies the global options
/// (thread override, metrics recorder), dispatches the command, and — when
/// `--metrics PATH` was given — writes the observability snapshot to `PATH`
/// in the requested format after the command finishes.
///
/// The recorder is a read-only observer: enabling it never changes command
/// output or model results, only adds the snapshot file and the span totals
/// on the timing summary line.
///
/// # Errors
/// Returns the command's own [`CliError`] if it failed; a snapshot that
/// cannot be written surfaces as a [`CliError::Data`] only when the command
/// itself succeeded (the original failure always wins).
pub fn run_invocation(inv: &Invocation) -> Result<String, CliError> {
    if let Some(n) = inv.threads {
        set_threads(n);
    }
    if let Some(units) = inv.par_threshold {
        hlm_engine::set_par_threshold(Some(units));
    }
    if inv.metrics.is_some() {
        hlm_obs::install(hlm_obs::Recorder::enabled());
    }
    let result = run(&inv.command);
    if let Some(path) = &inv.metrics {
        // Stamp the process's memory high-water mark (when the platform
        // exposes it) so every snapshot carries the run's peak RSS.
        if let Some(bytes) = hlm_obs::peak_rss_bytes() {
            hlm_obs::global().set_gauge(hlm_obs::PEAK_RSS_GAUGE, bytes as f64);
        }
        let snapshot = hlm_obs::global().snapshot();
        let text = match inv.metrics_format {
            MetricsFormat::Jsonl => snapshot.to_jsonl(),
            MetricsFormat::Prom => snapshot.to_prometheus(),
        };
        let written = std::fs::write(path, text)
            .map_err(|e| CliError::Data(format!("cannot write metrics file {path:?}: {e}")));
        return match (result, written) {
            (Ok(out), Ok(())) => Ok(out),
            (Ok(_), Err(e)) => Err(e),
            (Err(e), _) => Err(e),
        };
    }
    result
}
