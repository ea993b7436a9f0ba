//! Dependency-free argument parsing for the `hlm` tool.

use hlm_corpus::Month;
use hlm_lda::SamplerChoice;
use hlm_serve::RetrainPolicy;

/// Resilience options shared by training subcommands.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrainFlags {
    /// Directory for training checkpoints; enables checkpointing when set.
    pub checkpoint_dir: Option<String>,
    /// Resume from the latest good checkpoint in `checkpoint_dir`.
    pub resume: bool,
    /// Wall-clock training budget in seconds.
    pub max_seconds: Option<u64>,
    /// Deterministically stop before iteration N, as if the process had been
    /// killed there (kill/resume drills in tests and CI).
    pub abort_at: Option<u64>,
}

/// Options for the long-running `hlm serve` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFlags {
    /// TCP port to bind on 127.0.0.1 (0 picks a free port).
    pub port: u16,
    /// Write the bound port number to this file once listening — how
    /// scripts and tests discover an ephemeral port.
    pub port_file: Option<String>,
    /// Model-worker threads draining the admission queue.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are shed with 503.
    pub queue: usize,
    /// Default per-request deadline in milliseconds.
    pub deadline_ms: u64,
    /// Checkpoint directory: warm-start from its latest good checkpoint
    /// when one exists, checkpoint fresh training into it otherwise, and
    /// enable `POST /admin/swap` to hot-reload from it.
    pub checkpoint_dir: Option<String>,
    /// Number of latent topics when training is needed.
    pub topics: usize,
    /// Gibbs sweeps when training is needed.
    pub iters: usize,
}

impl Default for ServeFlags {
    fn default() -> Self {
        ServeFlags {
            port: 0,
            port_file: None,
            workers: 2,
            queue: 256,
            deadline_ms: 250,
            checkpoint_dir: None,
            topics: 3,
            iters: 60,
        }
    }
}

/// Options for the `hlm replay` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayFlags {
    /// Companies in the generated event stream.
    pub companies: usize,
    /// Stream seed.
    pub seed: u64,
    /// Live months replayed (everything earlier is warmup history).
    pub months: u32,
    /// Retraining policy: `never`, `periodic:N`, or `drift`.
    pub policy: RetrainPolicy,
    /// Latent topics per fit.
    pub topics: usize,
    /// Gibbs sweeps per fit.
    pub iters: usize,
    /// Drift-test significance level.
    pub significance: f64,
    /// Reference window length in months.
    pub reference_months: u32,
    /// Recent window length in months.
    pub recent_months: u32,
    /// Recommendations per company when scoring hit rate.
    pub top_n: usize,
    /// Launch a new product category this month (grows the vocabulary).
    pub launch: Option<Month>,
    /// Inject a product-mix shift from this month (planted drift).
    pub shift: Option<Month>,
    /// Checkpoint root (`fit-NNN/` per fit); enables resume.
    pub checkpoint_dir: Option<String>,
    /// Fast-forward completed fits and continue an interrupted one.
    pub resume: bool,
    /// Kill fit `abort_fit` at this sweep (resume drill).
    pub abort_at: Option<u64>,
    /// Which fit `--abort-at` kills (0 = initial fit, 1 = first retrain).
    pub abort_fit: usize,
    /// Write the precision-over-time curve to this CSV path.
    pub out: Option<String>,
}

impl Default for ReplayFlags {
    fn default() -> Self {
        ReplayFlags {
            companies: 300,
            seed: 42,
            months: 60,
            policy: RetrainPolicy::DriftTriggered,
            topics: 3,
            iters: 60,
            significance: 0.05,
            reference_months: 12,
            recent_months: 6,
            top_n: 5,
            launch: None,
            shift: None,
            checkpoint_dir: None,
            resume: false,
            abort_at: None,
            abort_fit: 0,
            out: None,
        }
    }
}

/// Which LDA estimator `hlm topics` trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopicsEstimator {
    /// Collapsed Gibbs sampling (the default; `--iters` counts sweeps).
    #[default]
    Gibbs,
    /// Online variational Bayes — sharded (manifest) data only; `--iters`
    /// counts epochs (one epoch = one pass over the shards).
    OnlineVb,
}

/// A parsed subcommand with its options.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Generate a synthetic corpus and write CSVs (or a sharded binary
    /// store) into `out`.
    Generate {
        /// Number of companies.
        companies: usize,
        /// Generator seed.
        seed: u64,
        /// Output directory.
        out: String,
        /// When set, stream-generate an out-of-core [`ShardStore`] of this
        /// many shards instead of in-memory CSVs.
        ///
        /// [`ShardStore`]: hlm_corpus::ShardStore
        shards: Option<usize>,
    },
    /// Print a corpus summary.
    Stats {
        /// Directory holding `companies.csv` + `events.csv`, or a sharded
        /// store's `manifest.json`.
        data: String,
    },
    /// Train LDA and print topics.
    Topics {
        /// Data directory.
        data: String,
        /// Number of latent topics.
        topics: usize,
        /// Gibbs sweeps (or online-VB epochs).
        iters: usize,
        /// Estimator: collapsed Gibbs or (sharded data only) online VB.
        estimator: TopicsEstimator,
        /// Gibbs token-sampler kernel (`Auto` picks by topic count; a fixed
        /// choice is part of the sampling schedule). Ignored by online VB.
        sampler: SamplerChoice,
        /// Checkpoint/resume/watchdog options.
        flags: TrainFlags,
    },
    /// Similar companies + whitespace for one company.
    Similar {
        /// Data directory.
        data: String,
        /// D-U-N-S-like id of the query company.
        company: u64,
        /// Number of neighbours.
        k: usize,
        /// Number of whitespace products to print.
        whitespace: usize,
    },
    /// Serve recommendations over HTTP until SIGTERM (then drain).
    Serve {
        /// Data directory.
        data: String,
        /// Server options.
        flags: ServeFlags,
    },
    /// Replay a live event stream month by month against a serving model,
    /// retraining per policy and hot-swapping through the server.
    Replay {
        /// Replay options.
        flags: ReplayFlags,
    },
    /// Concept-drift check between two periods.
    Drift {
        /// Data directory.
        data: String,
        /// Start of the reference period.
        reference: Month,
        /// Start of the recent period.
        recent: Month,
        /// Length of each period in months.
        months: u32,
    },
}

impl Command {
    /// The subcommand's name, e.g. for the root metrics span `cli.<name>`.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Help => "help",
            Command::Generate { .. } => "generate",
            Command::Stats { .. } => "stats",
            Command::Topics { .. } => "topics",
            Command::Similar { .. } => "similar",
            Command::Serve { .. } => "serve",
            Command::Replay { .. } => "replay",
            Command::Drift { .. } => "drift",
        }
    }
}

/// Output format for the `--metrics` snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// JSON-lines event log (one record per span/counter/histogram/trace).
    #[default]
    Jsonl,
    /// Prometheus text exposition format.
    Prom,
}

/// A fully parsed invocation: the subcommand plus the options that apply to
/// every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The subcommand with its own options.
    pub command: Command,
    /// Worker-thread override (`--threads N`); `None` leaves the pool at the
    /// `HLM_THREADS` / detected-core default. Results are identical at any
    /// setting — the runtime is deterministic — so this only trades
    /// wall-clock for cores.
    pub threads: Option<usize>,
    /// Parallelism-threshold override in abstract work units
    /// (`--par-threshold UNITS`); `None` leaves the calibrated cost model
    /// (or `HLM_PAR_THRESHOLD`) in charge of the serial-vs-pool choice.
    /// `0` forces the pool on for every budgeted call; results are
    /// identical at any setting.
    pub par_threshold: Option<u64>,
    /// Write an observability snapshot to this path after the command runs
    /// (`--metrics PATH`). Enables the process-wide recorder; results are
    /// bit-identical with or without it — metrics are read-only observers.
    pub metrics: Option<String>,
    /// Snapshot format (`--metrics-format jsonl|prom`).
    pub metrics_format: MetricsFormat,
}

/// Result of parsing: the command or a usage error.
pub type ParsedArgs = Result<Command, String>;

fn get_opt<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn parse_num<T: std::str::FromStr>(
    pairs: &[(String, String)],
    key: &str,
    default: T,
) -> Result<T, String> {
    match get_opt(pairs, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value {v:?} for --{key}")),
    }
}

fn require<'a>(pairs: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    get_opt(pairs, key).ok_or_else(|| format!("missing required option --{key}"))
}

fn parse_opt_num<T: std::str::FromStr>(
    pairs: &[(String, String)],
    key: &str,
) -> Result<Option<T>, String> {
    match get_opt(pairs, key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value {v:?} for --{key}")),
    }
}

fn parse_month_opt(pairs: &[(String, String)], key: &str) -> Result<Month, String> {
    let v = require(pairs, key)?;
    let (y, m) = v
        .split_once('-')
        .ok_or_else(|| format!("--{key} must be YYYY-MM, got {v:?}"))?;
    let year: i32 = y
        .parse()
        .map_err(|_| format!("bad year in --{key} {v:?}"))?;
    let month: u32 = m
        .parse()
        .map_err(|_| format!("bad month in --{key} {v:?}"))?;
    if !(1..=12).contains(&month) {
        return Err(format!("month out of range in --{key} {v:?}"));
    }
    Ok(Month::from_ym(year, month))
}

fn parse_month_optional(pairs: &[(String, String)], key: &str) -> Result<Option<Month>, String> {
    match get_opt(pairs, key) {
        None => Ok(None),
        Some(_) => parse_month_opt(pairs, key).map(Some),
    }
}

/// Parses command-line arguments (excluding the program name) into just the
/// subcommand, discarding global options. Prefer [`parse_invocation`]; this
/// stays for callers that only dispatch on the command.
pub fn parse_args(argv: &[String]) -> ParsedArgs {
    parse_invocation(argv).map(|inv| inv.command)
}

/// Parses command-line arguments (excluding the program name).
///
/// Options are `--key value` pairs following the subcommand; unknown keys
/// are rejected so typos surface immediately. `--threads N` is accepted by
/// every subcommand and returned on the [`Invocation`] rather than the
/// command.
pub fn parse_invocation(argv: &[String]) -> Result<Invocation, String> {
    let Some(sub) = argv.first() else {
        return Ok(Invocation {
            command: Command::Help,
            threads: None,
            par_threshold: None,
            metrics: None,
            metrics_format: MetricsFormat::default(),
        });
    };
    // Collect --key value pairs; a few options are bare boolean flags.
    const BOOL_FLAGS: &[&str] = &["resume"];
    let rest = &argv[1..];
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let k = &rest[i];
        let Some(key) = k.strip_prefix("--") else {
            return Err(format!("expected an option starting with --, got {k:?}"));
        };
        if BOOL_FLAGS.contains(&key) {
            pairs.push((key.to_string(), "true".to_string()));
            i += 1;
            continue;
        }
        let Some(v) = rest.get(i + 1) else {
            return Err(format!("option --{key} is missing a value"));
        };
        pairs.push((key.to_string(), v.clone()));
        i += 2;
    }
    // `--threads`, `--metrics` and `--metrics-format` are global: pull them
    // out before the per-command allow-lists.
    let threads = match parse_opt_num::<usize>(&pairs, "threads")? {
        Some(0) => return Err("--threads must be positive".to_string()),
        t => t,
    };
    let par_threshold = parse_opt_num::<u64>(&pairs, "par-threshold")?;
    let metrics = get_opt(&pairs, "metrics").map(String::from);
    let metrics_format = match get_opt(&pairs, "metrics-format") {
        None => MetricsFormat::default(),
        Some("jsonl") => MetricsFormat::Jsonl,
        Some("prom") => MetricsFormat::Prom,
        Some(other) => {
            return Err(format!(
                "invalid value {other:?} for --metrics-format (expected jsonl or prom)"
            ))
        }
    };
    if metrics.is_none() && get_opt(&pairs, "metrics-format").is_some() {
        return Err("--metrics-format requires --metrics".to_string());
    }
    pairs.retain(|(k, _)| {
        k != "threads" && k != "par-threshold" && k != "metrics" && k != "metrics-format"
    });
    let allow = |allowed: &[&str]| -> Result<(), String> {
        for (k, _) in &pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown option --{k} for `{sub}`"));
            }
        }
        Ok(())
    };

    let command = match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            allow(&["companies", "seed", "out", "shards"])?;
            let shards = match parse_opt_num::<usize>(&pairs, "shards")? {
                Some(0) => return Err("--shards must be positive".to_string()),
                s => s,
            };
            Ok(Command::Generate {
                companies: parse_num(&pairs, "companies", 2_000usize)?,
                seed: parse_num(&pairs, "seed", 42u64)?,
                out: require(&pairs, "out")?.to_string(),
                shards,
            })
        }
        "stats" => {
            allow(&["data"])?;
            Ok(Command::Stats {
                data: require(&pairs, "data")?.to_string(),
            })
        }
        "topics" => {
            allow(&[
                "data",
                "topics",
                "iters",
                "estimator",
                "sampler",
                "checkpoint-dir",
                "resume",
                "max-seconds",
                "abort-at",
            ])?;
            let estimator = match get_opt(&pairs, "estimator") {
                None | Some("gibbs") => TopicsEstimator::Gibbs,
                Some("online-vb") => TopicsEstimator::OnlineVb,
                Some(other) => {
                    return Err(format!(
                        "invalid value {other:?} for --estimator (expected gibbs or online-vb)"
                    ))
                }
            };
            let sampler = match get_opt(&pairs, "sampler") {
                None => SamplerChoice::Auto,
                Some(s) => s
                    .parse::<SamplerChoice>()
                    .map_err(|e| format!("invalid value for --sampler: {e}"))?,
            };
            let flags = TrainFlags {
                checkpoint_dir: get_opt(&pairs, "checkpoint-dir").map(String::from),
                resume: get_opt(&pairs, "resume").is_some(),
                max_seconds: parse_opt_num(&pairs, "max-seconds")?,
                abort_at: parse_opt_num(&pairs, "abort-at")?,
            };
            if flags.resume && flags.checkpoint_dir.is_none() {
                return Err("--resume requires --checkpoint-dir".to_string());
            }
            Ok(Command::Topics {
                data: require(&pairs, "data")?.to_string(),
                topics: parse_num(&pairs, "topics", 3usize)?,
                iters: parse_num(&pairs, "iters", 150usize)?,
                estimator,
                sampler,
                flags,
            })
        }
        "similar" => {
            allow(&["data", "company", "k", "whitespace"])?;
            Ok(Command::Similar {
                data: require(&pairs, "data")?.to_string(),
                company: require(&pairs, "company")?
                    .parse()
                    .map_err(|_| "invalid value for --company".to_string())?,
                k: parse_num(&pairs, "k", 10usize)?,
                whitespace: parse_num(&pairs, "whitespace", 5usize)?,
            })
        }
        "serve" => {
            allow(&[
                "data",
                "port",
                "port-file",
                "workers",
                "queue",
                "deadline-ms",
                "checkpoint-dir",
                "topics",
                "iters",
            ])?;
            let defaults = ServeFlags::default();
            let workers = parse_num(&pairs, "workers", defaults.workers)?;
            if workers == 0 {
                return Err("--workers must be positive".to_string());
            }
            let queue = parse_num(&pairs, "queue", defaults.queue)?;
            if queue == 0 {
                return Err("--queue must be positive".to_string());
            }
            let deadline_ms = parse_num(&pairs, "deadline-ms", defaults.deadline_ms)?;
            if deadline_ms == 0 {
                return Err("--deadline-ms must be positive".to_string());
            }
            Ok(Command::Serve {
                data: require(&pairs, "data")?.to_string(),
                flags: ServeFlags {
                    port: parse_num(&pairs, "port", defaults.port)?,
                    port_file: get_opt(&pairs, "port-file").map(String::from),
                    workers,
                    queue,
                    deadline_ms,
                    checkpoint_dir: get_opt(&pairs, "checkpoint-dir").map(String::from),
                    topics: parse_num(&pairs, "topics", defaults.topics)?,
                    iters: parse_num(&pairs, "iters", defaults.iters)?,
                },
            })
        }
        "replay" => {
            allow(&[
                "companies",
                "seed",
                "months",
                "policy",
                "topics",
                "iters",
                "significance",
                "reference-months",
                "recent-months",
                "top-n",
                "launch",
                "shift",
                "checkpoint-dir",
                "resume",
                "abort-at",
                "abort-fit",
                "out",
            ])?;
            let defaults = ReplayFlags::default();
            let policy = match get_opt(&pairs, "policy") {
                None => defaults.policy,
                Some(v) => v.parse::<RetrainPolicy>()?,
            };
            let flags = ReplayFlags {
                companies: parse_num(&pairs, "companies", defaults.companies)?,
                seed: parse_num(&pairs, "seed", defaults.seed)?,
                months: parse_num(&pairs, "months", defaults.months)?,
                policy,
                topics: parse_num(&pairs, "topics", defaults.topics)?,
                iters: parse_num(&pairs, "iters", defaults.iters)?,
                significance: parse_num(&pairs, "significance", defaults.significance)?,
                reference_months: parse_num(&pairs, "reference-months", defaults.reference_months)?,
                recent_months: parse_num(&pairs, "recent-months", defaults.recent_months)?,
                top_n: parse_num(&pairs, "top-n", defaults.top_n)?,
                launch: parse_month_optional(&pairs, "launch")?,
                shift: parse_month_optional(&pairs, "shift")?,
                checkpoint_dir: get_opt(&pairs, "checkpoint-dir").map(String::from),
                resume: get_opt(&pairs, "resume").is_some(),
                abort_at: parse_opt_num(&pairs, "abort-at")?,
                abort_fit: parse_num(&pairs, "abort-fit", defaults.abort_fit)?,
                out: get_opt(&pairs, "out").map(String::from),
            };
            if flags.topics == 0 || flags.iters == 0 {
                return Err("--topics and --iters must be positive".to_string());
            }
            if flags.months == 0 {
                return Err("--months must be positive".to_string());
            }
            if flags.resume && flags.checkpoint_dir.is_none() {
                return Err("--resume requires --checkpoint-dir".to_string());
            }
            if flags.abort_at.is_some() && flags.checkpoint_dir.is_none() {
                return Err("--abort-at requires --checkpoint-dir".to_string());
            }
            Ok(Command::Replay { flags })
        }
        "drift" => {
            allow(&["data", "reference", "recent", "months"])?;
            Ok(Command::Drift {
                data: require(&pairs, "data")?.to_string(),
                reference: parse_month_opt(&pairs, "reference")?,
                recent: parse_month_opt(&pairs, "recent")?,
                months: parse_num(&pairs, "months", 24u32)?,
            })
        }
        other => Err(format!("unknown subcommand {other:?}; run `hlm help`")),
    }?;
    Ok(Invocation {
        command,
        threads,
        par_threshold,
        metrics,
        metrics_format,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn generate_with_defaults_and_overrides() {
        let cmd = parse_args(&argv(&["generate", "--out", "/tmp/x"])).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                companies: 2_000,
                seed: 42,
                out: "/tmp/x".into(),
                shards: None
            }
        );
        let cmd = parse_args(&argv(&[
            "generate",
            "--companies",
            "500",
            "--seed",
            "7",
            "--out",
            "d",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                companies: 500,
                seed: 7,
                out: "d".into(),
                shards: Some(4)
            }
        );
        let e = parse_args(&argv(&["generate", "--out", "d", "--shards", "0"])).unwrap_err();
        assert!(e.contains("--shards"), "{e}");
    }

    #[test]
    fn missing_required_option_is_an_error() {
        let e = parse_args(&argv(&["generate"])).unwrap_err();
        assert!(e.contains("--out"), "{e}");
        let e = parse_args(&argv(&["stats"])).unwrap_err();
        assert!(e.contains("--data"));
    }

    #[test]
    fn unknown_options_and_subcommands_rejected() {
        let e = parse_args(&argv(&["stats", "--data", "d", "--bogus", "1"])).unwrap_err();
        assert!(e.contains("--bogus"));
        let e = parse_args(&argv(&["frobnicate"])).unwrap_err();
        assert!(e.contains("unknown subcommand"));
        let e = parse_args(&argv(&["stats", "data"])).unwrap_err();
        assert!(e.contains("starting with --"));
        let e = parse_args(&argv(&["stats", "--data"])).unwrap_err();
        assert!(e.contains("missing a value"));
    }

    #[test]
    fn drift_parses_months() {
        let cmd = parse_args(&argv(&[
            "drift",
            "--data",
            "d",
            "--reference",
            "2010-03",
            "--recent",
            "2014-01",
        ]))
        .unwrap();
        match cmd {
            Command::Drift {
                reference,
                recent,
                months,
                ..
            } => {
                assert_eq!(reference, Month::from_ym(2010, 3));
                assert_eq!(recent, Month::from_ym(2014, 1));
                assert_eq!(months, 24);
            }
            other => panic!("wrong command {other:?}"),
        }
        let e = parse_args(&argv(&[
            "drift",
            "--data",
            "d",
            "--reference",
            "201003",
            "--recent",
            "2014-01",
        ]))
        .unwrap_err();
        assert!(e.contains("YYYY-MM"));
    }

    #[test]
    fn topics_estimator_parses_and_rejects_unknown() {
        let cmd = parse_args(&argv(&["topics", "--data", "d"])).unwrap();
        match cmd {
            Command::Topics { estimator, .. } => assert_eq!(estimator, TopicsEstimator::Gibbs),
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse_args(&argv(&[
            "topics",
            "--data",
            "d",
            "--estimator",
            "online-vb",
        ]))
        .unwrap();
        match cmd {
            Command::Topics { estimator, .. } => assert_eq!(estimator, TopicsEstimator::OnlineVb),
            other => panic!("wrong command {other:?}"),
        }
        let e = parse_args(&argv(&["topics", "--data", "d", "--estimator", "em"])).unwrap_err();
        assert!(e.contains("gibbs or online-vb"), "{e}");
        let e = parse_args(&argv(&["topics", "--data", "d", "--sampler", "bucket"])).unwrap_err();
        assert!(e.contains("\"bucket\" was removed"), "{e}");
    }

    #[test]
    fn topics_resilience_flags_parse() {
        let cmd = parse_args(&argv(&["topics", "--data", "d"])).unwrap();
        match cmd {
            Command::Topics { flags, .. } => {
                assert_eq!(flags, TrainFlags::default());
            }
            other => panic!("wrong command {other:?}"),
        }

        let cmd = parse_args(&argv(&[
            "topics",
            "--data",
            "d",
            "--checkpoint-dir",
            "/tmp/ck",
            "--resume",
            "--max-seconds",
            "30",
            "--abort-at",
            "12",
        ]))
        .unwrap();
        match cmd {
            Command::Topics { flags, .. } => {
                assert_eq!(flags.checkpoint_dir.as_deref(), Some("/tmp/ck"));
                assert!(flags.resume);
                assert_eq!(flags.max_seconds, Some(30));
                assert_eq!(flags.abort_at, Some(12));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn resume_requires_checkpoint_dir() {
        let e = parse_args(&argv(&["topics", "--data", "d", "--resume"])).unwrap_err();
        assert!(e.contains("--checkpoint-dir"), "{e}");
        // --resume is a bare flag: the next option must still parse.
        let cmd = parse_args(&argv(&[
            "topics",
            "--data",
            "d",
            "--resume",
            "--checkpoint-dir",
            "ck",
        ]))
        .unwrap();
        match cmd {
            Command::Topics { flags, .. } => assert!(flags.resume),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn threads_is_accepted_by_every_subcommand() {
        let inv = parse_invocation(&argv(&["stats", "--data", "d", "--threads", "4"])).unwrap();
        assert_eq!(inv.threads, Some(4));
        assert_eq!(inv.command, Command::Stats { data: "d".into() });
        let inv = parse_invocation(&argv(&["topics", "--data", "d", "--threads", "2"])).unwrap();
        assert_eq!(inv.threads, Some(2));
        let inv = parse_invocation(&argv(&["generate", "--out", "o"])).unwrap();
        assert_eq!(inv.threads, None);
        let e = parse_invocation(&argv(&["stats", "--data", "d", "--threads", "0"])).unwrap_err();
        assert!(e.contains("positive"), "{e}");
        let e = parse_invocation(&argv(&["stats", "--data", "d", "--threads", "x"])).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
    }

    #[test]
    fn par_threshold_is_global_and_zero_is_allowed() {
        let inv =
            parse_invocation(&argv(&["topics", "--data", "d", "--par-threshold", "0"])).unwrap();
        assert_eq!(inv.par_threshold, Some(0));
        let inv = parse_invocation(&argv(&["stats", "--data", "d"])).unwrap();
        assert_eq!(inv.par_threshold, None);
        let e =
            parse_invocation(&argv(&["stats", "--data", "d", "--par-threshold", "x"])).unwrap_err();
        assert!(e.contains("--par-threshold"), "{e}");
    }

    #[test]
    fn metrics_flags_are_global_and_validated() {
        let inv =
            parse_invocation(&argv(&["stats", "--data", "d", "--metrics", "m.jsonl"])).unwrap();
        assert_eq!(inv.metrics.as_deref(), Some("m.jsonl"));
        assert_eq!(inv.metrics_format, MetricsFormat::Jsonl);
        let inv = parse_invocation(&argv(&[
            "topics",
            "--data",
            "d",
            "--metrics",
            "m.prom",
            "--metrics-format",
            "prom",
        ]))
        .unwrap();
        assert_eq!(inv.metrics.as_deref(), Some("m.prom"));
        assert_eq!(inv.metrics_format, MetricsFormat::Prom);
        let inv = parse_invocation(&argv(&["generate", "--out", "o"])).unwrap();
        assert_eq!(inv.metrics, None);
        let e = parse_invocation(&argv(&[
            "stats",
            "--data",
            "d",
            "--metrics",
            "m",
            "--metrics-format",
            "xml",
        ]))
        .unwrap_err();
        assert!(e.contains("jsonl or prom"), "{e}");
        let e = parse_invocation(&argv(&["stats", "--data", "d", "--metrics-format", "prom"]))
            .unwrap_err();
        assert!(e.contains("requires --metrics"), "{e}");
    }

    #[test]
    fn serve_parses_defaults_and_overrides() {
        let cmd = parse_args(&argv(&["serve", "--data", "d"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                data: "d".into(),
                flags: ServeFlags::default()
            }
        );
        let cmd = parse_args(&argv(&[
            "serve",
            "--data",
            "d",
            "--port",
            "8080",
            "--port-file",
            "/tmp/p",
            "--workers",
            "4",
            "--queue",
            "64",
            "--deadline-ms",
            "150",
            "--checkpoint-dir",
            "ck",
            "--topics",
            "5",
            "--iters",
            "30",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                data: "d".into(),
                flags: ServeFlags {
                    port: 8080,
                    port_file: Some("/tmp/p".into()),
                    workers: 4,
                    queue: 64,
                    deadline_ms: 150,
                    checkpoint_dir: Some("ck".into()),
                    topics: 5,
                    iters: 30,
                }
            }
        );
    }

    #[test]
    fn serve_rejects_bad_values() {
        assert!(parse_args(&argv(&["serve"]))
            .unwrap_err()
            .contains("--data"));
        let e = parse_args(&argv(&["serve", "--data", "d", "--workers", "0"])).unwrap_err();
        assert!(e.contains("--workers"), "{e}");
        let e = parse_args(&argv(&["serve", "--data", "d", "--queue", "0"])).unwrap_err();
        assert!(e.contains("--queue"), "{e}");
        let e = parse_args(&argv(&["serve", "--data", "d", "--deadline-ms", "0"])).unwrap_err();
        assert!(e.contains("--deadline-ms"), "{e}");
        let e = parse_args(&argv(&["serve", "--data", "d", "--port", "99999"])).unwrap_err();
        assert!(e.contains("--port"), "{e}");
        let e = parse_args(&argv(&["serve", "--data", "d", "--resume"])).unwrap_err();
        assert!(e.contains("--resume"), "{e}");
    }

    #[test]
    fn similar_requires_company() {
        let cmd = parse_args(&argv(&["similar", "--data", "d", "--company", "10042"])).unwrap();
        assert_eq!(
            cmd,
            Command::Similar {
                data: "d".into(),
                company: 10042,
                k: 10,
                whitespace: 5
            }
        );
        assert!(parse_args(&argv(&["similar", "--data", "d"])).is_err());
    }

    #[test]
    fn replay_defaults_and_overrides() {
        let cmd = parse_args(&argv(&["replay"])).unwrap();
        assert_eq!(
            cmd,
            Command::Replay {
                flags: ReplayFlags::default()
            }
        );
        let cmd = parse_args(&argv(&[
            "replay",
            "--companies",
            "120",
            "--seed",
            "7",
            "--months",
            "36",
            "--policy",
            "periodic:6",
            "--launch",
            "2012-06",
            "--shift",
            "2013-01",
            "--checkpoint-dir",
            "/tmp/ck",
            "--resume",
            "--abort-at",
            "5",
            "--abort-fit",
            "1",
            "--out",
            "/tmp/curve.csv",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Replay {
                flags: ReplayFlags {
                    companies: 120,
                    seed: 7,
                    months: 36,
                    policy: RetrainPolicy::Periodic(6),
                    launch: Some(Month::from_ym(2012, 6)),
                    shift: Some(Month::from_ym(2013, 1)),
                    checkpoint_dir: Some("/tmp/ck".into()),
                    resume: true,
                    abort_at: Some(5),
                    abort_fit: 1,
                    out: Some("/tmp/curve.csv".into()),
                    ..ReplayFlags::default()
                }
            }
        );
    }

    #[test]
    fn replay_rejects_bad_invocations() {
        let e = parse_args(&argv(&["replay", "--policy", "sometimes"])).unwrap_err();
        assert!(e.contains("policy"), "{e}");
        let e = parse_args(&argv(&["replay", "--policy", "periodic:0"])).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        let e = parse_args(&argv(&["replay", "--resume"])).unwrap_err();
        assert!(e.contains("--checkpoint-dir"), "{e}");
        let e = parse_args(&argv(&["replay", "--abort-at", "3"])).unwrap_err();
        assert!(e.contains("--checkpoint-dir"), "{e}");
        let e = parse_args(&argv(&["replay", "--launch", "2012-13"])).unwrap_err();
        assert!(e.contains("month out of range"), "{e}");
        let e = parse_args(&argv(&["replay", "--months", "0"])).unwrap_err();
        assert!(e.contains("--months"), "{e}");
        let e = parse_args(&argv(&["replay", "--data", "d"])).unwrap_err();
        assert!(e.contains("unknown option"), "{e}");
    }
}
