//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_scan|train_sharded> --seed N \
//!           --seconds S --trace <0|1> --hlm PATH --work-dir DIR
//! perfbench compare A.json B.json
//! perfbench spread RESULT.json...
//! ```
//!
//! Every workload generates its inputs from the seed (once per seed), runs
//! the program as users run it, checks every output, prints a report and,
//! as its last line, one JSON object with the gated metrics: the end-to-end
//! ones untraced (`--trace 0`), the per-layer ones traced (`--trace 1`).
//! The exit code is non-zero when an output check fails. `perfbench/run.sh`
//! builds `hlm` and this binary first; `perfbench/README.md` documents the
//! workloads and every metric.

mod check;
mod http;
mod inputs;
mod loadgen;
mod metrics;
mod serve;
mod server;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};

use metrics::Outcome;

/// Everything a workload run needs from the command line.
pub struct Ctx {
    /// Workload seed: inputs are a pure function of it.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// The `hlm` binary under test.
    pub hlm: PathBuf,
    /// Scratch root for inputs, checkpoints, logs and results.
    pub work: PathBuf,
}

impl Ctx {
    /// `work/name`, created.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.work.join(name);
        std::fs::create_dir_all(&d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        Ok(d)
    }
}

fn usage() -> String {
    "usage: perfbench --workload <serve_hot|serve_scan|train_sharded> --seed N --seconds S \
     --trace <0|1> --hlm PATH --work-dir DIR\n       perfbench compare A.json B.json\n       \
     perfbench spread RESULT.json..."
        .to_string()
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut hlm = None;
    let mut work = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "--seed: not a number")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds: not a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--hlm" => hlm = Some(PathBuf::from(value)),
            "--work-dir" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Ctx {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            hlm: hlm.ok_or_else(|| missing("--hlm"))?,
            work: work.ok_or_else(|| missing("--work-dir"))?,
        },
    ))
}

fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "serve_hot" => serve::run(&serve::HOT, ctx),
        "serve_scan" => serve::run(&serve::SCAN, ctx),
        "train_sharded" => train::run(ctx),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            match metrics::compare(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(text) => {
                    print!("{text}");
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            }
        }
        Some("spread") if args.len() > 1 => {
            let paths: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
            match metrics::spread(&paths) {
                Ok(text) => {
                    print!("{text}");
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            }
        }
        Some(train::CHILD_FLAG) => train::child_main(&args[1..]),
        _ => match parse_args(&args).and_then(|(w, ctx)| run(&w, &ctx).map(|o| (w, ctx, o))) {
            Ok((workload, ctx, outcome)) => outcome.finish(&workload, &ctx),
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}
