//! Metric registry, the result record and its comparison rule.
//!
//! The gated metrics are the ones `BENCHMARK.json` lists: every run prints
//! all end-to-end ones (untraced) or all per-layer ones (traced) on its last
//! line. A layer a workload never runs reports 0 for its times and counts.
//! Everything else a run measures — `p99_ms`, `max_rps` and the other
//! named figures, workload facts, failed checks — goes to the printed
//! report and to the result file under `<work-dir>/results/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hlm_obs::json::esc;
use serde::Value;

use crate::check::{as_f64, field};
use crate::stats;
use crate::Ctx;

/// End-to-end metrics: `(name, unit)`. Definitions per workload are in
/// `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("heldout_perplexity", "1"),
];

/// Per-layer metrics: `(name, unit)`, prefixed by the crate they measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.server_ms", "ms"),
    ("serve.conn_path_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.write_us", "us"),
    ("serve.swap_count", "count"),
    ("serve.swap_ms", "ms"),
    ("serve.swap_max_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.degraded", "count"),
    ("serve.rollback", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.similar_us", "us"),
    ("core.whitespace_us", "us"),
    ("core.rows_scored", "count"),
    ("core.bytes_scanned", "bytes"),
    ("core.binary_docs_ms", "ms"),
    ("core.representations_ms", "ms"),
    ("core.store_build_ms", "ms"),
    ("engine.fit_ms", "ms"),
    ("engine.fit_unattributed_ms", "ms"),
    ("engine.fallback_fit_ms", "ms"),
    ("engine.recommend_us", "us"),
    ("lda.sweep_ms", "ms"),
    ("lda.shard_step_ms", "ms"),
    ("lda.sampler.dense", "count"),
    ("lda.sampler.bucket", "count"),
    ("lda.sampler.alias", "count"),
    ("lda.checkpoint_decode_ms", "ms"),
    ("corpus.csv_load_ms", "ms"),
    ("corpus.store_open_ms", "ms"),
    ("corpus.shard_pass_ms", "ms"),
    ("corpus.spill_bytes", "bytes"),
    ("resilience.checkpoint_ms", "ms"),
    ("resilience.checkpoint_bytes", "bytes"),
    ("resilience.checkpoint_failures", "count"),
    ("resilience.latest_good_ms", "ms"),
    ("par.tasks", "count"),
    ("par.busy_share", "ratio"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_latency_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests, or fit sweeps).
    pub attempted: u64,
    /// Operations that failed: non-200, transport error, degraded or
    /// invalid answer.
    pub failed: u64,
    /// Gated metric values by name (end-to-end or per-layer).
    pub gated: BTreeMap<String, f64>,
    /// Further measured figures: `(name, value, unit)`.
    pub reported: Vec<(String, f64, String)>,
    /// Workload parameters: two results compare only when these match.
    pub params: Vec<(String, String)>,
    /// Measured facts of the run (traffic, sizes).
    pub facts: Vec<(String, String)>,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Free-form report lines (layer table, remainder, overhead).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a further measured figure.
    pub fn report(&mut self, name: &str, value: f64, unit: &str) {
        self.reported
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.correct = false;
        self.failures.push(what);
    }

    fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Prints the report and the final JSON line, writes the result file,
    /// and returns the exit code: 0 when every check passed.
    pub fn finish(mut self, workload: &str, ctx: &Ctx) -> i32 {
        let expected = Self::expected(ctx.trace);
        for (name, _) in expected {
            match self.gated.get(*name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.fail(format!("metric {name} is not finite ({v})")),
                None => self.fail(format!("metric {name} was not measured")),
            }
        }
        if let Some(extra) = self
            .gated
            .keys()
            .find(|k| !expected.iter().any(|(n, _)| n == k))
        {
            self.fail(format!("metric {extra} is not registered"));
        }

        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench {workload} seed={} seconds={} trace={}",
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace)
        );
        for (k, v) in &self.params {
            let _ = writeln!(out, "  param  {k} = {v}");
        }
        for (k, v) in &self.facts {
            let _ = writeln!(out, "  fact   {k} = {v}");
        }
        for (name, value, unit) in &self.reported {
            let _ = writeln!(out, "  report {name} = {value} {unit}");
        }
        for (name, unit) in expected {
            let value = self.gated.get(*name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(out, "  metric {name} = {value} {unit}");
        }
        for line in &self.notes {
            let _ = writeln!(out, "  {line}");
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} fail_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "  FAILED CHECK: {f}");
        }
        if self.failures.len() > 20 {
            let _ = writeln!(out, "  … {} more failed checks", self.failures.len() - 20);
        }
        print!("{out}");

        if let Err(e) = self.write_record(workload, ctx) {
            eprintln!("warning: result record not written: {e}");
        }

        let gated: Vec<String> = expected
            .iter()
            .map(|(name, unit)| {
                let v = self.gated.get(*name).copied().filter(|v| v.is_finite());
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    v.map_or("null".to_string(), |v| format!("{v:?}"))
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            gated.join(", ")
        );
        if self.correct {
            0
        } else {
            1
        }
    }

    fn write_record(&self, workload: &str, ctx: &Ctx) -> Result<(), String> {
        let dir = ctx.dir("results")?;
        let obj = |pairs: &[(String, String)]| {
            let items: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", esc(k), esc(v)))
                .collect();
            format!("{{{}}}", items.join(", "))
        };
        let metric_obj = |items: &mut dyn Iterator<Item = (&str, f64, &str)>| {
            let items: Vec<String> = items
                .filter(|(_, v, _)| v.is_finite())
                .map(|(n, v, u)| format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}", esc(n)))
                .collect();
            format!("{{{}}}", items.join(", "))
        };
        let expected = Self::expected(ctx.trace);
        let gated = metric_obj(
            &mut expected
                .iter()
                .filter_map(|(n, u)| self.gated.get(*n).map(|v| (*n, *v, *u))),
        );
        let reported = metric_obj(
            &mut self
                .reported
                .iter()
                .map(|(n, v, u)| (n.as_str(), *v, u.as_str())),
        );
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", esc(f)))
            .collect();
        let record = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"git_rev\": \"{}\", \"hardware_threads\": {}, \"params\": {}, \"facts\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {gated}, \
             \"reported\": {reported}, \"failures\": [{}]}}\n",
            ctx.seed,
            ctx.seconds,
            ctx.trace,
            esc(&git_rev()),
            hardware_threads(),
            obj(&self.params),
            obj(&self.facts),
            self.correct,
            self.attempted,
            self.failed,
            failures.join(", ")
        );
        let path = dir.join(format!(
            "{workload}-seed{}-trace{}.json",
            ctx.seed,
            u8::from(ctx.trace)
        ));
        std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Hardware threads of this host.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git; checkouts
/// without git metadata report `unknown`.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None => head,
    }
}

/// What makes two results comparable: the workload, its parameters and the
/// host's hardware threads.
fn comparability_key(record: &Value) -> String {
    let render = |key: &str| format!("{:?}", field(record, key));
    format!(
        "workload={} params={} hardware_threads={} trace={}",
        render("workload"),
        render("params"),
        render("hardware_threads"),
        render("trace")
    )
}

fn metric_values(record: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for section in ["metrics", "reported"] {
        if let Some(Value::Map(items)) = field(record, section) {
            for (name, m) in items {
                if let Some(v) = field(m, "value").and_then(as_f64) {
                    out.push((name.clone(), v));
                }
            }
        }
    }
    out
}

/// Compares two result records metric by metric, refusing when workload
/// parameters or hardware threads differ — a ratio across scales or hosts
/// is not a speed-up.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    compare_records(&load(a)?, &load(b)?)
}

fn compare_records(a: &Value, b: &Value) -> Result<String, String> {
    let (ka, kb) = (comparability_key(a), comparability_key(b));
    if ka != kb {
        return Err(format!("results are not comparable:\n  {ka}\n  {kb}"));
    }
    let vb: BTreeMap<String, f64> = metric_values(b).into_iter().collect();
    let mut out = String::new();
    for (name, x) in metric_values(a) {
        if let Some(&y) = vb.get(&name) {
            let _ = writeln!(out, "{name}: {x} -> {y} ({:.4}x)", y / x);
        }
    }
    Ok(out)
}

/// Median and quartile spread of every metric over a set of result
/// records — the steadiness check: (Q3 − Q1) / median, quartiles as
/// Python's `statistics.quantiles(values, n=4)` computes them.
pub fn spread(paths: &[PathBuf]) -> Result<String, String> {
    let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut keys = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let record: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        keys.push(comparability_key(&record));
        for (name, v) in metric_values(&record) {
            by_metric.entry(name).or_default().push(v);
        }
    }
    keys.dedup();
    if keys.len() > 1 {
        return Err(format!(
            "records are not comparable:\n  {}",
            keys.join("\n  ")
        ));
    }
    let mut out = String::new();
    for (name, values) in by_metric {
        let median = stats::median(&values);
        if values.len() < 2 {
            let _ = writeln!(out, "{name}: {median} (1 run)");
            continue;
        }
        let (q1, q3) = stats::quartiles(&values);
        let _ = writeln!(
            out,
            "{name}: median {median} q1 {q1} q3 {q3} spread {:.4} over {} runs",
            (q3 - q1) / median.abs(),
            values.len()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(companies: &str, threads: u32, p50: f64) -> Value {
        let text = format!(
            "{{\"workload\": \"serve_scan\", \"trace\": false, \"hardware_threads\": {threads}, \
             \"params\": {{\"companies\": \"{companies}\"}}, \
             \"metrics\": {{\"p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}, \"reported\": {{}}}}"
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn mismatched_scale_or_host_is_not_compared() {
        let base = record("200000", 2, 4.0);
        assert!(compare_records(&base, &record("200000", 2, 3.0))
            .unwrap()
            .contains("p50_ms: 4 -> 3 (0.7500x)"));
        assert!(compare_records(&base, &record("1000", 2, 3.0)).is_err());
        assert!(compare_records(&base, &record("200000", 1, 3.0)).is_err());
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let spec: Value = serde_json::from_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            match field(&spec, key) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|m| match (field(m, "name"), field(m, "unit")) {
                        (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                        other => panic!("bad metric entry {other:?}"),
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let own = |r: &[(&str, &str)]| -> Vec<(String, String)> {
            r.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        for name in all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
