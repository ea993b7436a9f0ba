//! train_sharded: an out-of-core refit. A seeded 4-shard store is fitted
//! with `fit_lda_sharded_gibbs` at K=32 for a fixed sweep count, in a child
//! process of its own so its peak RSS is the fit's alone, then scored by
//! held-out document-completion perplexity.
//!
//! Sweep and shard-step times are read from outside the sampler: the fit
//! runs under a `RunGuard` whose clock records when each shard step begins
//! (the guard consults its clock once per step).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hlm_corpus::{CorpusSource, ShardStore};
use hlm_engine::TrainPlan;
use hlm_lda::LdaConfig;
use hlm_resilience::{Clock, RunGuard};
use serde::Value;

use crate::check::{as_f64, field};
use crate::inputs::{self, InputDir};
use crate::metrics::{hardware_threads, Outcome};
use crate::serve::{check_repeat, finish_layers, fresh_recorder, FitObs};
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;

/// First argument that runs the fit child instead of a workload.
pub const CHILD_FLAG: &str = "fit-child";

/// Companies in the store.
const COMPANIES: usize = 200_000;
/// Shards in the store.
const SHARDS: usize = 4;
/// Topics: `Auto` routes K=32 to the SparseLDA bucket kernel.
const TOPICS: usize = 32;
/// Gibbs sweeps per fit.
const SWEEPS: usize = 24;
/// Held-out companies scored for perplexity.
const HELDOUT: usize = 2_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn lda_config(vocab_size: usize) -> LdaConfig {
    LdaConfig {
        n_topics: TOPICS,
        vocab_size,
        n_iters: SWEEPS,
        burn_in: SWEEPS / 2,
        sample_lag: 5,
        ..Default::default()
    }
}

fn ensure_inputs(ctx: &Ctx) -> Result<PathBuf, String> {
    let name = format!("train_sharded-n{COMPANIES}-s{SHARDS}-seed{}", ctx.seed);
    let dir = InputDir::ensure(&ctx.dir("inputs")?, &name, |dir| {
        let cfg = hlm_datagen::GeneratorConfig::with_size_and_seed(COMPANIES, ctx.seed);
        let store = hlm_datagen::generate_sharded(&cfg, SHARDS, dir.join("store"))
            .map_err(|e| format!("generating the store: {e}"))?;
        // The sampler's tokens: distinct products per company.
        let mut tokens = 0usize;
        for s in 0..store.n_shards() {
            let shard = store
                .read_shard(s)
                .map_err(|e| format!("reading shard {s}: {e}"))?;
            tokens += shard.iter().map(|c| c.product_set().len()).sum::<usize>();
        }
        inputs::write(dir, "doc_tokens", tokens.to_string().as_bytes())
    })?;
    Ok(dir.dir)
}

/// Records the instant each shard step begins.
#[derive(Clone, Default)]
struct StepClock(Arc<Mutex<Vec<Instant>>>);

impl Clock for StepClock {
    fn elapsed_millis(&self) -> u64 {
        self.0.lock().expect("step clock lock").push(Instant::now());
        0
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// The fit child: `perfbench fit-child <input dir> <work dir> <seed> <0|1>`.
/// Prints one JSON object on stdout; returns the exit code.
pub fn child_main(args: &[String]) -> i32 {
    match child(args) {
        Ok(json) => {
            println!("{json}");
            0
        }
        Err(e) => {
            eprintln!("error: fit child: {e}");
            1
        }
    }
}

fn child(args: &[String]) -> Result<String, String> {
    let [input, work, seed, trace] = args else {
        return Err(format!("expected 4 arguments, got {args:?}"));
    };
    let input = Path::new(input);
    let work = Path::new(work);
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let tracer = Tracer::new(trace == "1");
    let root = tracer.id();
    let root_start = tracer.now_us();
    let store_dir = input.join("store");

    let spill = work.join("spill");
    // Set-up is everything before the first sweep: opening the store and
    // the sampler's initial pass (topic draws and first spills over every
    // shard). A fit cancelled at its first sweep measures exactly that.
    let mut opens = Vec::with_capacity(SETUPS);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut store = None;
    for _ in 0..SETUPS {
        let (s, open_ms) = tracer.span("corpus.store_open", Some(root), None, |_| {
            ShardStore::open(&store_dir)
        });
        let s = s.map_err(|e| e.to_string())?;
        let guard = RunGuard::unlimited().abort_at_iteration(0);
        let (init, init_ms) = tracer.span("engine.fit_lda_sharded_gibbs", Some(root), None, |_| {
            hlm_engine::fit_lda_sharded_gibbs(
                lda_config(s.vocab().len()),
                &s,
                &spill,
                TrainPlan::new().with_guard(guard),
            )
        });
        match init {
            Err(e) if e.is_interruption() => {}
            other => {
                return Err(format!(
                    "set-up fit was not cancelled at its first sweep: {other:?}"
                ))
            }
        }
        opens.push(open_ms);
        setups.push(open_ms + init_ms);
        store = Some(s);
    }
    let store = store.expect("set up at least once");

    let mut pass_ms = 0.0;
    if tracer.enabled() {
        let (companies, ms) = tracer.span("corpus.shard_pass", Some(root), None, |_| {
            (0..store.n_shards())
                .map(|s| store.read_shard(s).map(|c| c.len()))
                .sum::<Result<usize, _>>()
        });
        if companies.map_err(|e| e.to_string())? != store.n_companies() {
            return Err("shard pass lost companies".into());
        }
        pass_ms = ms;
        fresh_recorder();
    }

    let clock = StepClock::default();
    let guard = RunGuard::unlimited()
        .with_clock(Box::new(clock.clone()))
        .with_deadline_millis(u64::MAX);
    let mut fit_span = 0;
    let (fit, fit_ms) = tracer.span("engine.fit_lda_sharded_gibbs", Some(root), None, |id| {
        fit_span = id;
        hlm_engine::fit_lda_sharded_gibbs(
            lda_config(store.vocab().len()),
            &store,
            &spill,
            TrainPlan::new().with_guard(guard),
        )
    });
    let fit_end = Instant::now();
    let model = fit.map_err(|e| e.to_string())?.model;
    let obs = FitObs::read();
    tracer.attribute(fit_span, "lda.gibbs.shard_steps", obs.sampling_ms());
    let spill_bytes = dir_bytes(&spill);

    let heldout = inputs::corpus(HELDOUT, inputs::heldout_seed(seed));
    let (perplexity, _) = tracer.span(
        "lda.document_completion_perplexity",
        Some(root),
        None,
        |_| crate::check::heldout_perplexity(&model, &heldout),
    );
    let end = tracer.now_us();
    tracer.record(crate::trace::SpanRec {
        id: root,
        parent: None,
        name: "bench.train_sharded".into(),
        req: None,
        start_us: root_start,
        end_us: end,
    });

    let mut steps: Vec<Instant> = clock.0.lock().expect("step clock lock").clone();
    steps.push(fit_end);
    let step_ms: Vec<f64> = steps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    let rss_mb = hlm_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0));
    let tokens: f64 = inputs::read(input, "doc_tokens")?
        .trim()
        .parse()
        .map_err(|_| "bad doc_tokens")?;

    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:?}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let layers: Vec<String> = tracer
        .self_ms_by_layer()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:?}"))
        .collect();
    if tracer.enabled() {
        std::fs::write(work.join("spans.jsonl"), tracer.to_jsonl())
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    Ok(format!(
        "{{\"setup_ms\":[{}],\"open_ms\":[{}],\"step_ms\":[{}],\"fit_ms\":{fit_ms:?},\
         \"tokens\":{tokens:?},\"shards\":{},\"companies\":{},\
         \"perplexity\":{perplexity:?},\"rss_mb\":{rss_mb:?},\
         \"pass_ms\":{pass_ms:?},\"spill_bytes\":{spill_bytes},\
         \"sweep_ms\":[{:?},{}],\"shard_ms\":[{:?},{}],\"samplers\":[{},{},{}],\
         \"par_tasks\":{:?},\"par_busy_s\":{:?},\"threads\":{},\"layers\":{{{}}}}}",
        list(&setups),
        list(&opens),
        list(&step_ms),
        store.n_shards(),
        store.n_companies(),
        obs.sweep_ms.0,
        obs.sweep_ms.1,
        obs.shard_ms.0,
        obs.shard_ms.1,
        obs.samplers[0],
        obs.samplers[1],
        obs.samplers[2],
        obs.par_tasks,
        obs.par_busy_s,
        hlm_engine::effective_threads(),
        layers.join(",")
    ))
}

/// The child's figures, parsed.
struct ChildRun {
    v: Value,
}

impl ChildRun {
    fn num(&self, key: &str) -> f64 {
        field(&self.v, key).and_then(as_f64).unwrap_or(f64::NAN)
    }

    fn list(&self, key: &str) -> Vec<f64> {
        match field(&self.v, key) {
            Some(Value::Seq(items)) => items
                .iter()
                .map(|v| as_f64(v).unwrap_or(f64::NAN))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn layers(&self) -> BTreeMap<String, f64> {
        match field(&self.v, "layers") {
            Some(Value::Map(items)) => items
                .iter()
                .map(|(k, v)| (k.clone(), as_f64(v).unwrap_or(f64::NAN)))
                .collect(),
            _ => BTreeMap::new(),
        }
    }
}

fn run_child(ctx: &Ctx, input: &Path, trace: bool) -> Result<ChildRun, String> {
    let work = ctx.dir("run-train_sharded")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .arg(CHILD_FLAG)
        .arg(input)
        .arg(&work)
        .arg(ctx.seed.to_string())
        .arg(if trace { "1" } else { "0" })
        .output()
        .map_err(|e| format!("cannot run the fit child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "fit child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    let v = serde_json::from_str(line).map_err(|e| format!("fit child output: {e}"))?;
    Ok(ChildRun { v })
}

/// End-to-end figures of one fit.
struct E2e {
    setup_s: f64,
    mean_ms: f64,
    p50_ms: f64,
    tail: stats::Pct,
    tokens_per_s: f64,
    rss_mb: f64,
    perplexity: f64,
}

fn e2e(r: &ChildRun) -> Result<E2e, String> {
    let steps = r.list("step_ms");
    let sweep_ms: Vec<f64> = steps.chunks(SHARDS).map(|c| c.iter().sum()).collect();
    // 4 shards × 24 sweeps: 96 steps, 24 of them beyond the p75.
    let tail = stats::percentile(&steps, 75.0)
        .ok_or_else(|| format!("{} shard steps cannot support a p75", steps.len()))?;
    Ok(E2e {
        setup_s: stats::median(&r.list("setup_ms")) / 1e3,
        mean_ms: stats::mean(&sweep_ms),
        p50_ms: stats::median(&sweep_ms),
        tail,
        tokens_per_s: r.num("tokens") * SWEEPS as f64 / (r.num("fit_ms") / 1e3),
        rss_mb: r.num("rss_mb"),
        perplexity: r.num("perplexity"),
    })
}

/// Runs train_sharded.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let input = ensure_inputs(ctx)?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.params = vec![
        ("companies".into(), COMPANIES.to_string()),
        ("shards".into(), SHARDS.to_string()),
        ("topics".into(), TOPICS.to_string()),
        ("sweeps".into(), SWEEPS.to_string()),
        ("sampler".into(), "auto".into()),
        ("setups".into(), SETUPS.to_string()),
    ];
    let r = run_child(ctx, &input, false)?;
    let m = e2e(&r)?;
    let steps = r.list("step_ms").len();
    if steps != SWEEPS * SHARDS {
        out.fail(format!(
            "{steps} shard steps timed, expected {}",
            SWEEPS * SHARDS
        ));
    }
    if !(m.perplexity.is_finite() && m.perplexity > 1.0 && m.perplexity < 38.0) {
        out.fail(format!(
            "heldout_perplexity {} outside (1, 38)",
            m.perplexity
        ));
    }
    let key = format!(
        "train_sharded-n{COMPANIES}-s{SHARDS}-k{TOPICS}-i{SWEEPS}-seed{}",
        ctx.seed
    );
    check_repeat(ctx, &key, m.perplexity, &mut out)?;
    out.attempted = SWEEPS as u64;
    out.failed = 0;
    out.facts = vec![
        ("companies".into(), format!("{}", r.num("companies"))),
        ("tokens".into(), format!("{}", r.num("tokens"))),
        ("shards".into(), format!("{}", r.num("shards"))),
        ("heldout_companies".into(), HELDOUT.to_string()),
        ("fit_threads".into(), format!("{}", r.num("threads"))),
        ("hardware_threads".into(), hardware_threads().to_string()),
        ("git_rev".into(), crate::metrics::git_rev()),
        ("seed".into(), ctx.seed.to_string()),
    ];
    out.report("setup_s", m.setup_s, "s");
    out.report("sweep_mean_ms", m.mean_ms, "ms");
    out.report("sweep_p50_ms", m.p50_ms, "ms");
    out.report("shard_step_p75_ms", m.tail.value, "ms");
    out.report("shard_step_samples", m.tail.n as f64, "count");
    out.report("fit_s", r.num("fit_ms") / 1e3, "s");
    out.report("train_tokens_per_s", m.tokens_per_s, "1/s");
    out.report("peak_rss_mb", m.rss_mb, "MB");
    out.report("heldout_perplexity", m.perplexity, "1");

    if !ctx.trace {
        for (name, value) in [
            ("setup_s", m.setup_s),
            ("latency_ms", m.p50_ms),
            ("peak_rss_mb", m.rss_mb),
            ("heldout_perplexity", m.perplexity),
        ] {
            out.gated.insert(name.into(), value);
        }
        return Ok(out);
    }

    let t = run_child(ctx, &input, true)?;
    let tm = e2e(&t)?;
    let pair = |key: &str| {
        let v = t.list(key);
        (
            v.first().copied().unwrap_or(0.0),
            v.get(1).copied().unwrap_or(0.0) as u64,
        )
    };
    let samplers = t.list("samplers");
    let obs = FitObs {
        sweep_ms: pair("sweep_ms"),
        shard_ms: pair("shard_ms"),
        ckpt_ms: (0.0, 0),
        ckpt_bytes: 0.0,
        ckpt_failures: 0.0,
        samplers: [0, 1, 2].map(|i| samplers.get(i).copied().unwrap_or(0.0)),
        par_tasks: t.num("par_tasks"),
        par_busy_s: t.num("par_busy_s"),
    };
    obs.record(t.num("fit_ms"), &mut out);
    for name in crate::metrics::PER_LAYER.iter().map(|(n, _)| *n) {
        if name.starts_with("serve.")
            || name.starts_with("core.")
            || name.starts_with("resilience.")
        {
            out.gated.insert(name.into(), 0.0);
        }
    }
    for (name, value) in [
        ("engine.fallback_fit_ms", 0.0),
        ("engine.recommend_us", 0.0),
        ("lda.checkpoint_decode_ms", 0.0),
        ("corpus.csv_load_ms", 0.0),
        ("corpus.store_open_ms", stats::mean(&t.list("open_ms"))),
        ("corpus.shard_pass_ms", t.num("pass_ms")),
        ("corpus.spill_bytes", t.num("spill_bytes")),
    ] {
        out.gated.insert(name.into(), value);
    }
    let spans = std::fs::read_to_string(ctx.dir("run-train_sharded")?.join("spans.jsonl"))
        .map_err(|e| format!("fit child spans: {e}"))?;
    finish_layers(
        &t.layers(),
        &spans,
        ctx,
        "train_sharded",
        &[
            ("setup_s", tm.setup_s, m.setup_s),
            ("latency_ms", tm.p50_ms, m.p50_ms),
            ("shard_step_p75_ms", tm.tail.value, m.tail.value),
            ("train_tokens_per_s", tm.tokens_per_s, m.tokens_per_s),
            ("peak_rss_mb", tm.rss_mb, m.rss_mb),
        ],
        &mut out,
    )?;
    if tm.perplexity.to_bits() != m.perplexity.to_bits() {
        out.fail(format!(
            "traced fit perplexity {} differs from the untraced {}",
            tm.perplexity, m.perplexity
        ));
    }
    Ok(out)
}
