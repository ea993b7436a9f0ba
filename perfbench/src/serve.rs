//! serve_hot and serve_scan: a separate `hlm serve` process driven over
//! HTTP, every answer validated, and a reference model rebuilt in-process
//! from the same CSVs to score recall and held-out perplexity.
//!
//! The traced run repeats the pass with the benchmark's spans on, scrapes
//! the server's own counters, and replays setup, swaps and queries through
//! the public functions each layer exports.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use hlm_core::{CompanyFilter, DistanceMetric};
use hlm_corpus::{CompanyId, Corpus, Vocabulary};
use hlm_engine::{lda_trained, Engine, LdaEstimator, ServeOptions, TrainPlan};
use hlm_lda::{GibbsTrainer, LdaConfig, LdaModel, GIBBS_CHECKPOINT_KIND};
use hlm_linalg::Matrix;
use hlm_resilience::CheckpointStore;

use crate::check::{self, Fail, GenWindow};
use crate::http;
use crate::inputs::{self, HotTraffic, InputDir, Op, Rng, Schedule, K};
use crate::loadgen::{self, Sample};
use crate::metrics::{hardware_threads, Outcome};
use crate::server::{Prom, ServerProc};
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;

/// One serve workload.
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Companies in the generated CSV.
    pub companies: usize,
    /// Run `hlm serve --checkpoint-dir` (cold start checkpoints every
    /// sweep; `POST /admin/swap` reloads the latest good checkpoint).
    pub checkpointed: bool,
    /// Open loop with a rate ladder (else a closed loop).
    pub open_loop: bool,
    /// Sender threads, each with at most one connection open.
    pub connections: usize,
}

/// Many reps looking up popular accounts while models are hot-swapped.
pub const HOT: ServeSpec = ServeSpec {
    name: "serve_hot",
    companies: 50_000,
    checkpointed: true,
    open_loop: true,
    connections: 2,
};

/// One territory-sweep script scoring every account once, over one
/// keep-alive connection. With two, throughput across seeds spread from
/// 1237 to 2163 req/s on the reference host. Not in `BENCHMARK.json`: on a
/// shared 2-vCPU host its requests fall into a fast and a slow mode whose
/// mix follows the host's load, so its median jumps between the modes.
pub const SCAN: ServeSpec = ServeSpec {
    name: "serve_scan",
    companies: 100_000,
    checkpointed: false,
    open_loop: false,
    connections: 1,
};

/// Server spawns per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Companies whose similar answers are scored against the exact scan.
const PROBES: usize = 50;
/// Held-out companies for perplexity.
const HELDOUT: usize = 2_000;
/// Latency limit of a ladder rung, on its p99 from the due time.
const P99_LIMIT_MS: f64 = 50.0;
/// Failure share a ladder rung may have.
const FAIL_LIMIT: f64 = 0.01;
/// Schedule entries the traced run replays in-process.
const REPLAY_REQUESTS: usize = 4_000;
/// Lowest recall@10 an exact f64 server may show (ties count as hits).
const MIN_RECALL: f64 = 0.99;
/// `hlm serve` defaults the benchmark relies on: LDA3, 60 sweeps, 250 ms.
const SERVE_TOPICS: usize = 3;
const SERVE_ITERS: usize = 60;
const DEADLINE_MS: u64 = 250;

/// Requests of the 150 req/s ladder rung: enough for a p99 with ten samples
/// beyond it.
const RUNG_REQUESTS: f64 = 1_010.0;
/// Requests of the saturating 400 req/s rung, whose median latency from the
/// send is serve_hot's gated `latency_ms`.
const SATURATED_REQUESTS: f64 = 2_000.0;

/// serve_hot traffic for a measured window of `seconds`: a 150 req/s rung
/// of [`RUNG_REQUESTS`] and a 400 req/s rung of [`SATURATED_REQUESTS`],
/// after the rest of the window at the 135 req/s base rate with two swaps.
/// Two connections without keep-alive sustain about 330–380 req/s on a
/// 2-thread host (the accept loop sleeps 5 ms when idle), so the 150 rung
/// passes with room and the 400 rung keeps both connections busy: it is
/// the headroom a faster connection path would show.
pub fn hot_traffic(seconds: f64) -> HotTraffic {
    let ladder = vec![
        (150.0, RUNG_REQUESTS / 150.0),
        (400.0, SATURATED_REQUESTS / 400.0),
    ];
    HotTraffic {
        zipf_s: 1.1,
        base_rate: 135.0,
        base_secs: seconds - ladder.iter().map(|r| r.1).sum::<f64>(),
        ladder,
        swaps_at: vec![0.3, 0.7],
    }
}

/// The LDA shape `hlm serve` trains (mirrors the CLI's serving config).
fn serve_config(vocab_size: usize) -> LdaConfig {
    LdaConfig {
        n_topics: SERVE_TOPICS,
        vocab_size,
        n_iters: SERVE_ITERS,
        burn_in: SERVE_ITERS / 2,
        sample_lag: 5,
        ..Default::default()
    }
}

fn ensure_inputs(spec: &ServeSpec, ctx: &Ctx) -> Result<PathBuf, String> {
    // Any change to the traffic plan gets fresh inputs.
    let plan = format!("{:?}", spec.open_loop.then(|| hot_traffic(ctx.seconds)));
    let name = format!(
        "{}-n{}-{:016x}-seed{}",
        spec.name,
        spec.companies,
        hlm_corpus::shard::fnv1a(plan.as_bytes()),
        ctx.seed
    );
    let inputs = InputDir::ensure(&ctx.dir("inputs")?, &name, |dir| {
        let corpus = inputs::corpus(spec.companies, ctx.seed);
        let (companies, events) = inputs::csv_files(&corpus);
        let data = dir.join("data");
        std::fs::create_dir_all(&data).map_err(|e| format!("cannot create data dir: {e}"))?;
        inputs::write(&data, "companies.csv", companies.as_bytes())?;
        inputs::write(&data, "events.csv", events.as_bytes())?;
        let schedule = if spec.open_loop {
            inputs::hot_schedule(&corpus, &hot_traffic(ctx.seconds), ctx.seed)
        } else {
            inputs::scan_schedule(&corpus, ctx.seed)
        };
        inputs::write(dir, "schedule.tsv", schedule.to_text().as_bytes())
    })?;
    Ok(inputs.dir)
}

/// One pass against a live server.
struct Pass {
    setups: Vec<f64>,
    /// Server `VmHWM` when it first answered ready, per setup.
    setup_rss_mb: Vec<f64>,
    spawn_span: u64,
    first_generation: u64,
    samples: Vec<Sample>,
    connections: usize,
    window_s: f64,
    probes: Vec<(u32, u16, Vec<u8>)>,
    /// Server `VmHWM` at the end of the pass.
    peak_rss_mb: f64,
    prom: Prom,
}

fn probe_ids(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed, 6);
    (0..PROBES).map(|_| rng.below(n) as u32).collect()
}

fn pass(
    spec: &ServeSpec,
    ctx: &Ctx,
    data: &Path,
    schedule: &Schedule,
    setups: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Pass, String> {
    let run = ctx.dir(&format!("run-{}", spec.name))?;
    let ckpt = run.join("ckpt");
    let mut setup_times = Vec::new();
    let mut setup_rss = Vec::new();
    let mut server: Option<ServerProc> = None;
    let mut spawn_span = 0;
    for _ in 0..setups.max(1) {
        // Kill the previous server before the next cold start.
        drop(server.take());
        if spec.checkpointed && ckpt.exists() {
            std::fs::remove_dir_all(&ckpt).map_err(|e| format!("cannot clear checkpoints: {e}"))?;
        }
        let (started, _) = tracer.span("serve.spawn_to_ready", parent, None, |id| {
            spawn_span = id;
            ServerProc::start(
                &ctx.hlm,
                data,
                spec.checkpointed.then_some(ckpt.as_path()),
                &run,
            )
        });
        let started = started?;
        setup_times.push(started.setup_s);
        setup_rss.push(started.peak_rss_mb()?);
        server = Some(started);
    }
    let server = server.expect("at least one setup ran");
    let addr = server.addr;

    // The serving generation before any swap; recommend answers bypass the
    // cache, so this probe leaves the cache as the workload finds it.
    let first = http::one_shot(addr, "GET", "/v1/recommend?history=0&top=1")
        .map_err(|e| format!("generation probe: {e}"))?;
    let first_generation =
        check::generation(&first.body).ok_or("generation probe: no generation in the answer")?;

    let ((samples, connections), window_ms) = tracer.span("bench.load", parent, None, |id| {
        if spec.open_loop {
            let samples =
                loadgen::open_loop(addr, &schedule.entries, spec.connections, tracer, Some(id));
            (samples, 0)
        } else {
            loadgen::closed_loop(
                addr,
                &schedule.entries,
                spec.connections,
                Duration::from_secs_f64(ctx.seconds),
                tracer,
                Some(id),
            )
        }
    });
    let window_s = if spec.open_loop {
        window_ms / 1e3
    } else {
        samples.iter().map(|s| s.done_us).fold(0.0, f64::max) / 1e6
    };

    // Counters first, so the probes below do not count as traffic.
    let prom = server.metrics()?;
    let probes = probe_ids(spec.companies, ctx.seed)
        .into_iter()
        .map(|c| {
            let target = format!("/v1/similar?company={c}&k={K}");
            match http::one_shot(addr, "GET", &target) {
                Ok(r) => (c, r.status, r.body),
                Err(_) => (c, 0, Vec::new()),
            }
        })
        .collect();
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(server);
    Ok(Pass {
        setups: setup_times,
        setup_rss_mb: setup_rss,
        spawn_span,
        first_generation,
        samples,
        connections,
        window_s,
        probes,
        peak_rss_mb,
        prom,
    })
}

/// The model the server answers with, rebuilt in-process from the same
/// CSVs with the same configuration.
struct Reference {
    corpus: Corpus,
    reps: Matrix,
    perplexity: f64,
}

fn load_corpus(data: &Path) -> Result<Corpus, String> {
    let companies = inputs::read(data, "companies.csv")?;
    let events = inputs::read(data, "events.csv")?;
    hlm_corpus::io::from_csv(Vocabulary::standard(), &companies, &events)
        .map_err(|e| format!("reference corpus: {e}"))
}

fn reference(data: &Path, seed: u64) -> Result<Reference, String> {
    let corpus = load_corpus(data)?;
    let ids: Vec<CompanyId> = corpus.ids().collect();
    let docs = hlm_core::representations::binary_docs(&corpus, &ids);
    let model = hlm_engine::fit_lda_resilient(
        serve_config(corpus.vocab().len()),
        LdaEstimator::Gibbs,
        &docs,
        TrainPlan::new(),
    )
    .map_err(|e| format!("reference fit: {e}"))?
    .model;
    let reps = hlm_core::representations::lda_representations(&model, &docs);
    let heldout = inputs::corpus(HELDOUT, inputs::heldout_seed(seed));
    let perplexity = check::heldout_perplexity(&model, &heldout);
    Ok(Reference {
        corpus,
        reps,
        perplexity,
    })
}

/// Per-request verdicts of a pass.
struct Checked {
    ok: Vec<bool>,
    failed: u64,
    non200: u64,
    degraded: u64,
    hits: usize,
    probed: usize,
}

fn check_pass(pass: &Pass, schedule: &Schedule, r: &Reference, out: &mut Outcome) -> Checked {
    let entry = |s: &Sample| &schedule.entries[s.idx];
    let swaps: Vec<(f64, f64, u64)> = pass
        .samples
        .iter()
        .filter(|s| entry(s).op == Op::Swap && s.status == 200)
        .filter_map(|s| Some((s.sent_us, s.done_us, check::generation(&s.body)?)))
        .collect();
    let window = |s: &Sample| GenWindow {
        lo: swaps
            .iter()
            .filter(|w| w.1 <= s.sent_us)
            .map(|w| w.2)
            .max()
            .unwrap_or(pass.first_generation),
        hi: swaps
            .iter()
            .filter(|w| w.0 <= s.done_us)
            .map(|w| w.2)
            .max()
            .unwrap_or(pass.first_generation),
    };
    let mut c = Checked {
        ok: Vec::with_capacity(pass.samples.len()),
        failed: 0,
        non200: 0,
        degraded: 0,
        hits: 0,
        probed: 0,
    };
    for s in &pass.samples {
        let e = entry(s);
        let verdict = if s.status == 200 {
            check::validate(e.op, e.company, &s.body, &r.corpus, window(s))
        } else {
            Err(Fail::Status(s.status))
        };
        match &verdict {
            Ok(_) => {}
            Err(Fail::Degraded(why)) => {
                c.degraded += 1;
                if c.degraded <= 3 {
                    out.notes
                        .push(format!("degraded answer to {}: {why}", e.target));
                }
            }
            Err(Fail::Status(status)) => {
                c.non200 += 1;
                if c.non200 <= 3 {
                    out.notes.push(format!("status {status} for {}", e.target));
                }
            }
            Err(Fail::Invalid(why)) => out.fail(format!("{} {}: {why}", pass_name(e.op), e.target)),
        }
        c.failed += u64::from(verdict.is_err());
        c.ok.push(verdict.is_ok());
    }
    // Probes: exact-scan recall, and every served distance equal to the
    // exact one for that id.
    let last = swaps
        .iter()
        .map(|w| w.2)
        .max()
        .unwrap_or(pass.first_generation);
    for (company, status, body) in &pass.probes {
        if *status != 200 {
            out.fail(format!("probe {company}: status {status}"));
            continue;
        }
        let gen = GenWindow { lo: last, hi: last };
        match check::validate(Op::Similar, *company, body, &r.corpus, gen) {
            Ok(served) => match check::recall(&r.reps, *company as usize, &served) {
                Ok((hits, of)) => {
                    c.hits += hits;
                    c.probed += of;
                }
                Err(why) => out.fail(why),
            },
            Err(why) => out.fail(format!("probe {company}: {why:?}")),
        }
    }
    c
}

fn pass_name(op: Op) -> &'static str {
    match op {
        Op::Similar => "similar",
        Op::Whitespace => "whitespace",
        Op::Recommend => "recommend",
        Op::Swap => "swap",
    }
}

/// End-to-end figures of one checked pass.
struct E2e {
    /// The gated latency, a median timed from the send: on serve_hot over
    /// the saturating top rung, where each request waits about one
    /// accept-loop period; on serve_scan over the whole run. The base
    /// phase's median from the due time, the p90 and any throughput (a
    /// mean) follow the shared host's thread wake-up delays far more
    /// (`perfbench/README.md` gives the spreads).
    latency_ms: f64,
    /// Samples `latency_ms` is the median of.
    latency_n: usize,
    setup_s: f64,
    mean_ms: f64,
    p10_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99: stats::Pct,
    service_p99_ms: f64,
    /// `max_rps` on the open loop, `throughput_rps` on the closed loop.
    rate: f64,
    /// Open loop: achieved rate on the saturating top rung.
    capacity_rps: f64,
    setup_rss_mb: f64,
}

fn is_query(schedule: &Schedule, s: &Sample) -> bool {
    schedule.entries[s.idx].op != Op::Swap
}

/// What the ladder of an open-loop pass gave.
struct Ladder {
    /// Achieved rate of the highest passing rung; 0 when none passes.
    max_rps: f64,
    /// Latencies from the send of the top rung's queries, ms.
    top_service_ms: Vec<f64>,
    /// Achieved rate of the top rung.
    top_rps: f64,
}

/// The rung verdicts of an open-loop pass, the highest passing rate, and
/// the top rung's figures.
fn ladder(pass: &Pass, schedule: &Schedule, c: &Checked, out: &mut Outcome) -> Ladder {
    let mut result = Ladder {
        max_rps: 0.0,
        top_service_ms: Vec::new(),
        top_rps: 0.0,
    };
    for (pi, phase) in schedule.phases.iter().enumerate() {
        let in_phase: Vec<(usize, &Sample)> = pass
            .samples
            .iter()
            .enumerate()
            .filter(|(_, s)| schedule.entries[s.idx].phase == pi)
            .collect();
        let queries: Vec<(usize, &Sample)> = in_phase
            .iter()
            .copied()
            .filter(|(_, s)| is_query(schedule, s))
            .collect();
        let lat: Vec<f64> = queries.iter().map(|(_, s)| s.latency_ms()).collect();
        let failed = queries.iter().filter(|(i, _)| !c.ok[*i]).count();
        let fail_share = failed as f64 / queries.len().max(1) as f64;
        let late: Vec<f64> = in_phase.iter().map(|(_, s)| s.late_ms()).collect();
        let lateness = stats::lateness(&late);
        let p99 = stats::percentile(&lat, 99.0);
        let pass_ok = p99.is_some_and(|p| p.value <= P99_LIMIT_MS)
            && fail_share <= FAIL_LIMIT
            && !lateness.growing;
        let ok = queries.iter().filter(|(i, _)| c.ok[*i]).count();
        let span_s = (queries.iter().map(|(_, s)| s.done_us).fold(0.0, f64::max)
            - phase.start_us as f64)
            / 1e6;
        let achieved = ok as f64 / span_s.max(1e-9);
        out.notes.push(format!(
            "rung {pi}: offered {} req/s, achieved {achieved:.1} req/s, p99 {} ms (n={}), \
             fail_share {fail_share:.4}, lateness p99 {} ms max {:.2} ms{} -> {}",
            phase.rate,
            p99.map_or("n/a".into(), |p| format!("{:.2}", p.value)),
            lat.len(),
            lateness.p99_ms.map_or("n/a".into(), |v| format!("{v:.2}")),
            lateness.max_ms,
            if lateness.growing { " GROWING" } else { "" },
            if pass_ok { "pass" } else { "fail" }
        ));
        // The base phase (with its swaps) is reported but is not a rung.
        if pass_ok && pi > 0 {
            result.max_rps = result.max_rps.max(achieved);
        }
        if pi + 1 == schedule.phases.len() {
            result.top_service_ms = queries.iter().map(|(_, s)| s.service_ms()).collect();
            result.top_rps = achieved;
        }
    }
    result
}

fn e2e(
    spec: &ServeSpec,
    pass: &Pass,
    schedule: &Schedule,
    c: &Checked,
    out: &mut Outcome,
) -> Result<E2e, String> {
    // Open loop: base-phase queries timed from their due time; closed loop:
    // every request timed from its send.
    let measured: Vec<&Sample> = pass
        .samples
        .iter()
        .filter(|s| {
            !spec.open_loop || (is_query(schedule, s) && schedule.entries[s.idx].phase == 0)
        })
        .collect();
    let lat: Vec<f64> = measured
        .iter()
        .map(|s| {
            if spec.open_loop {
                s.latency_ms()
            } else {
                s.service_ms()
            }
        })
        .collect();
    let service: Vec<f64> = measured.iter().map(|s| s.service_ms()).collect();
    let pct = |v: &[f64], q: f64| {
        stats::percentile(v, q)
            .ok_or_else(|| format!("{} latencies cannot support a p{q}", v.len()))
    };
    let p50_ms = stats::median(&lat);
    let (rate, capacity_rps, gated) = if spec.open_loop {
        let l = ladder(pass, schedule, c, out);
        if l.top_service_ms.is_empty() {
            return Err("the top rung has no queries".into());
        }
        (l.max_rps, l.top_rps, l.top_service_ms)
    } else {
        let ok = c.ok.iter().filter(|&&ok| ok).count();
        (ok as f64 / pass.window_s, 0.0, lat.clone())
    };
    Ok(E2e {
        latency_ms: stats::median(&gated),
        latency_n: gated.len(),
        setup_s: stats::median(&pass.setups),
        mean_ms: stats::mean(&lat),
        p10_ms: pct(&lat, 10.0)?.value,
        p50_ms,
        p90_ms: pct(&lat, 90.0)?.value,
        p99: pct(&lat, 99.0)?,
        service_p99_ms: pct(&service, 99.0)?.value,
        rate,
        capacity_rps,
        setup_rss_mb: stats::median(&pass.setup_rss_mb),
    })
}

/// Flags a perplexity that differs in any bit from an earlier run with
/// the same workload parameters and seed.
pub fn check_repeat(ctx: &Ctx, key: &str, value: f64, out: &mut Outcome) -> Result<(), String> {
    let path = ctx.dir("results")?.join(format!("{key}.perplexity"));
    match std::fs::read_to_string(&path) {
        Ok(prev) => {
            let bits = format!("{:016x}", value.to_bits());
            if prev.trim() != bits {
                out.fail(format!(
                    "heldout_perplexity {value} (bits {bits}) differs from an earlier run \
                     with the same seed (bits {})",
                    prev.trim()
                ));
            }
            Ok(())
        }
        Err(_) => std::fs::write(&path, format!("{:016x}\n", value.to_bits()))
            .map_err(|e| format!("{}: {e}", path.display())),
    }
}

/// Writes the untraced pass's requests, one a line (schedule index, kind,
/// phase, due, sent and done in µs from the start, status), to
/// `results/<workload>-seed<n>-samples.tsv`.
fn write_samples(ctx: &Ctx, name: &str, pass: &Pass, schedule: &Schedule) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut text = String::from("idx\top\tphase\tdue_us\tsent_us\tdone_us\tstatus\n");
    for s in &pass.samples {
        let e = &schedule.entries[s.idx];
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{}",
            s.idx,
            pass_name(e.op),
            e.phase,
            s.due_us,
            s.sent_us,
            s.done_us,
            s.status
        );
    }
    let path = ctx
        .dir("results")?
        .join(format!("{name}-seed{}-samples.tsv", ctx.seed));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one serve workload.
pub fn run(spec: &ServeSpec, ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ensure_inputs(spec, ctx)?;
    let data = dir.join("data");
    let schedule = Schedule::from_text(&inputs::read(&dir, "schedule.tsv")?)?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.params = vec![
        ("companies".into(), spec.companies.to_string()),
        ("checkpointed".into(), spec.checkpointed.to_string()),
        ("seconds".into(), ctx.seconds.to_string()),
        (
            "load".into(),
            if spec.open_loop {
                format!(
                    "open loop, connection per request, {:?}",
                    hot_traffic(ctx.seconds)
                )
            } else {
                "closed loop over keep-alive connections, 2/3 similar 1/3 whitespace".into()
            },
        ),
        ("connections".into(), spec.connections.to_string()),
        ("setups".into(), SETUPS.to_string()),
    ];

    let untraced = pass(
        spec,
        ctx,
        &data,
        &schedule,
        SETUPS,
        &Tracer::new(false),
        None,
    )?;
    write_samples(ctx, spec.name, &untraced, &schedule)?;
    let r = reference(&data, ctx.seed)?;
    let c = check_pass(&untraced, &schedule, &r, &mut out);
    let m = e2e(spec, &untraced, &schedule, &c, &mut out)?;
    let key = format!(
        "{}-n{}-t{}-seed{}",
        spec.name, spec.companies, ctx.seconds, ctx.seed
    );
    check_repeat(ctx, &key, r.perplexity, &mut out)?;
    let recall = c.hits as f64 / c.probed.max(1) as f64;
    if recall < MIN_RECALL {
        out.fail(format!("recall_at_10 {recall} below {MIN_RECALL}"));
    }
    out.attempted = untraced.samples.len() as u64;
    out.failed = c.failed;
    facts(spec, &untraced, &schedule, &r, ctx, &mut out);
    out.report("setup_s", m.setup_s, "s");
    out.report("mean_ms", m.mean_ms, "ms");
    out.report("p10_ms", m.p10_ms, "ms");
    out.report("p50_ms", m.p50_ms, "ms");
    out.report("p90_ms", m.p90_ms, "ms");
    out.report("p99_ms", m.p99.value, "ms");
    out.report("p99_samples", m.p99.n as f64, "count");
    out.report("service_p99_ms", m.service_p99_ms, "ms");
    if spec.open_loop {
        out.report("max_rps", m.rate, "1/s");
        out.report("saturated_p50_ms", m.latency_ms, "ms");
        out.report("saturated_samples", m.latency_n as f64, "count");
        out.report("capacity_rps", m.capacity_rps, "1/s");
    } else {
        out.report("throughput_rps", m.rate, "1/s");
    }
    out.report(
        "fail_share",
        c.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.report("non_200", c.non200 as f64, "count");
    out.report("degraded", c.degraded as f64, "count");
    out.report("recall_at_10", recall, "ratio");
    out.report("peak_rss_mb", m.setup_rss_mb, "MB");
    out.report("peak_rss_end_mb", untraced.peak_rss_mb, "MB");
    out.report("heldout_perplexity", r.perplexity, "1");

    if !ctx.trace {
        for (name, value) in [
            ("setup_s", m.setup_s),
            ("latency_ms", m.latency_ms),
            ("peak_rss_mb", m.setup_rss_mb),
            ("heldout_perplexity", r.perplexity),
        ] {
            out.gated.insert(name.into(), value);
        }
        return Ok(out);
    }
    traced(spec, ctx, &data, &schedule, &r, &m, out)
}

fn facts(
    spec: &ServeSpec,
    p: &Pass,
    schedule: &Schedule,
    r: &Reference,
    ctx: &Ctx,
    out: &mut Outcome,
) {
    let hits = p.prom.get("serve.cache_hit");
    let misses = p.prom.get("serve.cache_miss");
    let count = |op: Op| {
        p.samples
            .iter()
            .filter(|s| schedule.entries[s.idx].op == op)
            .count()
    };
    let queries = p.samples.len() - count(Op::Swap);
    let per_conn = if spec.open_loop {
        1.0
    } else {
        p.samples.len() as f64 / p.connections.max(1) as f64
    };
    let offered = if spec.open_loop {
        schedule
            .phases
            .iter()
            .map(|ph| format!("{}", ph.rate))
            .collect::<Vec<_>>()
            .join("/")
            + " req/s by phase"
    } else {
        "closed loop (as fast as answered)".into()
    };
    out.facts = vec![
        (
            "cache_hit_share".into(),
            format!("{:.4}", hits / (hits + misses).max(1.0)),
        ),
        (
            "endpoint_mix".into(),
            format!(
                "similar {} / whitespace {} / recommend {} of {queries}",
                count(Op::Similar),
                count(Op::Whitespace),
                count(Op::Recommend)
            ),
        ),
        ("requests_per_connection".into(), format!("{per_conn:.1}")),
        ("offered_rate".into(), offered),
        (
            "achieved_rate".into(),
            format!(
                "{:.1} req/s over the window",
                queries as f64 / p.window_s.max(1e-9)
            ),
        ),
        ("swap_count".into(), count(Op::Swap).to_string()),
        ("companies".into(), r.corpus.len().to_string()),
        ("tokens".into(), r.corpus.total_tokens().to_string()),
        ("heldout_companies".into(), HELDOUT.to_string()),
        ("hardware_threads".into(), hardware_threads().to_string()),
        ("git_rev".into(), crate::metrics::git_rev()),
        ("seed".into(), ctx.seed.to_string()),
    ];
}

/// Sum and count of a histogram in the in-process recorder.
fn hist(snap: &hlm_obs::Snapshot, name: &str) -> (f64, u64) {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or((0.0, 0), |(_, h)| (h.sum, h.count))
}

fn counter(snap: &hlm_obs::Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Layer figures the program's own recorder gives for one fit.
pub struct FitObs {
    /// Σ sweep seconds, ms, and sweep count.
    pub sweep_ms: (f64, u64),
    /// Σ shard-step seconds, ms, and step count.
    pub shard_ms: (f64, u64),
    /// Σ checkpoint seconds, ms, and checkpoint count.
    pub ckpt_ms: (f64, u64),
    /// Σ checkpoint bytes.
    pub ckpt_bytes: f64,
    /// Failed checkpoint saves.
    pub ckpt_failures: f64,
    /// Sweeps per sampler kernel: dense, bucket, alias.
    pub samplers: [f64; 3],
    /// Tasks run on the worker pool.
    pub par_tasks: f64,
    /// Σ worker busy seconds.
    pub par_busy_s: f64,
}

impl FitObs {
    /// Reads the current process recorder.
    pub fn read() -> FitObs {
        let snap = hlm_obs::global().snapshot();
        let ms = |(s, n): (f64, u64)| (s * 1e3, n);
        FitObs {
            sweep_ms: ms(hist(&snap, "lda.gibbs.sweep_seconds")),
            shard_ms: ms(hist(&snap, "lda.gibbs.shard_seconds")),
            ckpt_ms: ms(hist(&snap, "resilience.checkpoint_seconds")),
            ckpt_bytes: hist(&snap, "resilience.checkpoint_bytes").0,
            ckpt_failures: counter(&snap, "resilience.checkpoint_failures"),
            samplers: [
                counter(&snap, "lda.sampler.dense"),
                counter(&snap, "lda.sampler.bucket"),
                counter(&snap, "lda.sampler.alias"),
            ],
            par_tasks: counter(&snap, "par.tasks"),
            par_busy_s: hist(&snap, "par.worker_busy_seconds").0,
        }
    }

    /// Σ sampling time, ms. The sharded trainer observes each sweep's last
    /// shard step under `lda.gibbs.sweep_seconds` and the others under
    /// `lda.gibbs.shard_seconds`, so only their sum covers every step; the
    /// in-memory trainer has no shard steps.
    pub fn sampling_ms(&self) -> f64 {
        self.sweep_ms.0 + self.shard_ms.0
    }

    /// Records this fit's per-layer metrics, `fit_ms` being its wall time.
    pub fn record(&self, fit_ms: f64, out: &mut Outcome) {
        let mean = |(s, n): (f64, u64)| if n == 0 { 0.0 } else { s / n as f64 };
        let sampling = self.sampling_ms();
        let g = &mut out.gated;
        g.insert("engine.fit_ms".into(), fit_ms);
        g.insert(
            "engine.fit_unattributed_ms".into(),
            fit_ms - sampling - self.ckpt_ms.0,
        );
        g.insert("lda.sweep_ms".into(), mean((sampling, self.sweep_ms.1)));
        g.insert(
            "lda.shard_step_ms".into(),
            if self.shard_ms.1 == 0 {
                0.0
            } else {
                mean((sampling, self.sweep_ms.1 + self.shard_ms.1))
            },
        );
        g.insert("lda.sampler.dense".into(), self.samplers[0]);
        g.insert("lda.sampler.bucket".into(), self.samplers[1]);
        g.insert("lda.sampler.alias".into(), self.samplers[2]);
        g.insert("resilience.checkpoint_ms".into(), mean(self.ckpt_ms));
        g.insert(
            "resilience.checkpoint_bytes".into(),
            if self.ckpt_ms.1 == 0 {
                0.0
            } else {
                self.ckpt_bytes / self.ckpt_ms.1 as f64
            },
        );
        g.insert("resilience.checkpoint_failures".into(), self.ckpt_failures);
        g.insert("par.tasks".into(), self.par_tasks);
        g.insert(
            "par.busy_share".into(),
            self.par_busy_s * 1e3 / (hlm_engine::effective_threads() as f64 * fit_ms).max(1e-9),
        );
    }
}

/// Installs a fresh in-process recorder, so each measured call reads only
/// its own counters.
pub fn fresh_recorder() {
    hlm_obs::install(hlm_obs::Recorder::enabled());
}

#[allow(clippy::too_many_lines)]
fn traced(
    spec: &ServeSpec,
    ctx: &Ctx,
    data: &Path,
    schedule: &Schedule,
    r: &Reference,
    untraced: &E2e,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let tracer = Tracer::new(true);
    let root = tracer.id();
    let root_start = tracer.now_us();

    // 1. The traced pass: same inputs, one setup, spans around every request.
    let p = pass(spec, ctx, data, schedule, 1, &tracer, Some(root))?;
    let c = check_pass(&p, schedule, r, &mut out);
    let mut scratch = Outcome::default();
    let m = e2e(spec, &p, schedule, &c, &mut scratch)?;
    // The server's own instruments, inside the spawn span.
    let sweeps_ms = p.prom.get("lda.gibbs.sweep_seconds_sum") * 1e3;
    let ckpt_ms = p.prom.get("resilience.checkpoint_seconds_sum") * 1e3;
    let fit_ms = p.prom.span_ms("engine.fit_lda_resilient");
    tracer.attribute(p.spawn_span, "lda.gibbs.sweep_seconds", sweeps_ms);
    tracer.attribute(p.spawn_span, "resilience.checkpoint_seconds", ckpt_ms);
    tracer.attribute(
        p.spawn_span,
        "engine.fit_lda_resilient",
        fit_ms - sweeps_ms - ckpt_ms,
    );

    // 2. Setup replayed in-process through each layer's public functions.
    let replay = tracer.id();
    let replay_start = tracer.now_us();
    let (corpus, csv_ms) =
        tracer.span("corpus.from_csv", Some(replay), None, |_| load_corpus(data));
    let corpus = Arc::new(corpus?);
    let ids: Vec<CompanyId> = corpus.ids().collect();
    let (docs, docs_ms) = tracer.span("core.binary_docs", Some(replay), None, |_| {
        hlm_core::representations::binary_docs(&corpus, &ids)
    });
    let ckpt_dir = ctx.dir(&format!("run-{}", spec.name))?.join("replay-ckpt");
    if ckpt_dir.exists() {
        std::fs::remove_dir_all(&ckpt_dir).map_err(|e| format!("cannot clear checkpoints: {e}"))?;
    }
    let plan = if spec.checkpointed {
        TrainPlan::new()
            .on_disk(&ckpt_dir)
            .map_err(|e| format!("checkpoint dir: {e}"))?
    } else {
        TrainPlan::new()
    };
    let config = serve_config(corpus.vocab().len());
    fresh_recorder();
    let mut fit_span = 0;
    let (fit, fit_wall_ms) = tracer.span("engine.fit_lda_resilient", Some(replay), None, |id| {
        fit_span = id;
        hlm_engine::fit_lda_resilient(config.clone(), LdaEstimator::Gibbs, &docs, plan)
    });
    let model: LdaModel = fit.map_err(|e| format!("replayed fit: {e}"))?.model;
    let obs = FitObs::read();
    hlm_obs::install(hlm_obs::Recorder::noop());
    tracer.attribute(fit_span, "lda.gibbs.sweep_seconds", obs.sampling_ms());
    tracer.attribute(fit_span, "resilience.checkpoint_seconds", obs.ckpt_ms.0);
    obs.record(fit_wall_ms, &mut out);

    let engine = Engine::new(Arc::clone(&corpus));
    let opts = ServeOptions {
        request_budget_millis: Some(DEADLINE_MS),
        ..ServeOptions::default()
    };
    let (reps, reps_ms) = tracer.span("core.lda_representations", Some(replay), None, |_| {
        hlm_core::representations::lda_representations(&model, &docs)
    });
    let (app, store_ms) = tracer.span("core.sales_app", Some(replay), None, |_| {
        engine.sales_app(reps, DistanceMetric::Cosine)
    });
    let mut app = app.map_err(|e| format!("replayed sales app: {e}"))?;
    let (resilient, fallback_ms) = tracer.span("engine.resilient_over", Some(replay), None, |_| {
        engine.resilient_over(lda_trained(model), opts.clone())
    });
    let mut resilient = resilient;

    // 3. Queries and swaps replayed in schedule order, cache attached: the
    //    first REPLAY_REQUESTS of the pass.
    let filter = CompanyFilter::default();
    let (mut sim_us, mut ws_us, mut rec_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut decode_ms, mut latest_ms) = (Vec::new(), Vec::new());
    // The first requests the pass sent, in the same order.
    let replayed = p.samples.len().min(REPLAY_REQUESTS);
    for (i, e) in schedule.entries.iter().enumerate().take(replayed) {
        let req = Some(i as u64);
        match e.op {
            Op::Similar => {
                let (res, ms) = tracer.span("core.find_similar_batch", Some(replay), req, |_| {
                    app.find_similar_batch(&[CompanyId(e.company)], K, &filter)
                });
                res.map_err(|e| format!("replayed similar: {e}"))?;
                sim_us.push(ms * 1e3);
            }
            Op::Whitespace => {
                let (res, ms) =
                    tracer.span("core.recommend_whitespace_batch", Some(replay), req, |_| {
                        app.recommend_whitespace_batch(&[CompanyId(e.company)], K, &filter)
                    });
                res.map_err(|e| format!("replayed whitespace: {e}"))?;
                ws_us.push(ms * 1e3);
            }
            Op::Recommend => {
                let history = inputs::history(&corpus, e.company);
                let (served, ms) =
                    tracer.span("engine.recommend_within", Some(replay), req, |_| {
                        resilient.recommend_within(&history, Some(DEADLINE_MS))
                    });
                if served.is_degraded() {
                    out.fail(format!("replayed recommend {i} degraded"));
                }
                rec_us.push(ms * 1e3);
            }
            Op::Swap => {
                let (swapped, _) = tracer.span("bench.swap", Some(replay), req, |swap| {
                    let store = CheckpointStore::on_disk(&ckpt_dir).map_err(|e| e.to_string())?;
                    let (good, ms) = tracer.span("resilience.latest_good", Some(swap), req, |_| {
                        store.latest_good(GIBBS_CHECKPOINT_KIND)
                    });
                    latest_ms.push(ms);
                    let good = good
                        .map_err(|e| e.to_string())?
                        .ok_or("no good checkpoint to swap in")?;
                    let (model, ms) =
                        tracer.span("lda.model_from_checkpoint", Some(swap), req, |_| {
                            GibbsTrainer::new(config.clone()).model_from_checkpoint(&good)
                        });
                    decode_ms.push(ms);
                    let model = model.map_err(|e| e.to_string())?;
                    let (docs, _) = tracer.span("core.binary_docs", Some(swap), req, |_| {
                        hlm_core::representations::binary_docs(&corpus, &ids)
                    });
                    let (reps, _) =
                        tracer.span("core.lda_representations", Some(swap), req, |_| {
                            hlm_core::representations::lda_representations(&model, &docs)
                        });
                    engine.serving_cache().invalidate();
                    let (new_app, _) = tracer.span("core.sales_app", Some(swap), req, |_| {
                        engine.sales_app(reps, DistanceMetric::Cosine)
                    });
                    let (new_res, _) =
                        tracer.span("engine.resilient_over", Some(swap), req, |_| {
                            engine.resilient_over(lda_trained(model), opts.clone())
                        });
                    Ok::<_, String>((new_app.map_err(|e| e.to_string())?, new_res))
                });
                let (new_app, new_res) = swapped.map_err(|e| format!("replayed swap: {e}"))?;
                app = new_app;
                resilient = new_res;
            }
        }
    }

    // 4. Request parsing and response writing on the pass's own bytes.
    let (parse_us, write_us) = parse_and_write(&p, schedule, &tracer, replay)?;
    let replay_end = tracer.now_us();
    tracer.record(crate::trace::SpanRec {
        id: replay,
        parent: Some(root),
        name: "bench.replay".into(),
        req: None,
        start_us: replay_start,
        end_us: replay_end,
    });
    tracer.record(crate::trace::SpanRec {
        id: root,
        parent: None,
        name: format!("bench.{}", spec.name),
        req: None,
        start_us: root_start,
        end_us: replay_end,
    });

    // 5. Per-layer metrics.
    let queries: Vec<&Sample> = p
        .samples
        .iter()
        .filter(|s| is_query(schedule, s) && s.status == 200)
        .collect();
    let server_ms =
        p.prom.get("serve.e2e_seconds_sum") * 1e3 / p.prom.get("serve.e2e_seconds_count").max(1.0);
    let client_ms = stats::mean(&queries.iter().map(|s| s.service_ms()).collect::<Vec<_>>());
    let count = |op: Op| {
        queries
            .iter()
            .filter(|s| schedule.entries[s.idx].op == op)
            .count() as f64
    };
    let (sim, ws, rec) = (
        stats::mean(&sim_us),
        stats::mean(&ws_us),
        stats::mean(&rec_us),
    );
    let kernel_us =
        (count(Op::Similar) * sim + count(Op::Whitespace) * ws + count(Op::Recommend) * rec)
            / (queries.len() as f64).max(1.0);
    let swap_ms: Vec<f64> = p
        .samples
        .iter()
        .filter(|s| schedule.entries[s.idx].op == Op::Swap)
        .map(Sample::service_ms)
        .collect();
    let hits = p.prom.get("serve.cache_hit");
    let misses = p.prom.get("serve.cache_miss");
    let rows = spec.companies as f64;
    let g = &mut out.gated;
    for (name, value) in [
        ("serve.server_ms", server_ms),
        ("serve.conn_path_ms", client_ms - server_ms),
        ("serve.wait_ms", server_ms - kernel_us / 1e3),
        ("serve.parse_us", parse_us),
        ("serve.write_us", write_us),
        ("serve.swap_count", swap_ms.len() as f64),
        (
            "serve.swap_ms",
            if swap_ms.is_empty() {
                0.0
            } else {
                stats::median(&swap_ms)
            },
        ),
        (
            "serve.swap_max_ms",
            swap_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("serve.shed", p.prom.get("serve.shed")),
        (
            "serve.deadline_exceeded",
            p.prom.get("serve.deadline_exceeded"),
        ),
        ("serve.degraded", p.prom.get("serve.degraded")),
        ("serve.rollback", p.prom.get("serve.rollback")),
        ("core.cache_hits", hits),
        ("core.cache_misses", misses),
        ("core.cache_hit_ratio", hits / (hits + misses).max(1.0)),
        ("core.similar_us", sim),
        ("core.whitespace_us", ws),
        ("core.rows_scored", misses * rows),
        (
            "core.bytes_scanned",
            misses * rows * SERVE_TOPICS as f64 * 8.0,
        ),
        ("core.binary_docs_ms", docs_ms),
        ("core.representations_ms", reps_ms),
        ("core.store_build_ms", store_ms),
        ("engine.fallback_fit_ms", fallback_ms),
        ("engine.recommend_us", rec),
        ("lda.checkpoint_decode_ms", stats::mean(&decode_ms)),
        ("corpus.csv_load_ms", csv_ms),
        ("corpus.store_open_ms", 0.0),
        ("corpus.shard_pass_ms", 0.0),
        ("corpus.spill_bytes", 0.0),
        ("resilience.latest_good_ms", stats::mean(&latest_ms)),
    ] {
        g.insert(name.into(), value);
    }
    finish_layers(
        &tracer.self_ms_by_layer(),
        &tracer.to_jsonl(),
        ctx,
        spec.name,
        &[
            ("setup_s", m.setup_s, untraced.setup_s),
            ("latency_ms", m.latency_ms, untraced.latency_ms),
            ("p99_ms", m.p99.value, untraced.p99.value),
            ("throughput", m.rate, untraced.rate),
            ("peak_rss_mb", m.setup_rss_mb, untraced.setup_rss_mb),
        ],
        &mut out,
    )?;
    Ok(out)
}

/// `http::read_request` and `Response::write_to` on the pass's recorded
/// request and response bytes; mean microseconds per call.
fn parse_and_write(
    p: &Pass,
    schedule: &Schedule,
    tracer: &Tracer,
    parent: u64,
) -> Result<(f64, f64), String> {
    let recorded: Vec<(Vec<u8>, &[u8])> = p
        .samples
        .iter()
        .filter(|s| s.status == 200 && is_query(schedule, s))
        .map(|s| {
            let e = &schedule.entries[s.idx];
            (
                http::request_bytes("GET", &e.target, true),
                s.body.as_slice(),
            )
        })
        .collect();
    if recorded.is_empty() {
        return Err("no recorded requests to replay".into());
    }
    let (parsed, parse_ms) = tracer.span("serve.read_request", Some(parent), None, |_| {
        recorded
            .iter()
            .map(|(req, _)| hlm_serve::http::read_request(&mut req.as_slice()).is_ok())
            .filter(|ok| *ok)
            .count()
    });
    if parsed != recorded.len() {
        return Err("the server's parser rejected a recorded request".into());
    }
    let (written, write_ms) = tracer.span("serve.write_to", Some(parent), None, |_| {
        let mut buf = Vec::with_capacity(4096);
        let mut total = 0;
        for (_, body) in &recorded {
            buf.clear();
            let resp =
                hlm_serve::http::Response::json(200, String::from_utf8_lossy(body).into_owned());
            if resp.write_to(&mut buf, true).is_ok() {
                total += buf.len();
            }
        }
        total
    });
    std::hint::black_box(written);
    let n = recorded.len() as f64;
    Ok((parse_ms * 1e3 / n, write_ms * 1e3 / n))
}

/// Layer self times, remainder and tracing overhead: printed, gated where
/// registered, and the spans written out.
pub fn finish_layers(
    by_layer: &std::collections::BTreeMap<String, f64>,
    spans_jsonl: &str,
    ctx: &Ctx,
    name: &str,
    overhead: &[(&str, f64, f64)],
    out: &mut Outcome,
) -> Result<(), String> {
    let total: f64 = by_layer.values().sum();
    let remainder = by_layer.get("bench").copied().unwrap_or(0.0);
    out.notes.push(format!(
        "layer self times (ms) over the traced run of {total:.1} ms:"
    ));
    for (layer, ms) in by_layer {
        out.notes.push(format!(
            "  {layer:<11} {ms:>12.3} ms  {:>5.1}%",
            100.0 * ms / total.max(1e-9)
        ));
    }
    out.notes.push(format!(
        "unattributed remainder (benchmark's own time): {remainder:.3} ms"
    ));
    out.gated.insert("bench.unattributed_ms".into(), remainder);
    for (metric, traced, untraced) in overhead {
        out.notes.push(format!(
            "tracing overhead {metric}: traced {traced} - untraced {untraced} = {}",
            traced - untraced
        ));
    }
    let latency = overhead.iter().find(|(m, ..)| *m == "latency_ms");
    out.gated.insert(
        "bench.trace_overhead_latency_ms".into(),
        latency.map_or(0.0, |(_, t, u)| t - u),
    );
    let path = ctx
        .dir("results")?
        .join(format!("{name}-seed{}-spans.jsonl", ctx.seed));
    std::fs::write(&path, spans_jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}
