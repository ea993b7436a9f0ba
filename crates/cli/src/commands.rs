//! The `hlm` subcommand implementations. Each returns its output as a
//! `String` so everything is testable without process spawning.

use crate::{CliError, ReplayFlags, ServeFlags, TopicsEstimator, TrainFlags};
use hlm_core::representations::{binary_docs, lda_representations};
use hlm_core::{CompanyFilter, DistanceMetric};
use hlm_corpus::io::{from_csv, from_csv_lenient, to_csv, LenientOptions, QuarantineReport};
use hlm_corpus::{Corpus, CorpusSource, Month, ShardStore, TimeWindow, Vocabulary};
use hlm_datagen::{EventStreamConfig, GeneratorConfig, LaunchSpec, MixShift};
use hlm_engine::{Engine, LdaEstimator, RunGuard, ServeOptions, TrainPlan};
use hlm_lda::{LdaConfig, LdaModel, OnlineVbOptions};
use hlm_resilience::CheckpointStore;
use hlm_serve::{bundle_from_checkpoint, bundle_from_model, BundleLoader, Server, ServerConfig};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Usage text.
pub(crate) fn help_text() -> String {
    format!(
        "\
hlm — hidden-layer models for company install bases

USAGE:
  hlm generate --out DIR [--companies N] [--seed S] [--shards S]
      Generate a synthetic install-base corpus. Without --shards, write
      DIR/companies.csv + DIR/events.csv in memory. With --shards S,
      stream-generate an out-of-core sharded store (DIR/manifest.json +
      shard_*.bin) one shard at a time — the corpus never has to fit in
      RAM, and its contents are bit-identical to the in-memory path.
  hlm stats --data DIR
      Corpus summary: sizes, industries, most/least common products.
      Malformed rows are quarantined (and reported) instead of aborting.
      On a sharded store, stats stream the manifest only: O(shards)
      memory at any corpus size.
  hlm topics --data DIR [--topics K] [--iters N] [--estimator E]
            [--sampler S] [--checkpoint-dir DIR] [--resume]
            [--max-seconds S]
      Train LDA and print the learned topics. --checkpoint-dir snapshots
      every sweep; --resume continues an interrupted run from the latest
      good checkpoint; --max-seconds bounds the wall-clock budget.
      On a sharded store the run is out-of-core (one shard in memory at
      a time, Gibbs results bit-identical to in-memory training) and
      --estimator picks gibbs (default; --iters = sweeps) or online-vb
      (Hoffman-style stochastic VB; --iters = epochs). --sampler picks
      the Gibbs token kernel: auto (default; dense up to {dense_max} topics,
      alias above), dense, or alias (LightLDA alias tables with
      Metropolis-Hastings correction; fastest at large K). A fixed
      choice is part of the sampling schedule — resume with the same
      one. A checkpoint from an auto fit at 17-64 topics written while
      the bucket kernel existed resumes under dense: a valid chain over
      the same conditional, but not the bits that run would have made.
  hlm similar --data DIR --company DUNS [--k K] [--whitespace W]
      Top-K most similar companies and whitespace recommendations.
  hlm serve --data DIR [--port P] [--port-file PATH] [--workers N]
            [--queue N] [--deadline-ms D] [--checkpoint-dir DIR]
            [--topics K] [--iters N]
      Long-running HTTP recommendation server (see README \"Serving\").
      Warm-starts from the latest good checkpoint in --checkpoint-dir
      when one exists (bit-identical to the run that wrote it), else
      trains first. Endpoints: /healthz /readyz /metrics /v1/similar
      /v1/whitespace /v1/recommend, POST /admin/swap (hot model swap
      with canary + rollback). Overload is shed with 503 + Retry-After;
      SIGTERM drains gracefully.
  hlm drift --data DIR --reference YYYY-MM --recent YYYY-MM [--months M]
      Chi-square concept-drift check between two M-month periods.
  hlm replay [--companies N] [--seed S] [--months M] [--policy P]
            [--topics K] [--iters N] [--launch YYYY-MM] [--shift YYYY-MM]
            [--significance A] [--reference-months R] [--recent-months C]
            [--top-n N] [--checkpoint-dir DIR] [--resume]
            [--abort-at SWEEP] [--abort-fit F] [--out CSV]
      Generate a timestamped event stream and replay its last M months
      against a live in-process server: each month's acquisitions are
      scored against the serving model (precision@N) before being applied,
      drift is tested on trailing reference/recent windows, and the model
      is retrained per --policy (never, periodic:N, or drift) then
      hot-swapped through POST /admin/swap. --launch grows the vocabulary
      mid-stream (served via incremental fold-in, no retrain); --shift
      plants a product-mix drift the detector must catch. Fits checkpoint
      under --checkpoint-dir/fit-NNN; --resume fast-forwards completed
      fits and continues an interrupted one bit-identically. --abort-at
      kills fit --abort-fit at that sweep (resume drill). --out writes
      the precision-over-time curve as CSV.
  hlm help
      This text.

GLOBAL OPTIONS:
  --threads N
      Worker threads for the parallel runtime (default: HLM_THREADS if
      set, else the detected core count). Results are bit-identical at
      any thread count; only the wall-clock changes. `stats` and
      `topics` end with an `elapsed: …s (N threads)` summary line.
  --par-threshold UNITS
      Minimum work (abstract cost units) before the worker pool engages;
      smaller workloads run serially with identical results (default:
      HLM_PAR_THRESHOLD if set, else a one-time calibration). 0 forces
      the pool on for every parallelizable call.
  --metrics PATH [--metrics-format jsonl|prom]
      Record structured metrics (spans, counters, histograms, traces)
      while the command runs and write a snapshot to PATH afterwards.
      jsonl (default) is a schema-versioned JSON-lines event log; prom
      is a Prometheus-style text snapshot. Recording is a read-only
      observer: results are bit-identical with or without it.

EXIT CODES:
  0 success   2 usage error   3 data error   4 engine/training error
",
        dense_max = hlm_lda::SamplerChoice::DENSE_MAX_TOPICS
    )
}

/// Reads `DIR/companies.csv` + `DIR/events.csv` as strings.
fn read_pair(data: &str) -> Result<(String, String), CliError> {
    let dir = Path::new(data);
    let companies = std::fs::read_to_string(dir.join("companies.csv"))
        .map_err(|e| CliError::Data(format!("cannot read {data}/companies.csv: {e}")))?;
    let events = std::fs::read_to_string(dir.join("events.csv"))
        .map_err(|e| CliError::Data(format!("cannot read {data}/events.csv: {e}")))?;
    Ok((companies, events))
}

/// Loads a corpus strictly (first malformed row is an error).
fn load(data: &str) -> Result<Corpus, CliError> {
    let (companies, events) = read_pair(data)?;
    from_csv(Vocabulary::standard(), &companies, &events).map_err(|e| CliError::Data(e.to_string()))
}

/// Loads a corpus leniently, quarantining malformed rows up to the default
/// error budget.
fn load_lenient(data: &str) -> Result<(Corpus, QuarantineReport), CliError> {
    let (companies, events) = read_pair(data)?;
    from_csv_lenient(
        Vocabulary::standard(),
        &companies,
        &events,
        &LenientOptions::default(),
    )
    .map_err(|e| CliError::Data(e.to_string()))
}

/// `hlm generate`.
pub fn generate(
    companies: usize,
    seed: u64,
    out: &str,
    shards: Option<usize>,
) -> Result<String, CliError> {
    if companies == 0 {
        return Err(CliError::Usage("--companies must be positive".into()));
    }
    if let Some(n_shards) = shards {
        // Out-of-core path: stream shards to disk, never holding more than
        // one shard of companies in memory.
        let cfg = GeneratorConfig::with_size_and_seed(companies, seed);
        let store = hlm_datagen::generate_sharded(&cfg, n_shards, Path::new(out))
            .map_err(|e| CliError::Data(e.to_string()))?;
        let m = store.manifest();
        return Ok(format!(
            "wrote {} companies ({} install events) to {out} as {} shard(s) of {} companies\n",
            m.n_companies,
            m.total_tokens,
            m.shards.len(),
            m.shard_size
        ));
    }
    let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(companies, seed));
    let (companies_csv, events_csv) = to_csv(&corpus);
    let dir = Path::new(out);
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::Data(format!("cannot create {out}: {e}")))?;
    std::fs::write(dir.join("companies.csv"), companies_csv)
        .map_err(|e| CliError::Data(format!("cannot write companies.csv: {e}")))?;
    std::fs::write(dir.join("events.csv"), events_csv)
        .map_err(|e| CliError::Data(format!("cannot write events.csv: {e}")))?;
    Ok(format!(
        "wrote {} companies ({} install events) to {out}/companies.csv and {out}/events.csv\n",
        corpus.len(),
        corpus.total_tokens()
    ))
}

/// True when `data` holds a sharded store rather than CSVs.
fn is_sharded(data: &str) -> bool {
    ShardStore::exists(Path::new(data))
}

/// Opens a sharded store, mapping failures to data errors.
fn open_store(data: &str) -> Result<ShardStore, CliError> {
    ShardStore::open(Path::new(data)).map_err(|e| CliError::Data(e.to_string()))
}

/// `hlm stats` on a sharded store: streams the manifest's shard headers
/// only, so memory stays O(shards) no matter how many companies the store
/// holds — this is what makes `stats` usable at the 1M-company scale.
fn stats_sharded(data: &str) -> Result<String, CliError> {
    let t0 = std::time::Instant::now();
    let store = open_store(data)?;
    let m = store.manifest();
    let mut out = String::new();
    let _ = writeln!(out, "sharded corpus:       {data}/manifest.json");
    let _ = writeln!(out, "companies:            {}", m.n_companies);
    let _ = writeln!(out, "product categories:   {}", m.vocab.len());
    let _ = writeln!(out, "install events:       {}", m.total_tokens);
    let _ = writeln!(
        out,
        "mean products/company: {:.2}",
        m.total_tokens as f64 / (m.n_companies.max(1)) as f64
    );
    let total_bytes: u64 = m.shards.iter().map(|s| s.bytes).sum();
    let _ = writeln!(
        out,
        "shards:               {} x {} companies ({:.1} MiB on disk)",
        m.shards.len(),
        m.shard_size,
        total_bytes as f64 / (1024.0 * 1024.0)
    );
    let show = m.shards.len().min(4);
    for entry in m.shards.iter().take(show) {
        let _ = writeln!(
            out,
            "  {:<16} companies {:>8}..{:<8} {:>10} events  {:>4} products",
            entry.file, entry.company_lo, entry.company_hi, entry.tokens, entry.products_used
        );
    }
    if m.shards.len() > show {
        let _ = writeln!(out, "  … {} more shard(s)", m.shards.len() - show);
    }
    let _ = writeln!(out, "{}", timing_summary(t0));
    Ok(out)
}

/// `hlm stats`. Uses the lenient CSV path: malformed rows are quarantined
/// and summarised rather than failing the whole command. Sharded stores take
/// the manifest-streaming path instead.
pub fn stats(data: &str) -> Result<String, CliError> {
    if is_sharded(data) {
        return stats_sharded(data);
    }
    let t0 = std::time::Instant::now();
    let (corpus, report) = load_lenient(data)?;
    let mut out = String::new();
    let _ = writeln!(out, "companies:            {}", corpus.len());
    let _ = writeln!(out, "product categories:   {}", corpus.vocab().len());
    let _ = writeln!(out, "install events:       {}", corpus.total_tokens());
    let _ = writeln!(
        out,
        "mean products/company: {:.2}",
        corpus.mean_products_per_company()
    );
    let _ = writeln!(out, "industries (SIC2):    {}", corpus.industries().len());

    let df = corpus.document_frequencies();
    let mut order: Vec<usize> = (0..df.len()).collect();
    order.sort_by_key(|&p| std::cmp::Reverse(df[p]));
    let name = |p: usize| corpus.vocab().name(hlm_corpus::ProductId(p as u16));
    let _ = writeln!(out, "most common products:");
    for &p in order.iter().take(5) {
        let _ = writeln!(out, "  {:<26} {:>6} companies", name(p), df[p]);
    }
    let _ = writeln!(out, "least common products:");
    for &p in order.iter().rev().take(3) {
        let _ = writeln!(out, "  {:<26} {:>6} companies", name(p), df[p]);
    }

    // Largest industries, with human-readable SIC names.
    let mut by_industry: std::collections::HashMap<hlm_corpus::Sic2, usize> =
        std::collections::HashMap::new();
    for c in corpus.companies() {
        *by_industry.entry(c.industry).or_insert(0) += 1;
    }
    let mut industries: Vec<(hlm_corpus::Sic2, usize)> = by_industry.into_iter().collect();
    industries.sort_by_key(|&(s, n)| (std::cmp::Reverse(n), s));
    let _ = writeln!(out, "largest industries:");
    for (sic, n) in industries.into_iter().take(5) {
        let _ = writeln!(
            out,
            "  {} {:<38} {:>6} companies",
            sic,
            hlm_corpus::sic::major_group_name(sic),
            n
        );
    }
    if !report.is_empty() {
        let _ = writeln!(out, "note: {}", report.summary());
        for row in report.rows().iter().take(5) {
            let _ = writeln!(out, "  {}.csv line {}: {}", row.file, row.line, row.reason);
        }
    }
    let _ = writeln!(out, "{}", timing_summary(t0));
    Ok(out)
}

/// The trailing `elapsed … (N threads)` summary line for commands that do
/// real work — the operator's first clue when tuning `--threads`. With
/// `--metrics` the recorder is live and the line also reports how many spans
/// were recorded and their summed root duration.
fn timing_summary(t0: std::time::Instant) -> String {
    let base = format!(
        "elapsed: {:.3}s ({} threads)",
        t0.elapsed().as_secs_f64(),
        hlm_engine::effective_threads()
    );
    let rec = hlm_obs::global();
    if !rec.is_enabled() {
        return base;
    }
    let (n_spans, root_ms) = rec.snapshot().span_totals();
    format!("{base} — {n_spans} spans, {root_ms:.1}ms in root spans")
}

/// Maps an engine failure, pointing interrupted runs at `--resume`.
fn engine_err(e: hlm_engine::EngineError) -> CliError {
    if e.is_interruption() {
        CliError::Engine(format!(
            "{e}; re-run with --resume to continue from the last checkpoint"
        ))
    } else {
        CliError::Engine(e.to_string())
    }
}

fn train_lda(
    corpus: &Corpus,
    topics: usize,
    iters: usize,
    sampler: hlm_lda::SamplerChoice,
    flags: &TrainFlags,
) -> Result<(LdaModel, Vec<String>), CliError> {
    let ids: Vec<_> = corpus.ids().collect();
    let docs = binary_docs(corpus, &ids);
    let config = LdaConfig {
        n_topics: topics,
        vocab_size: corpus.vocab().len(),
        n_iters: iters.max(2),
        burn_in: iters.max(2) / 2,
        sample_lag: 5,
        sampler,
        ..Default::default()
    };
    let plan = build_plan(flags)?;
    let fit = hlm_engine::fit_lda_resilient(config, LdaEstimator::Gibbs, &docs, plan)
        .map_err(engine_err)?;
    let notes = fit_notes(&fit, flags, "sweep");
    Ok((fit.model, notes))
}

/// Builds the resilience plan (store, resume, watchdog) from the CLI flags.
fn build_plan(flags: &TrainFlags) -> Result<TrainPlan, CliError> {
    let mut plan = TrainPlan::new().resume(flags.resume);
    if let Some(dir) = &flags.checkpoint_dir {
        plan = plan.on_disk(dir).map_err(engine_err)?;
    }
    let mut guard = RunGuard::unlimited();
    if let Some(secs) = flags.max_seconds {
        guard = guard.with_deadline_millis(secs.saturating_mul(1000));
    }
    if let Some(n) = flags.abort_at {
        guard = guard.abort_at_iteration(n);
    }
    Ok(plan.with_guard(guard))
}

/// Operator-facing notes about how a resilient fit got its model.
/// `unit` names the iteration granularity ("sweep" in memory, "step" —
/// one shard of one pass — out of core).
fn fit_notes(
    fit: &hlm_engine::ResilientFit<LdaModel>,
    flags: &TrainFlags,
    unit: &str,
) -> Vec<String> {
    let mut notes = Vec::new();
    if let Some(iter) = fit.resumed_from {
        notes.push(format!("resumed from checkpoint at {unit} {iter}"));
    }
    if fit.checkpoints_written > 0 {
        notes.push(format!(
            "wrote {} checkpoint(s) to {}",
            fit.checkpoints_written,
            flags.checkpoint_dir.as_deref().unwrap_or("?"),
        ));
    }
    if let Some(e) = &fit.rolled_back {
        notes.push(format!(
            "training diverged ({e}); rolled back to the last good checkpoint"
        ));
    }
    notes
}

/// Out-of-core LDA on a sharded store: one shard of companies in memory at
/// a time. Gibbs spills per-shard sampler state next to the checkpoints,
/// or without a checkpoint dir under the store until the fit returns;
/// online VB needs no spills.
fn train_lda_sharded(
    store: &ShardStore,
    topics: usize,
    iters: usize,
    estimator: TopicsEstimator,
    sampler: hlm_lda::SamplerChoice,
    flags: &TrainFlags,
) -> Result<(LdaModel, Vec<String>), CliError> {
    let config = LdaConfig {
        n_topics: topics,
        vocab_size: store.vocab().len(),
        n_iters: iters.max(2),
        burn_in: iters.max(2) / 2,
        sample_lag: 5,
        sampler,
        ..Default::default()
    };
    let plan = build_plan(flags)?;
    let fit = match estimator {
        TopicsEstimator::Gibbs => match &flags.checkpoint_dir {
            Some(dir) => {
                let work_dir = Path::new(dir).join("spills");
                hlm_engine::fit_lda_sharded_gibbs(config, store, work_dir, plan)
                    .map_err(engine_err)?
            }
            None => {
                // Without a checkpoint nothing can resume from the spills,
                // so they go when the fit returns, whether it succeeded or
                // failed.
                let work_dir = store.dir().join(".gibbs_work");
                let fit = hlm_engine::fit_lda_sharded_gibbs(config, store, &work_dir, plan);
                let _ = std::fs::remove_dir_all(&work_dir);
                fit.map_err(engine_err)?
            }
        },
        TopicsEstimator::OnlineVb => {
            let opts = OnlineVbOptions {
                epochs: iters.max(1),
                ..OnlineVbOptions::default()
            };
            hlm_engine::fit_lda_sharded_online_vb(config, opts, store, plan).map_err(engine_err)?
        }
    };
    let notes = fit_notes(&fit, flags, "step");
    Ok((fit.model, notes))
}

/// `hlm topics`.
pub fn topics(
    data: &str,
    topics: usize,
    iters: usize,
    estimator: TopicsEstimator,
    sampler: hlm_lda::SamplerChoice,
    flags: &TrainFlags,
) -> Result<String, CliError> {
    if topics == 0 {
        return Err(CliError::Usage("--topics must be positive".into()));
    }
    let t0 = std::time::Instant::now();
    let (model, notes, vocab) = if is_sharded(data) {
        let store = open_store(data)?;
        let (model, notes) = train_lda_sharded(&store, topics, iters, estimator, sampler, flags)?;
        (model, notes, store.vocab().clone())
    } else {
        if estimator == TopicsEstimator::OnlineVb {
            return Err(CliError::Usage(
                "--estimator online-vb needs a sharded data directory \
                 (generate with --shards)"
                    .into(),
            ));
        }
        let corpus = load(data)?;
        let (model, notes) = train_lda(&corpus, topics, iters, sampler, flags)?;
        let vocab = corpus.vocab().clone();
        (model, notes, vocab)
    };
    let mut out = String::new();
    for note in notes {
        let _ = writeln!(out, "note: {note}");
    }
    for k in 0..model.n_topics() {
        let tops: Vec<String> = model
            .top_products(k, 8)
            .into_iter()
            .map(|(w, p)| format!("{} ({:.2})", vocab.name(hlm_corpus::ProductId(w as u16)), p))
            .collect();
        let _ = writeln!(out, "topic {k}: {}", tops.join(", "));
    }
    let _ = writeln!(out, "{}", timing_summary(t0));
    Ok(out)
}

/// `hlm similar`.
pub fn similar(data: &str, company: u64, k: usize, whitespace: usize) -> Result<String, CliError> {
    let corpus = load(data)?;
    let query = corpus
        .iter()
        .find(|(_, c)| c.duns == company)
        .map(|(id, _)| id)
        .ok_or_else(|| CliError::Data(format!("no company with duns {company}")))?;

    let ids: Vec<_> = corpus.ids().collect();
    let docs = binary_docs(&corpus, &ids);
    let (model, _) = train_lda(
        &corpus,
        3,
        120,
        hlm_lda::SamplerChoice::Auto,
        &TrainFlags::default(),
    )?;
    let reps = lda_representations(&model, &docs);
    let engine = Engine::new(corpus);
    let app = engine
        .sales_app(reps, DistanceMetric::Cosine)
        .map_err(engine_err)?;

    let mut out = String::new();
    let describe = |id: hlm_corpus::CompanyId| -> String {
        let c = app.corpus().company(id);
        format!(
            "{} (duns {}, {}, {} products)",
            c.name,
            c.duns,
            c.industry,
            c.product_count()
        )
    };
    let _ = writeln!(out, "query: {}", describe(query));
    let _ = writeln!(out, "top-{k} similar companies:");
    let similar = app
        .find_similar(query, k, &CompanyFilter::default())
        .map_err(|e| CliError::Engine(e.to_string()))?;
    for s in similar {
        let _ = writeln!(out, "  d={:.4}  {}", s.distance, describe(s.id));
    }
    let recs = app
        .recommend_whitespace(query, k.max(10), &CompanyFilter::default())
        .map_err(|e| CliError::Engine(e.to_string()))?;
    let _ = writeln!(out, "whitespace recommendations:");
    for r in recs.iter().take(whitespace) {
        let _ = writeln!(
            out,
            "  {:<26} score {:.2} ({} similar owners)",
            app.corpus().vocab().name(r.product),
            r.score,
            r.owners_among_similar
        );
    }
    Ok(out)
}

/// The LDA shape every serving path shares (mirrors [`train_lda`], so a
/// server warmed from a `hlm topics --checkpoint-dir` run reads its
/// checkpoints with the exact config that wrote them).
fn serve_lda_config(vocab_size: usize, topics: usize, iters: usize) -> LdaConfig {
    LdaConfig {
        n_topics: topics,
        vocab_size,
        n_iters: iters.max(2),
        burn_in: iters.max(2) / 2,
        sample_lag: 5,
        ..Default::default()
    }
}

/// `hlm serve`: warm a model and answer similarity / whitespace /
/// recommendation queries over HTTP until SIGTERM, then drain.
pub fn serve(data: &str, flags: &ServeFlags) -> Result<String, CliError> {
    // A server is a long-running observable process: its `/metrics`
    // endpoint is only useful with the recorder live, so turn it on
    // unconditionally (read-only observer; results are unaffected).
    hlm_obs::install(hlm_obs::Recorder::enabled());
    let stop = hlm_serve::install_term_handler();
    serve_until(data, flags, stop)
}

/// [`serve`] with an injectable stop flag, so tests can run a real server
/// in-process and shut it down without sending signals.
pub(crate) fn serve_until(
    data: &str,
    flags: &ServeFlags,
    stop: Arc<AtomicBool>,
) -> Result<String, CliError> {
    if flags.topics == 0 {
        return Err(CliError::Usage("--topics must be positive".into()));
    }
    let corpus = {
        let _span = hlm_obs::global().span("corpus.csv_load");
        load(data)?
    };
    let config = serve_lda_config(corpus.vocab().len(), flags.topics, flags.iters);
    let engine = Arc::new(Engine::new(corpus));
    let opts = ServeOptions {
        request_budget_millis: Some(flags.deadline_ms),
    };

    // Warm start beats retraining: when the checkpoint dir has a good
    // checkpoint, the server comes up answering bit-identically to the one
    // that wrote it. Otherwise train now — checkpointing into the dir when
    // one was given, so the *next* start is warm.
    let mut note = String::new();
    let store = match &flags.checkpoint_dir {
        Some(dir) => Some(
            CheckpointStore::on_disk(dir)
                .map_err(|e| CliError::Engine(format!("cannot open checkpoint dir {dir}: {e}")))?,
        ),
        None => None,
    };
    let warm = store.as_ref().and_then(|s| {
        match bundle_from_checkpoint(&engine, &config, s, DistanceMetric::Cosine, opts.clone()) {
            Ok(b) => Some(b),
            Err(e) => {
                note = format!("cold start ({e})");
                None
            }
        }
    });
    let bundle = match warm {
        Some(b) => {
            note = format!(
                "warm start from checkpoint at sweep {}",
                b.checkpoint_iteration
            );
            b
        }
        None => {
            let ids: Vec<_> = engine.corpus().ids().collect();
            let docs = binary_docs(engine.corpus(), &ids);
            let mut plan = TrainPlan::new();
            if let Some(dir) = &flags.checkpoint_dir {
                plan = plan.on_disk(dir).map_err(engine_err)?;
            }
            let fit =
                hlm_engine::fit_lda_resilient(config.clone(), LdaEstimator::Gibbs, &docs, plan)
                    .map_err(engine_err)?;
            if note.is_empty() {
                note = format!(
                    "trained LDA{} for {} sweeps",
                    config.n_topics, config.n_iters
                );
            }
            bundle_from_model(
                &engine,
                fit.model,
                config.n_iters as u64,
                DistanceMetric::Cosine,
                opts.clone(),
            )
            .map_err(CliError::Engine)?
        }
    };

    // With a checkpoint dir, `POST /admin/swap` hot-reloads whatever good
    // checkpoint a concurrent training run has produced since.
    let loader: Option<BundleLoader> = flags.checkpoint_dir.as_ref().map(|dir| {
        let engine = Arc::clone(&engine);
        let config = config.clone();
        let dir = dir.clone();
        let opts = opts.clone();
        Box::new(move || {
            let store = CheckpointStore::on_disk(&dir).map_err(|e| e.to_string())?;
            bundle_from_checkpoint(
                &engine,
                &config,
                &store,
                DistanceMetric::Cosine,
                opts.clone(),
            )
        }) as BundleLoader
    });

    let server_config = ServerConfig {
        addr: format!("127.0.0.1:{}", flags.port),
        workers: flags.workers,
        queue_capacity: flags.queue,
        default_deadline_millis: flags.deadline_ms,
        ..ServerConfig::default()
    };
    let label = bundle.label.clone();
    let generation = bundle.generation;
    let server = Server::bind(server_config, engine, bundle, loader)
        .map_err(|e| CliError::Data(format!("cannot bind 127.0.0.1:{}: {e}", flags.port)))?;
    let addr = server.local_addr();
    if let Some(path) = &flags.port_file {
        std::fs::write(path, addr.port().to_string())
            .map_err(|e| CliError::Data(format!("cannot write port file {path}: {e}")))?;
    }
    // Announce readiness on stdout *before* blocking in the accept loop —
    // operators and scripts key off this line, not the exit summary.
    println!("note: {note}");
    println!("serving {label} (generation {generation}) on http://{addr} — SIGTERM drains");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server
        .run(stop)
        .map_err(|e| CliError::Engine(format!("cannot start the server's threads: {e}")))?;
    Ok(format!("server on {addr} drained cleanly\n"))
}

/// `hlm drift`.
pub fn drift(data: &str, reference: Month, recent: Month, months: u32) -> Result<String, CliError> {
    if months == 0 {
        return Err(CliError::Usage("--months must be positive".into()));
    }
    let corpus = load(data)?;
    let engine = Engine::new(corpus);
    let rep = engine.detect_drift(
        TimeWindow::new(reference, months),
        TimeWindow::new(recent, months),
        0.05,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "reference period: {} + {months} months ({} events)",
        reference, rep.reference_events
    );
    let _ = writeln!(
        out,
        "recent period:    {} + {months} months ({} events)",
        recent, rep.recent_events
    );
    if !rep.is_valid() {
        let _ = writeln!(
            out,
            "verdict:          insufficient data — the test needs at least one \
             event in each period and two observed categories"
        );
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "chi-square:       {:.2} (df {})",
        rep.chi_square, rep.degrees_of_freedom
    );
    let _ = writeln!(out, "p-value:          {:.6}", rep.p_value);
    let _ = writeln!(out, "JS divergence:    {:.4} nats", rep.js_divergence);
    let _ = writeln!(
        out,
        "verdict:          {}",
        if rep.drifted {
            "CONCEPT DRIFT detected — retrain the model"
        } else {
            "no significant drift"
        }
    );
    Ok(out)
}

/// `hlm replay`: generate an event stream, replay it month by month against
/// a live in-process server, retrain per policy, and hot-swap on success.
pub fn replay(flags: &ReplayFlags) -> Result<String, CliError> {
    let mut stream = EventStreamConfig::with_size_and_seed(flags.companies, flags.seed);
    let horizon = stream.base.horizon;
    if let Some(month) = flags.launch {
        if month >= horizon {
            return Err(CliError::Usage(format!(
                "--launch {month} must be before the stream horizon {horizon}"
            )));
        }
        stream.launches.push(LaunchSpec {
            name: "replay_launch".to_string(),
            month,
            adoption: 0.04,
        });
    }
    if let Some(month) = flags.shift {
        if month >= horizon {
            return Err(CliError::Usage(format!(
                "--shift {month} must be before the stream horizon {horizon}"
            )));
        }
        stream.shift = Some(MixShift {
            month,
            products: vec!["retail".to_string(), "media".to_string()],
            monthly_rate: 0.15,
        });
    }

    let mut cfg = hlm_serve::ReplayConfig::new(stream);
    cfg.serve_months = flags.months;
    cfg.policy = flags.policy;
    cfg.significance = flags.significance;
    cfg.reference_months = flags.reference_months;
    cfg.recent_months = flags.recent_months;
    cfg.top_n = flags.top_n;
    cfg.lda = serve_lda_config(0, flags.topics, flags.iters); // vocab_size set per fit
    cfg.lda.seed = flags.seed;
    cfg.checkpoint_dir = flags.checkpoint_dir.as_ref().map(std::path::PathBuf::from);
    cfg.resume = flags.resume;
    cfg.abort = flags.abort_at.map(|iteration| hlm_serve::FitAbort {
        fit_index: flags.abort_fit,
        iteration,
    });

    let outcome = hlm_serve::replay(&cfg).map_err(|e| {
        if e.is_interruption() {
            CliError::Engine(format!("replay interrupted: {e} (rerun with --resume)"))
        } else {
            engine_err(e)
        }
    })?;

    if let Some(path) = &flags.out {
        std::fs::write(path, outcome.csv())
            .map_err(|e| CliError::Data(format!("cannot write curve to {path}: {e}")))?;
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {} months ({} events) under policy {:?}",
        outcome.rows.len(),
        outcome.events,
        flags.policy
    );
    let _ = writeln!(
        out,
        "drift checks:   {} valid ({} triggered)",
        outcome.drift_checks,
        outcome.rows.iter().filter(|r| r.drifted).count()
    );
    let _ = writeln!(out, "retrains:       {}", outcome.retrains);
    let _ = writeln!(out, "fold-ins:       {}", outcome.fold_ins);
    let _ = writeln!(out, "hot swaps:      {}", outcome.swaps);
    let _ = writeln!(
        out,
        "market at end:  {} companies, {} product categories",
        outcome.companies, outcome.vocab_len
    );
    let evaluated: u64 = outcome.rows.iter().map(|r| r.evaluated).sum();
    let hits: u64 = outcome.rows.iter().map(|r| r.hits).sum();
    if evaluated > 0 {
        let _ = writeln!(
            out,
            "precision@{}:    {:.4} overall ({hits}/{evaluated}), {:.4} last 12 evaluable months",
            flags.top_n,
            hits as f64 / evaluated as f64,
            outcome.late_hit_rate(12)
        );
    } else {
        let _ = writeln!(
            out,
            "precision@{}:    n/a (no evaluable acquisitions)",
            flags.top_n
        );
    }
    if let Some(path) = &flags.out {
        let _ = writeln!(out, "curve written:  {path}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("hlm_cli_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_stats_round_trips() {
        let dir = tmp_dir("stats");
        let msg = generate(120, 7, &dir, None).expect("generate works");
        assert!(msg.contains("120 companies"));
        let s = stats(&dir).expect("stats works");
        assert!(s.contains("companies:            120"), "{s}");
        assert!(
            s.contains("OS") || s.contains("network_HW"),
            "popular products listed: {s}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topics_prints_k_topics() {
        let dir = tmp_dir("topics");
        generate(150, 9, &dir, None).unwrap();
        let out = topics(
            &dir,
            3,
            60,
            TopicsEstimator::Gibbs,
            hlm_lda::SamplerChoice::Auto,
            &TrainFlags::default(),
        )
        .unwrap();
        // 3 topic lines + the trailing elapsed/threads summary.
        assert_eq!(out.lines().count(), 4);
        assert!(out.contains("topic 0:"));
        let last = out.lines().last().unwrap();
        assert!(
            last.starts_with("elapsed: ") && last.ends_with("threads)"),
            "{last}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topics_kill_and_resume_via_cli_flags() {
        let dir = tmp_dir("resume");
        generate(150, 9, &dir, None).unwrap();
        let ck = format!("{dir}/checkpoints");

        // A deterministic "kill" at sweep 20: exit class is engine/training
        // (4) and the message tells the operator how to continue.
        let killed = TrainFlags {
            checkpoint_dir: Some(ck.clone()),
            abort_at: Some(20),
            ..TrainFlags::default()
        };
        let err = topics(
            &dir,
            3,
            60,
            TopicsEstimator::Gibbs,
            hlm_lda::SamplerChoice::Auto,
            &killed,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("--resume"), "{err}");

        // Resume completes and says where it picked up.
        let resumed = TrainFlags {
            checkpoint_dir: Some(ck),
            resume: true,
            ..TrainFlags::default()
        };
        let out = topics(
            &dir,
            3,
            60,
            TopicsEstimator::Gibbs,
            hlm_lda::SamplerChoice::Auto,
            &resumed,
        )
        .unwrap();
        assert!(out.contains("resumed from checkpoint at sweep 20"), "{out}");
        assert!(out.contains("topic 0:"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_quarantines_malformed_rows_and_reports_them() {
        let dir = tmp_dir("lenient");
        generate(80, 21, &dir, None).unwrap();
        let events_path = Path::new(&dir).join("events.csv");
        let mut events = std::fs::read_to_string(&events_path).unwrap();
        events.push_str("999999,OS,2001-05,2001-05,1\n"); // unknown company
        events.push_str("10000,OS,2001-05,2001-05,42\n"); // confidence out of range
        std::fs::write(&events_path, events).unwrap();

        let out = stats(&dir).unwrap();
        assert!(out.contains("companies:            80"), "{out}");
        assert!(
            out.contains("quarantined 2 malformed rows (companies: 0, events: 2)"),
            "{out}"
        );
        assert!(out.contains("confidence"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_map_to_stable_exit_codes() {
        assert_eq!(CliError::Usage("u".into()).exit_code(), 2);
        assert_eq!(CliError::Data("d".into()).exit_code(), 3);
        assert_eq!(CliError::Engine("e".into()).exit_code(), 4);

        // Usage: bad option value.
        let e = topics(
            "ignored",
            0,
            10,
            TopicsEstimator::Gibbs,
            hlm_lda::SamplerChoice::Auto,
            &TrainFlags::default(),
        )
        .unwrap_err();
        assert_eq!(e.exit_code(), 2);
        // Data: unreadable input.
        let e = stats("/no/such/dir").unwrap_err();
        assert_eq!(e.exit_code(), 3);
        // Stderr rendering is a single line even for multi-line messages.
        assert_eq!(CliError::Data("a\nb".into()).to_string(), "a b");
    }

    #[test]
    fn similar_finds_neighbours_and_whitespace() {
        let dir = tmp_dir("similar");
        generate(150, 11, &dir, None).unwrap();
        // Company duns are 10_000 + index in the generator.
        let out = similar(&dir, 10_005, 5, 3).unwrap();
        assert!(out.contains("top-5 similar companies"), "{out}");
        assert!(out.matches("d=").count() == 5, "{out}");
        assert!(out.contains("whitespace recommendations"));
        let err = similar(&dir, 999, 5, 3).unwrap_err();
        assert!(err.to_string().contains("no company"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_detects_stage_shift_on_generated_data() {
        let dir = tmp_dir("drift");
        generate(400, 13, &dir, None).unwrap();
        let out = drift(&dir, Month::from_ym(1995, 1), Month::from_ym(2013, 1), 24).unwrap();
        assert!(out.contains("CONCEPT DRIFT"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_with_empty_period_reports_insufficient_data() {
        let dir = tmp_dir("drift-empty");
        generate(100, 13, &dir, None).unwrap();
        // 1900 predates every founding date: zero events in that window.
        let out = drift(&dir, Month::from_ym(1900, 1), Month::from_ym(2013, 1), 12).unwrap();
        assert!(out.contains("insufficient data"), "{out}");
        assert!(!out.contains("NaN"), "no bare NaN p-value: {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_data_directory_is_a_clean_error() {
        let e = stats("/no/such/dir").unwrap_err();
        assert!(e.to_string().contains("companies.csv"));
        assert!(generate(0, 1, "/tmp/x", None).is_err());
    }

    #[test]
    fn run_dispatches_help() {
        let out = crate::run(&crate::Command::Help).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("hlm serve"), "{out}");
    }

    #[test]
    fn serve_until_answers_http_then_drains_on_stop() {
        use std::io::{Read as _, Write as _};

        let dir = tmp_dir("serve");
        generate(100, 5, &dir, None).unwrap();
        let port_file = format!("{dir}/port");
        let flags = ServeFlags {
            port_file: Some(port_file.clone()),
            iters: 12,
            ..ServeFlags::default()
        };
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let dir = dir.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_until(&dir, &flags, stop))
        };

        // The port file appears once the server is listening.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let port: u16 = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                break s.trim().parse().expect("port file holds a port");
            }
            assert!(std::time::Instant::now() < deadline, "server never came up");
            std::thread::sleep(std::time::Duration::from_millis(25));
        };

        let fetch = |path: &str| -> String {
            let mut conn =
                std::net::TcpStream::connect(("127.0.0.1", port)).expect("server accepts");
            write!(
                conn,
                "GET {path} HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n"
            )
            .unwrap();
            let mut buf = String::new();
            conn.read_to_string(&mut buf).unwrap();
            buf
        };
        assert!(fetch("/healthz").starts_with("HTTP/1.1 200"), "healthz");
        let sim = fetch("/v1/similar?company=0&k=3&deadline_ms=30000");
        assert!(sim.starts_with("HTTP/1.1 200"), "{sim}");
        assert!(sim.contains("\"results\""), "{sim}");

        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("drained cleanly"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_generate_then_stats_streams_the_manifest() {
        let dir = tmp_dir("sharded_stats");
        let msg = generate(256, 7, &dir, Some(4)).expect("sharded generate works");
        assert!(msg.contains("256 companies"), "{msg}");
        assert!(msg.contains("4 shard(s)"), "{msg}");
        let s = stats(&dir).expect("sharded stats works");
        assert!(s.contains("sharded corpus:"), "{s}");
        assert!(s.contains("companies:            256"), "{s}");
        assert!(s.contains("4 x 64 companies"), "{s}");
        assert!(s.contains("shard_00003.bin"), "{s}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_topics_trains_gibbs_and_online_vb() {
        let dir = tmp_dir("sharded_topics");
        generate(150, 9, &dir, Some(2)).unwrap();

        // Out-of-core Gibbs: same 4-line shape as the in-memory path.
        let out = topics(
            &dir,
            3,
            30,
            TopicsEstimator::Gibbs,
            hlm_lda::SamplerChoice::Auto,
            &TrainFlags::default(),
        )
        .unwrap();
        assert_eq!(out.lines().count(), 4, "{out}");
        assert!(out.contains("topic 0:"), "{out}");

        // Online VB: one epoch per requested iteration, same output shape.
        let out = topics(
            &dir,
            3,
            2,
            TopicsEstimator::OnlineVb,
            hlm_lda::SamplerChoice::Auto,
            &TrainFlags::default(),
        )
        .unwrap();
        assert_eq!(out.lines().count(), 4, "{out}");
        assert!(out.contains("topic 0:"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_topics_on_a_damaged_shard_is_an_engine_error() {
        let dir = tmp_dir("sharded_damaged");
        generate(256, 7, &dir, Some(4)).unwrap();
        let path = Path::new(&dir).join("shard_00001.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        for estimator in [TopicsEstimator::Gibbs, TopicsEstimator::OnlineVb] {
            let err = topics(
                &dir,
                3,
                2,
                estimator,
                hlm_lda::SamplerChoice::Auto,
                &TrainFlags::default(),
            )
            .unwrap_err();
            assert_eq!(err.exit_code(), 4, "{err}");
            assert!(err.to_string().contains("fails its checksum"), "{err}");
            // The corpus is damaged, not the checkpoints; the message must
            // not send an operator after good checkpoint or spill state.
            assert!(!err.to_string().contains("checkpoint"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn online_vb_requires_a_sharded_corpus() {
        let dir = tmp_dir("vb_needs_shards");
        generate(80, 3, &dir, None).unwrap();
        let err = topics(
            &dir,
            3,
            2,
            TopicsEstimator::OnlineVb,
            hlm_lda::SamplerChoice::Auto,
            &TrainFlags::default(),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--shards"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_topics_kill_and_resume_via_cli_flags() {
        let dir = tmp_dir("sharded_resume");
        generate(150, 9, &dir, Some(2)).unwrap();
        let ck = format!("{dir}/checkpoints");

        let killed = TrainFlags {
            checkpoint_dir: Some(ck.clone()),
            abort_at: Some(20),
            ..TrainFlags::default()
        };
        let err = topics(
            &dir,
            3,
            30,
            TopicsEstimator::Gibbs,
            hlm_lda::SamplerChoice::Auto,
            &killed,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("--resume"), "{err}");

        let resumed = TrainFlags {
            checkpoint_dir: Some(ck),
            resume: true,
            ..TrainFlags::default()
        };
        let out = topics(
            &dir,
            3,
            30,
            TopicsEstimator::Gibbs,
            hlm_lda::SamplerChoice::Auto,
            &resumed,
        )
        .unwrap();
        assert!(out.contains("resumed from checkpoint at step 20"), "{out}");
        assert!(out.contains("topic 0:"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
