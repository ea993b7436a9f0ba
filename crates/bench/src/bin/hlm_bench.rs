//! `hlm-bench` — wall-clock benchmark of the hot paths (PR 5) and the
//! out-of-core sharded pipeline (PR 6).
//!
//! Phases, all on the same seed:
//!
//! 1. **LDA train+eval** at 1 worker thread and at 8. The runtime is
//!    deterministic by construction, so both runs must produce the *same*
//!    perplexity — the binary asserts this and records it. With the
//!    adaptive cost model, small workloads run serial regardless of the
//!    thread setting, so the 8-thread run must stay within noise of the
//!    serial one (`parallel_penalty` in the output; CI gates on ≤5%).
//! 2. **Gibbs throughput** — weighted tokens sampled per second at one
//!    thread.
//! 3. **Serving latency** — per-query `find_similar` wall clock over the
//!    engine's sales application, cold (empty [`hlm_core::ServingCache`])
//!    then warm (same queries again), with the cache hit rate read back
//!    from the `serve.cache_*` observability counters. Warm answers are
//!    asserted identical to cold ones.
//! 4. **Sharded out-of-core pipeline** — stream-generates the corpus to
//!    disk shards (never materialising it in RAM), trains one sharded
//!    Gibbs fit and one online-VB epoch over the store, and records
//!    tokens/s plus the process peak RSS against an estimate of the
//!    in-memory footprint.
//! 5. **Sampler kernels** (PR 8) — tokens/s of the two Gibbs token
//!    samplers (dense scan, LightLDA alias-MH) at K = 128 and K = 256 on
//!    one thread, then a 1/2/4/8-thread sweep of the alias-MH
//!    kernel asserting bit-identical phi at every thread count. Speedup
//!    figures from the sweep are marked valid only when the host
//!    actually has more than one hardware thread.
//! 6. **Query-path kernels** (PR 10) — queries/s and p50/p99 of the
//!    serving read path over synthetic clustered blobs at n = 20k and
//!    n = 200k companies: the pre-store scalar scan, then the [`RepStore`]
//!    kernel at a batch of one (`store_f64`) and at a 16-query batch
//!    (`blocked_f64`), all pinned to one hardware thread (no parallelism
//!    credit). This phase writes its
//!    own record, `BENCH_pr10.json`, which the CI perf job gates
//!    (blocked-f64 ≥ 1.5× scalar at n = 200k).
//!
//! At `HLM_SCALE=xl` (one million companies) phases 1–3 and 5–6 are
//! skipped — the whole point of that scale is that the corpus does not
//! fit the in-memory path comfortably — and phase 4 is the entire
//! benchmark, so the recorded peak RSS belongs to the sharded pipeline
//! alone.
//!
//! Usage:
//!   hlm-bench [--json [PATH]]
//!
//! `--json` writes the machine-readable record (default `BENCH_pr8.json`)
//! next to the human-readable stdout summary; when phase 6 runs it also
//! writes `BENCH_pr10.json`. Scale follows `HLM_SCALE`
//! (`smoke|small|medium|paper|xl`, default `small`).
//!
//! Note on interpreting speedup: the numbers are honest wall-clock on the
//! machine the binary runs on (`hardware_threads` records what that machine
//! has). On a single-core host the 8-thread run cannot beat the serial one;
//! the cost model's job is to make sure it does not *lose* either. When the
//! host or the scale makes a number structurally untrustworthy the record
//! says so in its `caveat` field — read it before quoting any figure.

use hlm_bench::ExpScale;
use hlm_core::{top_k_similar_scalar, CompanyFilter, DistanceMetric, RepStore};
use hlm_corpus::CorpusSource;
use hlm_datagen::GeneratorConfig;
use hlm_engine::{effective_threads, set_threads, Engine, TrainPlan};
use hlm_lda::{
    document_completion_perplexity, GibbsTrainer, LdaConfig, OnlineVbOptions, SamplerChoice,
};
use hlm_obs::json;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Run {
    threads: usize,
    train_seconds: f64,
    eval_seconds: f64,
    perplexity: f64,
}

/// Everything phases 1–3 measure (in-memory pipeline; skipped at xl).
struct InMemReport {
    companies: usize,
    products: usize,
    train_docs: usize,
    test_docs: usize,
    train_tokens: usize,
    n_iters: usize,
    runs: Vec<Run>,
    deterministic: bool,
    speedup_train: f64,
    parallel_penalty: f64,
    gibbs_tokens_per_second: f64,
    serve_queries: usize,
    serve_k: usize,
    cold_p50: f64,
    cold_p99: f64,
    warm_p50: f64,
    warm_p99: f64,
    hit_rate: f64,
}

/// Everything phase 4 measures (sharded out-of-core pipeline; always runs).
struct ShardedReport {
    companies: u64,
    tokens: u64,
    n_shards: usize,
    shard_size: u64,
    disk_bytes: u64,
    gen_seconds: f64,
    gibbs_sweeps: usize,
    gibbs_seconds: f64,
    gibbs_tokens_per_second: f64,
    vb_epochs: usize,
    vb_seconds: f64,
    vb_tokens_per_second: f64,
    peak_rss_bytes: u64,
    in_memory_bytes_estimate: u64,
    rss_ratio: f64,
}

/// One serial kernel measurement in the sampler shoot-out.
struct SamplerRun {
    name: &'static str,
    train_seconds: f64,
    tokens_per_second: f64,
}

/// The serial shoot-out at one topic count: dense / alias-MH, each at one
/// thread, best over interleaved rounds.
struct SamplerKGroup {
    k: usize,
    sweeps: usize,
    serial: Vec<SamplerRun>,
    alias_vs_dense: f64,
}

/// Everything phase 5 measures (sampler kernels; skipped at xl).
struct SamplerReport {
    tokens: usize,
    /// One serial shoot-out per topic count — the dense scan is
    /// O(K)-per-token and the alias proposals O(1), so the ratio's growth
    /// across K is the structural claim, not any single number.
    by_k: Vec<SamplerKGroup>,
    /// Topic count the thread sweep ran at.
    thread_k: usize,
    /// `(threads, train_seconds)` for the alias-MH kernel.
    thread_sweep: Vec<(usize, f64)>,
    alias_speedup_1_to_8: f64,
    /// False on a single-hardware-thread host: the sweep then only proves
    /// the no-penalty property, never a speedup.
    speedup_valid: bool,
    deterministic: bool,
}

/// p-th percentile (0..=100) of an unsorted latency sample, in seconds.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// What the in-memory pipeline keeps resident for a corpus of this shape,
/// from per-element sizes: the `Corpus` itself (a `Company` with its name
/// string and event vector runs ≈120 B plus 16 B per `InstallEvent`, and
/// `product_set` copies the events once more), the `WeightedDoc` views
/// (24 B `Vec` header per doc + 16 B per token), and the Gibbs per-doc
/// state over *all* documents at once (2 B/token assignments + `8k` B/doc
/// topic counts). The sharded pipeline holds one shard of all of that.
fn in_memory_bytes_estimate(n_docs: u64, tokens: u64, k: u64) -> u64 {
    n_docs * (120 + 24 + 8 * k) + tokens * (16 + 16 + 16 + 2)
}

/// Phases 1–3: the PR 5 in-memory hot-path benchmark.
fn run_in_memory(scale: &ExpScale) -> InMemReport {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test = hlm_core::representations::binary_docs(&corpus, &split.test);
    let n_tokens: usize = train.iter().map(Vec::len).sum();
    let config = LdaConfig {
        n_topics: 3,
        vocab_size: corpus.vocab().len(),
        n_iters: scale.lda_iters,
        burn_in: scale.lda_iters / 2,
        sample_lag: 5,
        seed: scale.seed,
        ..Default::default()
    };

    // Phase 1: LDA hot path at 1 and 8 threads. Train time is best-of-3 so
    // the CI parallel-penalty gate measures the runtime, not OS jitter.
    let mut runs = Vec::new();
    let mut last_model = None;
    for threads in [1usize, 8] {
        set_threads(threads);
        eprintln!("[hlm-bench] LDA train+eval at {threads} thread(s)…");
        let mut train_seconds = f64::INFINITY;
        let mut model = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            model = Some(GibbsTrainer::new(config.clone()).fit(&train));
            train_seconds = train_seconds.min(t0.elapsed().as_secs_f64());
        }
        let model = model.expect("three fits ran");
        let t1 = Instant::now();
        let perplexity = document_completion_perplexity(&model, &test);
        let eval_seconds = t1.elapsed().as_secs_f64();
        assert_eq!(effective_threads(), threads);
        runs.push(Run {
            threads,
            train_seconds,
            eval_seconds,
            perplexity,
        });
        last_model = Some(model);
    }
    let deterministic = runs
        .windows(2)
        .all(|w| w[0].perplexity.to_bits() == w[1].perplexity.to_bits());
    assert!(
        deterministic,
        "perplexity must be bit-identical at every thread count"
    );

    // Ratios of near-zero timings (smoke scale on a fast machine) can be
    // inf/NaN, which `{:.4}` would serialize as invalid JSON — sanitize at
    // the boundary (debug builds assert instead of papering over it).
    let speedup_train = json::finite_or(runs[0].train_seconds / runs[1].train_seconds, 0.0);
    // How much slower the 8-thread run is than serial; ≤0 when it wins. The
    // cost model keeps small workloads serial, so this is the number that
    // proves "parallelism never hurts".
    let parallel_penalty = json::finite_or(
        (runs[1].train_seconds - runs[0].train_seconds) / runs[0].train_seconds,
        0.0,
    );

    // Phase 2: Gibbs throughput.
    let gibbs_tokens_per_second = json::finite_or(
        (n_tokens * config.n_iters) as f64 / runs[0].train_seconds,
        0.0,
    );

    // Phase 3: serving latency, cold cache then warm, via the engine's
    // sales application (LDA topic-mixture representations).
    set_threads(1);
    let model = last_model.expect("at least one run");
    let all_ids: Vec<_> = corpus.ids().collect();
    let all_docs = hlm_core::representations::binary_docs(&corpus, &all_ids);
    let reps = hlm_core::representations::lda_representations(&model, &all_docs);
    let engine = Engine::new(corpus);
    let app = engine
        .sales_app(reps, DistanceMetric::Cosine)
        .expect("row count matches corpus");
    let k = 10usize;
    let stride = (all_ids.len() / 200).max(1);
    let queries: Vec<_> = all_ids.iter().copied().step_by(stride).collect();
    let filter = CompanyFilter::default();
    let time_pass = || -> (Vec<f64>, Vec<Vec<hlm_core::app::SimilarCompany>>) {
        let mut lat = Vec::with_capacity(queries.len());
        let mut res = Vec::with_capacity(queries.len());
        for &q in &queries {
            let t0 = Instant::now();
            let r = app.find_similar(q, k, &filter).expect("query in range");
            lat.push(t0.elapsed().as_secs_f64());
            res.push(r);
        }
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        (lat, res)
    };
    eprintln!(
        "[hlm-bench] serving: {} queries, k={k}, cold then warm cache…",
        queries.len()
    );
    let (cold, cold_res) = time_pass();
    let (warm, warm_res) = time_pass();
    assert_eq!(
        cold_res, warm_res,
        "cached answers must be identical to uncached ones"
    );
    let rec = hlm_obs::global();
    let (hits, misses) = (
        rec.counter(hlm_obs::names::SERVE_CACHE_HIT),
        rec.counter(hlm_obs::names::SERVE_CACHE_MISS),
    );
    let hit_rate = json::finite_or(hits as f64 / (hits + misses) as f64, 0.0);

    InMemReport {
        companies: engine.corpus().len(),
        products: engine.corpus().vocab().len(),
        train_docs: train.len(),
        test_docs: test.len(),
        train_tokens: n_tokens,
        n_iters: config.n_iters,
        runs,
        deterministic,
        speedup_train,
        parallel_penalty,
        gibbs_tokens_per_second,
        serve_queries: queries.len(),
        serve_k: k,
        cold_p50: percentile(&cold, 50.0),
        cold_p99: percentile(&cold, 99.0),
        warm_p50: percentile(&warm, 50.0),
        warm_p99: percentile(&warm, 99.0),
        hit_rate,
    }
}

/// Phase 4: stream-generate to disk shards, train sharded Gibbs + one
/// online-VB epoch out-of-core, record throughput and peak RSS.
fn run_sharded(scale: &ExpScale) -> ShardedReport {
    set_threads(1);
    let dir = std::env::temp_dir().join(format!("hlm_bench_shards_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = GeneratorConfig::with_size_and_seed(scale.n_companies, scale.seed);
    // One shard ≈ 64k companies at xl; small scales still exercise ≥4
    // shards so the merge path is never trivially single-shard.
    let n_shards = (scale.n_companies / 65_536).clamp(4, 64);
    eprintln!(
        "[hlm-bench] sharded: stream-generating {} companies into {n_shards} shards…",
        scale.n_companies
    );
    let t0 = Instant::now();
    let store = hlm_datagen::generate_sharded(&cfg, n_shards, &dir)
        .expect("stream-generate the sharded corpus");
    let gen_seconds = t0.elapsed().as_secs_f64();
    let manifest = store.manifest();
    let (companies, tokens) = (manifest.n_companies, manifest.total_tokens);
    let disk_bytes: u64 = manifest.shards.iter().map(|s| s.bytes).sum();

    let lda = LdaConfig {
        n_topics: 3,
        vocab_size: store.vocab().len(),
        n_iters: scale.lda_iters.max(2),
        burn_in: scale.lda_iters.max(2) / 2,
        sample_lag: 5,
        seed: scale.seed,
        ..Default::default()
    };
    let gibbs_sweeps = lda.n_iters;
    eprintln!("[hlm-bench] sharded: {gibbs_sweeps} Gibbs sweeps over {tokens} tokens…");
    let t1 = Instant::now();
    let gibbs = hlm_engine::fit_lda_sharded_gibbs(
        lda.clone(),
        &store,
        dir.join(".gibbs_work"),
        TrainPlan::default(),
    )
    .expect("sharded Gibbs fit");
    let gibbs_seconds = t1.elapsed().as_secs_f64();
    assert_eq!(gibbs.model.phi().rows(), lda.n_topics);

    let vb_epochs = 1usize;
    eprintln!("[hlm-bench] sharded: {vb_epochs} online-VB epoch…");
    let opts = OnlineVbOptions {
        epochs: vb_epochs,
        ..OnlineVbOptions::default()
    };
    let t2 = Instant::now();
    let vb = hlm_engine::fit_lda_sharded_online_vb(lda.clone(), opts, &store, TrainPlan::default())
        .expect("sharded online-VB fit");
    let vb_seconds = t2.elapsed().as_secs_f64();
    assert_eq!(vb.model.phi().rows(), lda.n_topics);

    let peak_rss_bytes = hlm_obs::peak_rss_bytes().unwrap_or(0);
    let estimate = in_memory_bytes_estimate(companies, tokens, lda.n_topics as u64);
    let rss_ratio = json::finite_or(peak_rss_bytes as f64 / estimate as f64, 0.0);
    let _ = std::fs::remove_dir_all(&dir);

    ShardedReport {
        companies,
        tokens,
        n_shards: manifest.shards.len(),
        shard_size: manifest.shard_size,
        disk_bytes,
        gen_seconds,
        gibbs_sweeps,
        gibbs_seconds,
        gibbs_tokens_per_second: json::finite_or(
            (tokens as f64) * gibbs_sweeps as f64 / gibbs_seconds,
            0.0,
        ),
        vb_epochs,
        vb_seconds,
        vb_tokens_per_second: json::finite_or((tokens as f64) * vb_epochs as f64 / vb_seconds, 0.0),
        peak_rss_bytes,
        in_memory_bytes_estimate: estimate,
        rss_ratio,
    }
}

/// Phase 5: the PR 8 sampler-kernel shoot-out. `SamplerChoice::Auto`
/// routes both K = 128 and K = 256 to alias-MH (dense stops at
/// `SamplerChoice::DENSE_MAX_TOPICS`): the dense scan is O(K) per token
/// while the alias proposals stay O(1). Measuring at K = 128 *and* K = 256
/// exposes that scaling: the alias kernel's time stays flat while the
/// dense scan doubles.
fn run_samplers(scale: &ExpScale, hardware: usize) -> SamplerReport {
    let corpus = scale.corpus();
    let split = scale.split(&corpus);
    let train = hlm_core::representations::binary_docs(&corpus, &split.train);
    let tokens: usize = train.iter().map(Vec::len).sum();
    let sweeps = (scale.lda_iters / 4).max(8);
    let config = |k: usize, sampler: SamplerChoice| LdaConfig {
        n_topics: k,
        vocab_size: corpus.vocab().len(),
        n_iters: sweeps,
        burn_in: sweeps / 2,
        sample_lag: 5,
        seed: scale.seed,
        sampler,
        ..Default::default()
    };

    set_threads(1);
    // Interleaved rounds (dense, alias, dense, …) rather than
    // best-of-N per kernel back to back: host-level throttling drifts on
    // the scale of a whole phase, and interleaving exposes every kernel to
    // the same drift so the *ratios* stay honest even when absolute times
    // wobble.
    const KERNELS: [(&str, SamplerChoice); 2] = [
        ("dense", SamplerChoice::Dense),
        ("alias", SamplerChoice::AliasMh),
    ];
    let mut by_k = Vec::new();
    for k in [128usize, 256] {
        let mut best = [f64::INFINITY; KERNELS.len()];
        for round in 0..4 {
            eprintln!(
                "[hlm-bench] samplers: round {round}: {KERNELS:?} K={k}, {sweeps} sweeps, 1 thread…"
            );
            for (slot, (_, sampler)) in KERNELS.iter().enumerate() {
                let t0 = Instant::now();
                let model = GibbsTrainer::new(config(k, *sampler)).fit(&train);
                best[slot] = best[slot].min(t0.elapsed().as_secs_f64());
                assert_eq!(model.phi().rows(), k);
            }
        }
        let serial: Vec<SamplerRun> = KERNELS
            .iter()
            .zip(best)
            .map(|((name, _), train_seconds)| SamplerRun {
                name,
                train_seconds,
                tokens_per_second: json::finite_or((tokens * sweeps) as f64 / train_seconds, 0.0),
            })
            .collect();
        let alias_vs_dense = json::finite_or(
            serial[1].tokens_per_second / serial[0].tokens_per_second,
            0.0,
        );
        by_k.push(SamplerKGroup {
            k,
            sweeps,
            serial,
            alias_vs_dense,
        });
    }

    // Thread sweep of the alias-MH kernel. The sampler is deterministic by
    // construction at any thread count; the benchmark asserts it anyway so
    // a bit-identity regression can never hide behind a speedup headline.
    let thread_k = by_k[0].k;
    let mut thread_sweep = Vec::new();
    let mut phi_bits: Option<Vec<u64>> = None;
    let mut deterministic = true;
    for threads in [1usize, 2, 4, 8] {
        set_threads(threads);
        eprintln!("[hlm-bench] samplers: alias kernel at {threads} thread(s)…");
        let t0 = Instant::now();
        let model = GibbsTrainer::new(config(thread_k, SamplerChoice::AliasMh)).fit(&train);
        let secs = t0.elapsed().as_secs_f64();
        let bits: Vec<u64> = model.phi().as_slice().iter().map(|x| x.to_bits()).collect();
        match &phi_bits {
            None => phi_bits = Some(bits),
            Some(first) => deterministic &= *first == bits,
        }
        thread_sweep.push((threads, secs));
    }
    assert!(
        deterministic,
        "alias-MH phi must be bit-identical at every thread count"
    );
    set_threads(1);

    SamplerReport {
        tokens,
        by_k,
        thread_k,
        alias_speedup_1_to_8: json::finite_or(thread_sweep[0].1 / thread_sweep[3].1, 0.0),
        thread_sweep,
        speedup_valid: hardware > 1,
        deterministic,
    }
}

/// One read-path kernel measurement. `batch == 1` for one query a call;
/// blocked rows report queries/s across the whole micro-batch
/// and *amortized* per-query latency (batch wall clock / batch size).
struct QueryKernelRun {
    name: &'static str,
    batch: usize,
    queries_per_second: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Phase 6 at one corpus size: the kernel shoot-out.
struct QuerySizeGroup {
    n: usize,
    kernels: Vec<QueryKernelRun>,
    blocked_f64_speedup: f64,
}

/// Everything phase 6 measures (query-path kernels; skipped at xl).
struct QueryPathReport {
    dims: usize,
    k: usize,
    batch: usize,
    sizes: Vec<QuerySizeGroup>,
}

const QP_DIMS: usize = 16;
const QP_CENTERS: usize = 64;
const QP_BATCH: usize = 16;
const QP_K: usize = 10;

/// Times `call` over `n_queries × rounds` invocations, one at a time, and
/// returns (calls/s, p50 µs, p99 µs) over the individual call latencies.
fn time_calls<F: FnMut(usize)>(n_queries: usize, rounds: usize, mut call: F) -> (f64, f64, f64) {
    let mut lat = Vec::with_capacity(n_queries * rounds);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for q in 0..n_queries {
            let t = Instant::now();
            call(q);
            lat.push(t.elapsed().as_secs_f64());
        }
    }
    let total = t0.elapsed().as_secs_f64();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (
        json::finite_or(lat.len() as f64 / total, 0.0),
        percentile(&lat, 50.0) * 1e6,
        percentile(&lat, 99.0) * 1e6,
    )
}

/// Phase 6: the PR 10 serving read-path kernel shoot-out. Synthetic blob
/// representations (the corpus plays no role in the kernels), scalar scan
/// vs the `RepStore` kernel at batch 1 and at batch 16, strictly one
/// thread — the same no-parallelism-credit rule the thread sweeps above
/// follow.
fn run_query_path(scale: &ExpScale) -> QueryPathReport {
    let sizes: &[usize] = if matches!(scale.name, "smoke" | "small") {
        &[5_000]
    } else {
        &[20_000, 200_000]
    };
    const ROUNDS: usize = 3;
    const N_QUERIES: usize = 64;
    let metric = DistanceMetric::Cosine;
    let mut groups = Vec::new();
    for &n in sizes {
        eprintln!("[hlm-bench] query path: n={n}, building the store…");
        let reps = Arc::new(hlm_datagen::blob_matrix(n, QP_DIMS, QP_CENTERS, scale.seed));
        let store = RepStore::flat(Arc::clone(&reps), metric);
        let query_rows: Vec<usize> = (0..N_QUERIES).map(|i| (i * 9_973) % n).collect();

        // Kernel timings: one hardware thread, no parallelism credit.
        set_threads(1);
        eprintln!(
            "[hlm-bench] query path: timing kernels, {N_QUERIES} queries x {ROUNDS} rounds, \
             k={QP_K}, 1 thread…"
        );
        let mut kernels = Vec::new();
        let (qps, p50, p99) = time_calls(N_QUERIES, ROUNDS, |i| {
            std::hint::black_box(top_k_similar_scalar(&reps, query_rows[i], QP_K, metric));
        });
        kernels.push(QueryKernelRun {
            name: "scalar_f64",
            batch: 1,
            queries_per_second: qps,
            p50_us: p50,
            p99_us: p99,
        });
        let (qps, p50, p99) = time_calls(N_QUERIES, ROUNDS, |i| {
            std::hint::black_box(store.top_k_batch(&query_rows[i..=i], QP_K, |_| true));
        });
        kernels.push(QueryKernelRun {
            name: "store_f64",
            batch: 1,
            queries_per_second: qps,
            p50_us: p50,
            p99_us: p99,
        });
        let n_batches = N_QUERIES / QP_BATCH;
        let (qps, p50, p99) = time_calls(n_batches, ROUNDS, |b| {
            let s = b * QP_BATCH;
            std::hint::black_box(store.top_k_batch(&query_rows[s..s + QP_BATCH], QP_K, |_| true));
        });
        kernels.push(QueryKernelRun {
            name: "blocked_f64",
            batch: QP_BATCH,
            queries_per_second: qps * QP_BATCH as f64,
            p50_us: p50 / QP_BATCH as f64,
            p99_us: p99 / QP_BATCH as f64,
        });

        let qps_of = |name: &str| {
            kernels
                .iter()
                .find(|r| r.name == name)
                .map_or(0.0, |r| r.queries_per_second)
        };
        groups.push(QuerySizeGroup {
            n,
            blocked_f64_speedup: json::finite_or(qps_of("blocked_f64") / qps_of("scalar_f64"), 0.0),
            kernels,
        });
    }
    QueryPathReport {
        dims: QP_DIMS,
        k: QP_K,
        batch: QP_BATCH,
        sizes: groups,
    }
}

/// The standalone PR 10 record the CI perf job gates. Written next to the
/// main record so dashboards can track the read path independently.
fn write_query_path_json(
    qp: &QueryPathReport,
    scale: &ExpScale,
    hardware: usize,
    caveat: &str,
    path: &str,
) {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"pr10_query_path\",");
    let _ = writeln!(j, "  \"scale\": \"{}\",", scale.name);
    let _ = writeln!(j, "  \"hardware_threads\": {hardware},");
    let _ = writeln!(j, "  \"caveat\": \"{caveat}\",");
    let _ = writeln!(
        j,
        "  \"config\": {{\"dims\": {}, \"k\": {}, \"batch\": {}, \"metric\": \"cosine\", \
         \"kernel_threads\": 1}},",
        qp.dims, qp.k, qp.batch
    );
    let _ = writeln!(j, "  \"sizes\": [");
    for (gi, g) in qp.sizes.iter().enumerate() {
        let _ = writeln!(j, "    {{\"n\": {},", g.n);
        let _ = writeln!(j, "     \"kernels\": [");
        for (i, r) in g.kernels.iter().enumerate() {
            let _ = writeln!(
                j,
                "       {{\"kernel\": \"{}\", \"batch\": {}, \"queries_per_second\": {:.1}, \
                 \"p50_us\": {:.3}, \"p99_us\": {:.3}}}{}",
                r.name,
                r.batch,
                json::finite_or(r.queries_per_second, 0.0),
                json::finite_or(r.p50_us, 0.0),
                json::finite_or(r.p99_us, 0.0),
                if i + 1 < g.kernels.len() { "," } else { "" }
            );
        }
        let _ = writeln!(j, "     ],");
        let _ = writeln!(
            j,
            "     \"blocked_f64_speedup_vs_scalar\": {:.4}}}{}",
            g.blocked_f64_speedup,
            if gi + 1 < qp.sizes.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    json::check_finite(&j).expect("query-path json must contain only finite numbers");
    std::fs::write(path, j).expect("write query-path benchmark json");
    eprintln!("[hlm-bench] wrote {path}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (want_json, json_path) = match argv.first().map(String::as_str) {
        None => (false, String::new()),
        Some("--json") => (
            true,
            argv.get(1)
                .cloned()
                .unwrap_or_else(|| "BENCH_pr8.json".to_string()),
        ),
        Some(other) => {
            eprintln!("unknown option {other:?}; usage: hlm-bench [--json [PATH]]");
            std::process::exit(2);
        }
    };

    let scale = ExpScale::from_env();
    let is_xl = scale.name == "xl";
    eprintln!(
        "[hlm-bench] scale: {} ({} companies)",
        scale.name, scale.n_companies
    );
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Structural caveats: conditions under which the numbers below cannot
    // mean what a reader will assume they mean. Loud on stderr, recorded
    // verbatim in the JSON so downstream dashboards can't quote a figure
    // without its disclaimer.
    let mut caveats: Vec<String> = Vec::new();
    if hardware == 1 {
        caveats.push(
            "single hardware thread: parallel speedups cannot manifest on this host, \
             only the no-penalty property is testable"
                .to_string(),
        );
    }
    if matches!(scale.name, "smoke" | "small") {
        caveats.push(format!(
            "{} scale: timings are dominated by fixed overheads; \
             use HLM_SCALE=medium or larger for quotable numbers",
            scale.name
        ));
    }
    let caveat = caveats.join("; ");
    if !caveat.is_empty() {
        eprintln!("[hlm-bench] ==================== WARNING ====================");
        for c in &caveats {
            eprintln!("[hlm-bench] CAVEAT: {c}");
        }
        eprintln!("[hlm-bench] =================================================");
    }

    hlm_obs::install(hlm_obs::Recorder::enabled());
    let (inmem, samplers, query_path) = if is_xl {
        eprintln!("[hlm-bench] xl scale: skipping in-memory phases, sharded pipeline only");
        (None, None, None)
    } else {
        (
            Some(run_in_memory(&scale)),
            Some(run_samplers(&scale, hardware)),
            Some(run_query_path(&scale)),
        )
    };
    let sharded = run_sharded(&scale);
    hlm_obs::global().set_gauge(hlm_obs::PEAK_RSS_GAUGE, sharded.peak_rss_bytes as f64);

    if let Some(m) = &inmem {
        println!(
            "corpus: {} companies, {} products, {} docs train / {} test",
            m.companies, m.products, m.train_docs, m.test_docs
        );
        println!(
            "LDA: 3 topics, {} sweeps over {} tokens; hardware threads: {hardware}",
            m.n_iters, m.train_tokens
        );
        for r in &m.runs {
            println!(
                "threads={}: train {:.3}s (best of 3)  eval {:.3}s  perplexity {:.6}",
                r.threads, r.train_seconds, r.eval_seconds, r.perplexity
            );
        }
        println!(
            "speedup (1 -> 8 threads): train {:.2}x  parallel penalty {:.1}%",
            m.speedup_train,
            m.parallel_penalty * 100.0
        );
        println!(
            "gibbs throughput (1 thread): {:.0} tokens/s",
            m.gibbs_tokens_per_second
        );
        println!(
            "serve p50/p99: cold {:.1}/{:.1} µs  warm {:.1}/{:.1} µs  cache hit rate {:.0}%",
            m.cold_p50 * 1e6,
            m.cold_p99 * 1e6,
            m.warm_p50 * 1e6,
            m.warm_p99 * 1e6,
            m.hit_rate * 100.0
        );
        println!("deterministic across thread counts: {}", m.deterministic);
    }
    if let Some(sp) = &samplers {
        println!("samplers ({} tokens, 1 thread):", sp.tokens);
        for g in &sp.by_k {
            println!("  K={}, {} sweeps:", g.k, g.sweeps);
            for r in &g.serial {
                println!(
                    "    {:<6} {:.3}s = {:.0} tokens/s",
                    r.name, r.train_seconds, r.tokens_per_second
                );
            }
            println!("    alias vs dense {:.2}x", g.alias_vs_dense);
        }
        let sweep: Vec<String> = sp
            .thread_sweep
            .iter()
            .map(|(t, s)| format!("{t}t={s:.3}s"))
            .collect();
        println!(
            "  alias thread sweep (K={}): {} -> speedup(1->8) {:.2}x{}",
            sp.thread_k,
            sweep.join("  "),
            sp.alias_speedup_1_to_8,
            if sp.speedup_valid {
                ""
            } else {
                " [NOT VALID: single hardware thread]"
            }
        );
    }
    if let Some(qp) = &query_path {
        println!(
            "query path (d={}, k={}, cosine, 1 thread; blocked = batch of {}):",
            qp.dims, qp.k, qp.batch
        );
        for g in &qp.sizes {
            println!("  n={}:", g.n);
            for r in &g.kernels {
                println!(
                    "    {:<12} {:>9.0} queries/s  p50 {:>8.1} µs  p99 {:>8.1} µs",
                    r.name, r.queries_per_second, r.p50_us, r.p99_us
                );
            }
            println!("    blocked-f64 vs scalar {:.2}x", g.blocked_f64_speedup);
        }
    }
    let s = &sharded;
    println!(
        "sharded: {} companies / {} tokens in {} shards x {} ({:.1} MiB on disk), \
         generated in {:.1}s",
        s.companies,
        s.tokens,
        s.n_shards,
        s.shard_size,
        s.disk_bytes as f64 / (1024.0 * 1024.0),
        s.gen_seconds
    );
    println!(
        "sharded gibbs: {} sweeps in {:.1}s = {:.0} tokens/s",
        s.gibbs_sweeps, s.gibbs_seconds, s.gibbs_tokens_per_second
    );
    println!(
        "sharded online-VB: {} epoch(s) in {:.1}s = {:.0} tokens/s",
        s.vb_epochs, s.vb_seconds, s.vb_tokens_per_second
    );
    println!(
        "peak RSS: {:.1} MiB vs {:.1} MiB estimated in-memory footprint ({:.0}%{})",
        s.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        s.in_memory_bytes_estimate as f64 / (1024.0 * 1024.0),
        s.rss_ratio * 100.0,
        if inmem.is_some() {
            "; includes the in-memory phases — the ratio is only meaningful at HLM_SCALE=xl"
        } else {
            ""
        }
    );
    if !caveat.is_empty() {
        println!("caveat: {caveat}");
    }

    if want_json {
        let mut j = String::new();
        let _ = writeln!(j, "{{");
        let _ = writeln!(j, "  \"bench\": \"pr8_sampler_kernels\",");
        let _ = writeln!(j, "  \"scale\": \"{}\",", scale.name);
        let _ = writeln!(j, "  \"hardware_threads\": {hardware},");
        let _ = writeln!(j, "  \"caveat\": \"{caveat}\",");
        if let Some(m) = &inmem {
            let _ = writeln!(
                j,
                "  \"corpus\": {{\"companies\": {}, \"products\": {}, \"train_docs\": {}, \
                 \"test_docs\": {}, \"train_tokens\": {}}},",
                m.companies, m.products, m.train_docs, m.test_docs, m.train_tokens
            );
            let _ = writeln!(
                j,
                "  \"lda\": {{\"n_topics\": 3, \"n_iters\": {}}},",
                m.n_iters
            );
            let _ = writeln!(j, "  \"runs\": [");
            for (i, r) in m.runs.iter().enumerate() {
                let _ = writeln!(
                    j,
                    "    {{\"threads\": {}, \"train_seconds\": {:.6}, \"eval_seconds\": {:.6}, \
                     \"perplexity\": {:.12}}}{}",
                    r.threads,
                    json::finite_or(r.train_seconds, 0.0),
                    json::finite_or(r.eval_seconds, 0.0),
                    json::finite_or(r.perplexity, 0.0),
                    if i + 1 < m.runs.len() { "," } else { "" }
                );
            }
            let _ = writeln!(j, "  ],");
            let _ = writeln!(
                j,
                "  \"speedup_1_to_8\": {{\"train\": {:.4}}},",
                m.speedup_train
            );
            let _ = writeln!(j, "  \"parallel_penalty\": {:.4},", m.parallel_penalty);
            let _ = writeln!(
                j,
                "  \"gibbs\": {{\"tokens_per_second\": {:.1}}},",
                m.gibbs_tokens_per_second
            );
            let _ = writeln!(
                j,
                "  \"serve\": {{\"queries\": {}, \"k\": {}, \
                 \"cold_p50_us\": {:.3}, \"cold_p99_us\": {:.3}, \
                 \"warm_p50_us\": {:.3}, \"warm_p99_us\": {:.3}, \
                 \"cache_hit_rate\": {:.4}}},",
                m.serve_queries,
                m.serve_k,
                m.cold_p50 * 1e6,
                m.cold_p99 * 1e6,
                m.warm_p50 * 1e6,
                m.warm_p99 * 1e6,
                m.hit_rate
            );
            let _ = writeln!(j, "  \"deterministic\": {},", m.deterministic);
        }
        if let Some(sp) = &samplers {
            let _ = writeln!(j, "  \"samplers\": {{\"tokens\": {},", sp.tokens);
            let _ = writeln!(j, "    \"by_k\": [");
            for (gi, g) in sp.by_k.iter().enumerate() {
                let _ = writeln!(j, "      {{\"k\": {}, \"sweeps\": {},", g.k, g.sweeps);
                let _ = writeln!(j, "       \"serial\": [");
                for (i, r) in g.serial.iter().enumerate() {
                    let _ = writeln!(
                        j,
                        "         {{\"sampler\": \"{}\", \"train_seconds\": {:.6}, \
                         \"tokens_per_second\": {:.1}}}{}",
                        r.name,
                        json::finite_or(r.train_seconds, 0.0),
                        r.tokens_per_second,
                        if i + 1 < g.serial.len() { "," } else { "" }
                    );
                }
                let _ = writeln!(j, "       ],");
                let _ = writeln!(
                    j,
                    "       \"alias_vs_dense\": {:.4}}}{}",
                    g.alias_vs_dense,
                    if gi + 1 < sp.by_k.len() { "," } else { "" }
                );
            }
            let _ = writeln!(j, "    ],");
            let _ = writeln!(j, "    \"thread_sweep_k\": {},", sp.thread_k);
            let _ = writeln!(j, "    \"thread_sweep\": [");
            for (i, (t, s)) in sp.thread_sweep.iter().enumerate() {
                let _ = writeln!(
                    j,
                    "      {{\"threads\": {t}, \"train_seconds\": {:.6}}}{}",
                    json::finite_or(*s, 0.0),
                    if i + 1 < sp.thread_sweep.len() {
                        ","
                    } else {
                        ""
                    }
                );
            }
            let _ = writeln!(j, "    ],");
            let _ = writeln!(
                j,
                "    \"alias_speedup_1_to_8\": {:.4}, \"speedup_valid\": {}, \
                 \"deterministic\": {}}},",
                sp.alias_speedup_1_to_8, sp.speedup_valid, sp.deterministic
            );
        }
        let _ = writeln!(
            j,
            "  \"sharded\": {{\"companies\": {}, \"tokens\": {}, \"n_shards\": {}, \
             \"shard_size\": {}, \"disk_bytes\": {}, \"gen_seconds\": {:.3},",
            s.companies, s.tokens, s.n_shards, s.shard_size, s.disk_bytes, s.gen_seconds
        );
        let _ = writeln!(
            j,
            "    \"gibbs_sweeps\": {}, \"gibbs_seconds\": {:.3}, \
             \"gibbs_tokens_per_second\": {:.1},",
            s.gibbs_sweeps, s.gibbs_seconds, s.gibbs_tokens_per_second
        );
        let _ = writeln!(
            j,
            "    \"vb_epochs\": {}, \"vb_seconds\": {:.3}, \"vb_tokens_per_second\": {:.1},",
            s.vb_epochs, s.vb_seconds, s.vb_tokens_per_second
        );
        let _ = writeln!(
            j,
            "    \"peak_rss_bytes\": {}, \"in_memory_bytes_estimate\": {}, \
             \"rss_ratio\": {:.4}}}",
            s.peak_rss_bytes, s.in_memory_bytes_estimate, s.rss_ratio
        );
        let _ = writeln!(j, "}}");
        json::check_finite(&j).expect("benchmark json must contain only finite numbers");
        std::fs::write(&json_path, j).expect("write benchmark json");
        eprintln!("[hlm-bench] wrote {json_path}");
        if let Some(qp) = &query_path {
            write_query_path_json(qp, &scale, hardware, &caveat, "BENCH_pr10.json");
        }
    }
}
