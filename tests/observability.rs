//! The observability contract (DESIGN.md §3.4): the recorder is a read-only
//! observer. Enabling it — at any thread count — must leave every model
//! output bit-identical, and the counter totals it collects must themselves
//! be deterministic across thread counts (they are a function of the work,
//! not of the schedule). Per-worker histograms (busy time, tasks per
//! worker, queue depth) and the pool-lifecycle counters
//! (`par.pool_spawned` / `par.pool_reused`, which depend on how many
//! workers earlier runs already left parked) are wall-clock/schedule
//! dependent by nature and are deliberately excluded from the cross-thread
//! equality.
//!
//! Also pins the JSONL event-log schema (version, record types, required
//! keys, bucket labels) so downstream consumers can rely on it, checks
//! both sink formats never emit non-finite numbers, and checks that a
//! spilled Gibbs fit times each phase of every shard visit.
//!
//! Everything lives in one test function: the thread override and the
//! recorder registry are process-global, and the default multi-threaded
//! test harness would otherwise race two tests' installs against each other.

use hlm_lda::{document_completion_perplexity, LdaConfig, MemDocShards, ShardedGibbsTrainer};
use hlm_tests::{quick_lda, test_corpus, test_split};
use serde::Value;

/// Field lookup on a parsed JSON object (the vendored `Value` keeps maps as
/// ordered pairs).
fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// LDA train + perplexity, summarized as raw bits so `==` is bit-identity.
fn workload(corpus: &hlm_corpus::Corpus, split: &hlm_corpus::Split) -> (Vec<u64>, u64) {
    let (model, _) = quick_lda(corpus, &split.train, 3);
    let test_docs = hlm_core::representations::binary_docs(corpus, &split.test);
    let phi: Vec<u64> = model.phi().as_slice().iter().map(|x| x.to_bits()).collect();
    let ppl = document_completion_perplexity(&model, &test_docs).to_bits();
    (phi, ppl)
}

#[test]
fn recorder_is_a_pure_observer_and_sinks_keep_their_schema() {
    let corpus = test_corpus(200, 71);
    let split = test_split(&corpus);

    // Engage the pool even on this deliberately small workload, so the
    // parallel paths are the ones being observed.
    hlm_par::set_par_threshold(Some(0));

    // Baseline: recorder disabled (the default no-op), serial run.
    hlm_engine::set_threads(1);
    let baseline = workload(&corpus, &split);

    // Recorder enabled at 1, 2 and 7 threads: outputs must stay bit-identical
    // to the instrumented-off baseline, and counter totals must agree across
    // thread counts.
    let mut counter_sets: Vec<Vec<(String, u64)>> = Vec::new();
    let mut last_snapshot = None;
    for threads in [1usize, 2, 7] {
        hlm_engine::set_threads(threads);
        assert_eq!(hlm_engine::effective_threads(), threads);
        hlm_obs::install(hlm_obs::Recorder::enabled());
        let out = workload(&corpus, &split);
        assert_eq!(
            out, baseline,
            "{threads}-thread run with recorder enabled differs from baseline"
        );
        let snap = hlm_obs::global().snapshot();
        counter_sets.push(
            snap.counters
                .iter()
                .filter(|(k, _)| !k.starts_with("par.pool_"))
                .cloned()
                .collect(),
        );
        last_snapshot = Some(snap);
    }
    // Restore globals for any later process reuse.
    hlm_obs::install(hlm_obs::Recorder::noop());
    hlm_engine::set_threads(0);
    hlm_par::set_par_threshold(None);

    // Counters are totals over the work done, not over the schedule: every
    // thread count must produce the same set with the same values
    // (pool-lifecycle counters excluded above — how many workers spawn vs.
    // get reused depends on what earlier dispatches left parked).
    assert_eq!(
        counter_sets[0], counter_sets[1],
        "counter totals differ between 1 and 2 threads"
    );
    assert_eq!(
        counter_sets[0], counter_sets[2],
        "counter totals differ between 1 and 7 threads"
    );
    let counter = |name: &str| -> u64 {
        counter_sets[0]
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name:?}"))
    };
    assert!(counter("par.runs") > 0);
    assert!(counter("par.tasks") > 0);
    assert_eq!(counter("lda.gibbs.sweeps"), 80);

    let snap = last_snapshot.expect("at least one snapshot");
    assert!(
        snap.traces
            .iter()
            .any(|t| t.name == "lda.gibbs.log_likelihood" && t.value.is_finite()),
        "per-sweep log-likelihood trace missing"
    );

    // --- JSONL golden schema -------------------------------------------
    let jsonl = snap.to_jsonl();
    hlm_obs::json::check_finite(&jsonl).expect("JSONL must contain only finite numbers");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(!lines.is_empty());
    let meta: Value = serde_json::from_str(lines[0]).expect("meta line is valid JSON");
    assert_eq!(get(&meta, "type").and_then(as_str), Some("meta"));
    assert_eq!(
        get(&meta, "schema").and_then(as_u64),
        Some(u64::from(hlm_obs::SCHEMA_VERSION))
    );
    for key in ["spans", "counters", "gauges", "histograms", "traces"] {
        assert!(
            get(&meta, key).and_then(as_u64).is_some(),
            "meta is missing {key:?}: {:?}",
            lines[0]
        );
    }
    for line in &lines[1..] {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("invalid JSONL line {line:?}: {e}"));
        let kind = get(&v, "type").and_then(as_str).expect("record has a type");
        let required: &[&str] = match kind {
            "span" => &["seq", "path", "start_ms", "duration_ms"],
            "counter" => &["name", "value"],
            "gauge" => &["name", "value"],
            "histogram" => &["name", "count", "sum", "min", "max", "buckets"],
            "trace" => &["seq", "name", "iteration", "value"],
            other => panic!("unknown record type {other:?} in {line:?}"),
        };
        for key in required {
            match get(&v, key) {
                None | Some(Value::Null) => {
                    panic!("record {line:?} is missing or nulls {key:?}")
                }
                Some(_) => {}
            }
        }
        if kind == "histogram" {
            let Some(Value::Seq(buckets)) = get(&v, "buckets") else {
                panic!("buckets is not an array in {line:?}");
            };
            assert_eq!(buckets.len(), hlm_obs::BUCKET_BOUNDS.len() + 1);
            let le = |b: &Value| get(b, "le").and_then(as_str).map(str::to_string);
            assert_eq!(le(&buckets[0]).as_deref(), Some("1e-6"));
            assert_eq!(le(buckets.last().unwrap()).as_deref(), Some("+Inf"));
        }
    }
    // Counter records in the log match the snapshot totals (the snapshot
    // includes the pool-lifecycle counters the equality check filtered).
    let logged_counters = lines[1..]
        .iter()
        .filter(|l| l.contains("\"type\":\"counter\""))
        .count();
    assert_eq!(logged_counters, snap.counters.len());

    // --- Prometheus snapshot -------------------------------------------
    let prom = snap.to_prometheus();
    assert!(prom.contains("hlm_par_tasks"), "{prom}");
    assert!(prom.contains("hlm_lda_gibbs_sweeps 80"), "{prom}");
    assert!(
        prom.lines().any(|l| l.starts_with("# TYPE")),
        "prometheus output must carry TYPE comments"
    );
    for token in ["NaN", "inf"] {
        assert!(
            !prom.contains(token),
            "prometheus output contains non-finite token {token:?}"
        );
    }

    // --- Shard-visit spans ---------------------------------------------
    // A 2-shard, 3-sweep spilled fit visits a shard six times, and each
    // visit loads, samples, merges and spills once.
    let docs = hlm_core::representations::binary_docs(&corpus, &split.train);
    let cfg = LdaConfig {
        n_topics: 3,
        vocab_size: corpus.vocab().len(),
        n_iters: 3,
        burn_in: 1,
        sample_lag: 1,
        ..Default::default()
    };
    let work = std::env::temp_dir().join(format!("hlm_obs_visit_spans_{}", std::process::id()));
    let source = MemDocShards::new(&docs, 2);
    assert_eq!(hlm_lda::DocShardSource::n_shards(&source), 2);
    hlm_obs::install(hlm_obs::Recorder::enabled());
    ShardedGibbsTrainer::new(cfg, &work).fit(&source);
    let snap = hlm_obs::global().snapshot();
    hlm_obs::install(hlm_obs::Recorder::noop());
    let _ = std::fs::remove_dir_all(&work);
    for phase in ["load", "sample", "merge", "spill"] {
        let path = format!("lda.visit.{phase}");
        let n = snap.spans.iter().filter(|s| s.path == path).count();
        assert_eq!(n, 6, "{path} spans in a 2-shard, 3-sweep fit");
    }
}
