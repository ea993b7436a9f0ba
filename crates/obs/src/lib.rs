//! Structured observability for the hidden-layer-models workspace.
//!
//! Everything here is std-only and allocation-light: a cheap [`Recorder`]
//! handle (a no-op unless explicitly enabled) behind which live
//!
//! * **hierarchical spans** — wall-clock timed scopes with `/`-separated
//!   paths (`engine.train/lda.gibbs.sweep`), recorded on drop;
//! * **monotonic counters** — `u64` totals keyed by dotted names;
//! * **fixed-bucket histograms** — one shared log-scale bucket layout
//!   ([`BUCKET_BOUNDS`]) so snapshots from different runs line up;
//! * **traces** — per-iteration scalar series (log-likelihood, NLL) for
//!   convergence plots.
//!
//! Two sinks render a [`Snapshot`]: a JSON-lines event log with a stable,
//! golden-tested schema ([`Snapshot::to_jsonl`]) and a Prometheus-style text
//! snapshot ([`Snapshot::to_prometheus`]).
//!
//! # Determinism contract
//!
//! The recorder composes with `hlm-par`'s determinism guarantee: metrics are
//! *read-only observers* of the computation — nothing downstream ever
//! branches on a recorded value — so enabling observability cannot change
//! model outputs. Parallel hot loops sum their counts per chunk and record
//! them from the calling thread after the chunks merge in chunk order, so
//! counter totals are identical at any thread count. (Wall-clock figures —
//! span durations, per-worker busy time — naturally vary run to run;
//! integer totals do not.)
//!
//! Hot paths obtain the process-wide handle via [`global`]; it is a no-op
//! until [`install`] replaces it (the CLI does this for `--metrics`).

pub mod json;
mod sink;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Version tag of the JSON-lines event-log schema. Bump only with the
/// golden-schema test. (v2 added gauges.)
pub const SCHEMA_VERSION: u32 = 2;

/// Upper bounds (inclusive) of the shared fixed histogram buckets, in the
/// metric's natural unit (seconds for timings, bytes for sizes, …). One
/// log-scale layout for every histogram keeps snapshots comparable across
/// runs and metrics; values above the last bound land in an overflow
/// bucket.
pub const BUCKET_BOUNDS: [f64; 13] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
];

/// Counter incremented (instead of recording) when a non-finite value is
/// handed to [`Recorder::observe`] / [`Recorder::trace`] in release builds;
/// debug builds panic so the offending call site is found.
pub(crate) const NON_FINITE_DROPPED: &str = "obs.non_finite_dropped";

/// A fixed-bucket histogram: cumulative-free per-bucket counts plus
/// count/sum/min/max. Bucket `i` holds values `v <= BUCKET_BOUNDS[i]` (and
/// greater than the previous bound); the final slot is the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts; the last entry is the overflow bucket.
    pub buckets: [u64; BUCKET_BOUNDS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 until the first observation).
    pub min: f64,
    /// Largest observed value (0 until the first observation).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// Records one finite value. (Non-finite values are filtered before this
    /// point by [`Recorder::observe`].)
    fn record(&mut self, v: f64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }
}

/// One completed span: a timed scope with a hierarchical `/`-separated path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Order of completion within the recorder (stable tiebreak for logs).
    pub seq: u64,
    /// Hierarchical path, e.g. `cli.topics/engine.train`.
    pub path: String,
    /// Start offset in milliseconds since the recorder was created.
    pub start_ms: f64,
    /// Wall-clock duration in milliseconds.
    pub duration_ms: f64,
}

/// One point of a per-iteration scalar series (loss curves, likelihood
/// traces).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Order of recording within the recorder.
    pub seq: u64,
    /// Series name, e.g. `lda.gibbs.log_likelihood`.
    pub name: String,
    /// Iteration / sweep / epoch index within the series.
    pub iteration: u64,
    /// The observed value (always finite).
    pub value: f64,
}

#[derive(Default)]
struct State {
    seq: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
    traces: Vec<TraceRecord>,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// A cheap, clonable handle to a metrics store — or a no-op. Every recording
/// method on a no-op recorder returns immediately without locking or
/// allocating, so instrumentation can stay in hot paths unconditionally.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder: every method is free and records nothing.
    pub const fn noop() -> Self {
        Recorder { inner: None }
    }

    /// An active recorder with an empty metrics store.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this handle actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to the named monotonic counter.
    pub fn add(&self, name: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("obs state lock");
        *st.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the named gauge to `value` — a last-write-wins point-in-time
    /// level (peak RSS, queue depth), unlike the monotonic counters.
    /// Non-finite values are handled as in [`Recorder::observe`].
    pub fn set_gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        if !value.is_finite() {
            debug_assert!(value.is_finite(), "non-finite gauge value for {name}");
            self.add(NON_FINITE_DROPPED, 1);
            return;
        }
        let mut st = inner.state.lock().expect("obs state lock");
        st.gauges.insert(name.to_string(), value);
    }

    /// The value of one gauge (`None` when never set or disabled).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let st = inner.state.lock().expect("obs state lock");
        st.gauges.get(name).copied()
    }

    /// Records one value into the named fixed-bucket histogram. Non-finite
    /// values panic in debug builds and are counted under
    /// [`NON_FINITE_DROPPED`] (not recorded) in release builds.
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        if !value.is_finite() {
            debug_assert!(value.is_finite(), "non-finite observation for {name}");
            self.add(NON_FINITE_DROPPED, 1);
            return;
        }
        let mut st = inner.state.lock().expect("obs state lock");
        st.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Appends one point to the named per-iteration series. Non-finite
    /// values are handled as in [`Recorder::observe`].
    pub fn trace(&self, name: &str, iteration: u64, value: f64) {
        let Some(inner) = &self.inner else { return };
        if !value.is_finite() {
            debug_assert!(value.is_finite(), "non-finite trace point for {name}");
            self.add(NON_FINITE_DROPPED, 1);
            return;
        }
        let mut st = inner.state.lock().expect("obs state lock");
        let seq = st.seq;
        st.seq += 1;
        st.traces.push(TraceRecord {
            seq,
            name: name.to_string(),
            iteration,
            value,
        });
    }

    /// Opens a root span. The span records its wall-clock duration when
    /// dropped; derive children with [`Span::child`] for hierarchy.
    pub fn span(&self, name: &str) -> Span {
        Span::open(self.clone(), name.to_string())
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let st = inner.state.lock().expect("obs state lock");
        Snapshot {
            schema: SCHEMA_VERSION,
            counters: st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: st.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: st
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            spans: st.spans.clone(),
            traces: st.traces.clone(),
        }
    }

    /// The value of one counter (0 when absent or disabled). Convenience for
    /// tests and summary lines.
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let st = inner.state.lock().expect("obs state lock");
        st.counters.get(name).copied().unwrap_or(0)
    }

    fn finish_span(&self, path: &str, start_ms: f64, duration_ms: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("obs state lock");
        let seq = st.seq;
        st.seq += 1;
        st.spans.push(SpanRecord {
            seq,
            path: path.to_string(),
            start_ms,
            duration_ms,
        });
    }
}

/// An open timed scope. Records a [`SpanRecord`] when dropped; children
/// created via [`Span::child`] extend the path with `/`.
pub struct Span {
    rec: Recorder,
    path: String,
    started: Option<(Instant, f64)>,
}

impl Span {
    fn open(rec: Recorder, path: String) -> Self {
        let started = rec
            .inner
            .as_ref()
            .map(|inner| (Instant::now(), inner.epoch.elapsed().as_secs_f64() * 1e3));
        Span { rec, path, started }
    }

    /// Opens a child span (`parent_path/name`).
    pub fn child(&self, name: &str) -> Span {
        Span::open(self.rec.clone(), format!("{}/{name}", self.path))
    }

    /// The span's hierarchical path.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, start_ms)) = self.started {
            let duration_ms = start.elapsed().as_secs_f64() * 1e3;
            self.rec.finish_span(&self.path, start_ms, duration_ms);
        }
    }
}

/// A point-in-time copy of a recorder's contents, ready for rendering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Event-log schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels (last write wins), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Trace points, in recording order.
    pub traces: Vec<TraceRecord>,
}

impl Snapshot {
    /// Span count and the wall-clock milliseconds covered by *root* spans
    /// (paths without `/`) — children are already contained in their
    /// parents, and a root opened inside another root (a fit's spans inside
    /// a command's) counts once, so the total is instrumented wall-clock
    /// without double counting.
    pub fn span_totals(&self) -> (usize, f64) {
        let mut roots: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| !s.path.contains('/'))
            .map(|s| (s.start_ms, s.start_ms + s.duration_ms))
            .collect();
        roots.sort_by(|a, b| a.0.total_cmp(&b.0));
        // The length of the union of the root intervals. The +0.0 seed keeps
        // an empty total from printing as "-0.0ms".
        let mut root_ms = 0.0;
        let mut open: Option<(f64, f64)> = None;
        for (lo, hi) in roots {
            match &mut open {
                Some((_, end)) if lo <= *end => *end = end.max(hi),
                _ => {
                    if let Some((a, b)) = open.replace((lo, hi)) {
                        root_ms += b - a;
                    }
                }
            }
        }
        if let Some((a, b)) = open {
            root_ms += b - a;
        }
        (self.spans.len(), root_ms)
    }
}

/// Gauge name under which the CLI and bench record [`peak_rss_bytes`].
pub const PEAK_RSS_GAUGE: &str = "process.peak_rss_bytes";

/// Canonical metric names shared by the serving stack (`hlm-serve`, the CLI
/// `serve` command, the load generator) and its dashboards. Keeping the
/// strings here — next to the sinks that render them — means a renamed
/// metric breaks one constant, not N scattered literals.
pub mod names {
    /// Gauge: requests currently waiting in the admission queue. Updated on
    /// every enqueue/dequeue, so the last snapshot value is the depth at
    /// snapshot time.
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Counter: requests rejected with 503 because the admission queue was
    /// full (explicit load shedding, never unbounded queueing).
    pub const SERVE_SHED: &str = "serve.shed";
    /// Counter: admitted requests dropped with 504 because their deadline
    /// expired before (or while) a worker could answer them.
    pub const SERVE_DEADLINE_EXCEEDED: &str = "serve.deadline_exceeded";
    /// Counter: batches whose answering panicked. The batch worker catches
    /// the panic and keeps serving; the batch's callers get 500.
    pub const SERVE_WORKER_PANICS: &str = "serve.worker_panics";
    /// Counter: successful hot model swaps (candidate passed its canary).
    pub const SERVE_HOT_SWAP: &str = "serve.hot_swap";
    /// Counter: rejected hot-swap candidates — the canary probe failed and
    /// the server kept serving the previous model.
    pub const SERVE_ROLLBACK: &str = "serve.rollback";
    /// Counter: similar-company lookups the serving cache answered. A
    /// served similar or whitespace request counts one hit or one miss.
    pub const SERVE_CACHE_HIT: &str = "serve.cache_hit";
    /// Counter: similar-company lookups the serving cache could not
    /// answer, so the query was scored.
    pub const SERVE_CACHE_MISS: &str = "serve.cache_miss";
    /// Histogram: seconds from a query's admission to its `200` answer,
    /// whether a handler answered it from the cache or a batch worker did.
    pub const SERVE_E2E_SECONDS: &str = "serve.e2e_seconds";
    /// Histogram: seconds spent building a checkpoint payload (the
    /// trainer's state encode), recorded per save beside
    /// `resilience.checkpoint_seconds`, which times only the sink write.
    pub const RESILIENCE_CHECKPOINT_ENCODE_SECONDS: &str = "resilience.checkpoint_encode_seconds";
    /// Counter: `latest_good` checkpoint reads that *errored* (not "no
    /// checkpoint found" — a real IO/listing failure). These used to be
    /// silently swallowed on the engine's divergence-rollback path.
    pub const ENGINE_LATEST_GOOD_ERRORS: &str = "engine.latest_good_errors";
    /// Counter: stream events applied by the replay driver (acquisitions,
    /// company arrivals, product launches).
    pub const REPLAY_EVENTS: &str = "replay.events";
    /// Counter: drift checks run by the replay driver (valid reports only —
    /// windows with too little data to test are not counted).
    pub const REPLAY_DRIFT_CHECKS: &str = "replay.drift_checks";
    /// Counter: retrains the replay driver started (drift-triggered or
    /// periodic, per its policy).
    pub const REPLAY_RETRAINS: &str = "replay.retrains";
    /// Counter: serving-model swaps completed by the replay driver (via
    /// `POST /admin/swap` when a server is attached, in-process otherwise).
    pub const REPLAY_SWAPS: &str = "replay.swaps";
}

/// The process's high-water-mark resident set size in bytes, read from
/// `VmHWM` in `/proc/self/status`. Returns `None` on platforms without
/// procfs or if the field is missing — callers treat that as "unknown", not
/// zero.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            // Format: "VmHWM:     123456 kB"
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

static GLOBAL: RwLock<Recorder> = RwLock::new(Recorder::noop());

/// Installs the process-wide recorder returned by [`global`]. Hot paths pick
/// it up on their next call; installing [`Recorder::noop`] turns recording
/// back off.
pub fn install(recorder: Recorder) {
    *GLOBAL.write().expect("obs global lock") = recorder;
}

/// The process-wide recorder (a no-op until [`install`] is called). Cloning
/// is one `Option<Arc>` clone — cheap enough for per-sweep use.
pub fn global() -> Recorder {
    GLOBAL.read().expect("obs global lock").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_records_nothing() {
        let rec = Recorder::noop();
        assert!(!rec.is_enabled());
        rec.add("a", 3);
        rec.observe("h", 1.0);
        rec.trace("t", 0, 1.0);
        drop(rec.span("s"));
        let snap = rec.snapshot();
        assert_eq!(snap, Snapshot::default());
        assert_eq!(rec.counter("a"), 0);
    }

    #[test]
    fn counters_accumulate() {
        let rec = Recorder::enabled();
        rec.add("x.y", 2);
        rec.add("x.y", 3);
        rec.add("z", 1);
        assert_eq!(rec.counter("x.y"), 5);
        let snap = rec.snapshot();
        assert_eq!(
            snap.counters,
            vec![("x.y".to_string(), 5), ("z".to_string(), 1)]
        );
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let rec = Recorder::enabled();
        for v in [5e-7, 2e-6, 0.5, 2e7] {
            rec.observe("h", v);
        }
        let snap = rec.snapshot();
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "h");
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 1); // 5e-7 <= 1e-6
        assert_eq!(h.buckets[1], 1); // 2e-6 <= 1e-5
        assert_eq!(h.buckets[6], 1); // 0.5 <= 1.0
        assert_eq!(h.buckets[BUCKET_BOUNDS.len()], 1); // overflow
        assert_eq!(h.min, 5e-7);
        assert_eq!(h.max, 2e7);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite"))]
    fn non_finite_observation_is_dropped_and_counted() {
        let rec = Recorder::enabled();
        rec.observe("h", f64::NAN);
        // Release builds reach here: the value is dropped, not recorded.
        let snap = rec.snapshot();
        assert!(snap.histograms.is_empty());
        assert_eq!(rec.counter(NON_FINITE_DROPPED), 1);
    }

    #[test]
    fn spans_nest_by_path_and_record_on_drop() {
        let rec = Recorder::enabled();
        {
            let root = rec.span("outer");
            let _child = root.child("inner");
            assert_eq!(root.path(), "outer");
        }
        let snap = rec.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        // The child drops first.
        assert_eq!(paths, vec!["outer/inner", "outer"]);
        assert!(snap.spans.iter().all(|s| s.duration_ms >= 0.0));
        let (n, total) = snap.span_totals();
        assert_eq!(n, 2);
        // Only the root contributes to the total.
        assert!((total - snap.spans[1].duration_ms).abs() < 1e-12);
    }

    #[test]
    fn nested_root_spans_count_once_in_the_total() {
        let span = |path: &str, start_ms: f64, duration_ms: f64| SpanRecord {
            seq: 0,
            path: path.to_string(),
            start_ms,
            duration_ms,
        };
        let snap = Snapshot {
            spans: vec![
                span("fit", 0.0, 10.0),
                span("visit", 2.0, 3.0),
                span("fit/child", 1.0, 4.0),
                span("tail", 8.0, 4.0),
                span("later", 20.0, 5.0),
            ],
            ..Snapshot::default()
        };
        assert_eq!(snap.span_totals(), (5, 17.0));
        assert_eq!(Snapshot::default().span_totals().1.to_bits(), 0);
    }

    #[test]
    fn traces_keep_order_and_iteration() {
        let rec = Recorder::enabled();
        rec.trace("ll", 0, -10.0);
        rec.trace("ll", 1, -9.0);
        let snap = rec.snapshot();
        assert_eq!(snap.traces.len(), 2);
        assert_eq!(snap.traces[1].iteration, 1);
        assert!(snap.traces[0].seq < snap.traces[1].seq);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let rec = Recorder::enabled();
        assert_eq!(rec.gauge("rss"), None);
        rec.set_gauge("rss", 10.0);
        rec.set_gauge("rss", 7.0);
        rec.set_gauge("depth", 3.0);
        assert_eq!(rec.gauge("rss"), Some(7.0));
        let snap = rec.snapshot();
        assert_eq!(
            snap.gauges,
            vec![("depth".to_string(), 3.0), ("rss".to_string(), 7.0)]
        );
        // Disabled recorders stay inert.
        let noop = Recorder::noop();
        noop.set_gauge("rss", 1.0);
        assert_eq!(noop.gauge("rss"), None);
    }

    #[test]
    fn peak_rss_probe_reports_plausible_linux_values() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            let bytes = rss.expect("Linux exposes VmHWM in /proc/self/status");
            // A running test binary surely holds over 1 MiB and (here) under
            // 1 TiB — catches unit mix-ups (kB vs bytes) either way.
            assert!(bytes > 1 << 20, "peak RSS {bytes} implausibly small");
            assert!(bytes < 1 << 40, "peak RSS {bytes} implausibly large");
        }
    }

    #[test]
    fn serving_metric_names_surface_in_both_sinks() {
        let rec = Recorder::enabled();
        rec.set_gauge(names::SERVE_QUEUE_DEPTH, 4.0);
        rec.add(names::SERVE_SHED, 2);
        rec.add(names::SERVE_DEADLINE_EXCEEDED, 1);
        rec.add(names::SERVE_HOT_SWAP, 3);
        rec.add(names::SERVE_ROLLBACK, 1);
        rec.add(names::ENGINE_LATEST_GOOD_ERRORS, 1);
        let snap = rec.snapshot();

        let jsonl = snap.to_jsonl();
        assert!(jsonl.contains("{\"type\":\"gauge\",\"name\":\"serve.queue_depth\",\"value\":4}"));
        for counter in [
            "serve.shed",
            "serve.deadline_exceeded",
            "serve.hot_swap",
            "serve.rollback",
            "engine.latest_good_errors",
        ] {
            assert!(
                jsonl.contains(&format!("{{\"type\":\"counter\",\"name\":\"{counter}\"")),
                "{counter} missing from JSONL:\n{jsonl}"
            );
        }

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE hlm_serve_queue_depth gauge\nhlm_serve_queue_depth 4\n"));
        assert!(prom.contains("# TYPE hlm_serve_shed counter\nhlm_serve_shed 2\n"));
        assert!(prom.contains("hlm_serve_deadline_exceeded 1\n"));
        assert!(prom.contains("hlm_serve_hot_swap 3\n"));
        assert!(prom.contains("hlm_serve_rollback 1\n"));
        assert!(prom.contains("hlm_engine_latest_good_errors 1\n"));
    }

    #[test]
    fn clones_share_the_store() {
        let rec = Recorder::enabled();
        let other = rec.clone();
        other.add("shared", 1);
        assert_eq!(rec.counter("shared"), 1);
    }
}
