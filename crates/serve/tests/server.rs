//! End-to-end drills for `hlm-serve`: wire behaviour, shedding, deadlines,
//! hot swap, rollback, graceful drain, and — the headline — the network
//! fault-injection suite, which drives a live server through
//! [`FaultyStream`] and proves every injected fault ends in a clean
//! response or a closed socket, never a hung thread.
//!
//! Overload and drain drills avoid sleep-based timing: they gate the
//! worker on an [`AtomicBool`] the test controls, so "the worker is busy"
//! is an observed fact, not a race.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hlm_datagen::GeneratorConfig;
use hlm_engine::{
    fit_lda_resilient, Engine, EngineError, LdaEstimator, ModelKind, ServeOptions, TrainPlan,
    TrainedModel,
};
use hlm_lda::{LdaConfig, LdaModel, GIBBS_CHECKPOINT_KIND};
use hlm_resilience::{Checkpoint, CheckpointStore, FaultyStream, MemIo, NetFault, NetFaultPlan};
use hlm_serve::{
    bundle_from_checkpoint, bundle_from_model, ModelBundle, Server, ServerConfig, ServerHandle,
};

use hlm_core::DistanceMetric;
use hlm_obs::json::Num;

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(hlm_datagen::generate(
        &GeneratorConfig::with_size_and_seed(120, 11),
    )))
}

fn trained_model(engine: &Engine) -> LdaModel {
    let config = LdaConfig {
        n_topics: 3,
        vocab_size: engine.corpus().vocab().len(),
        n_iters: 12,
        burn_in: 6,
        sample_lag: 3,
        ..Default::default()
    };
    let ids: Vec<_> = engine.corpus().ids().collect();
    let docs = hlm_core::representations::binary_docs(engine.corpus(), &ids);
    fit_lda_resilient(config, LdaEstimator::Gibbs, &docs, TrainPlan::new())
        .expect("tiny LDA fit")
        .model
}

fn bundle(engine: &Engine, model: LdaModel) -> ModelBundle {
    bundle_from_model(
        engine,
        model,
        0,
        DistanceMetric::Cosine,
        ServeOptions::default(),
    )
    .expect("bundle")
}

fn start_default(engine: &Arc<Engine>) -> (ServerHandle, LdaModel) {
    let model = trained_model(engine);
    let b = bundle(engine, model.clone());
    let server = Server::bind(ServerConfig::default(), Arc::clone(engine), b, None).unwrap();
    (server.start().unwrap(), model)
}

/// Minimal one-shot HTTP client: returns (status, whole response text).
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {target} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    )
}

fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.write_all(raw.as_bytes()).expect("send");
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read response");
    (parse_status(&text), text)
}

fn parse_status(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Poll until no connection is being served — the hung-connection check.
fn assert_no_hung_connections(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connection thread(s) still alive — a fault hung the server",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn health_ready_metrics_and_queries_respond() {
    let engine = engine();
    let (handle, _model) = start_default(&engine);
    let addr = handle.addr();

    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(get(addr, "/readyz").0, 200);

    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body_of(&text)
            .lines()
            .all(|l| l.is_empty() || l.contains(' ')),
        "prometheus exposition is `name value` lines"
    );

    let (status, text) = get(addr, "/v1/similar?company=3&k=5");
    assert_eq!(status, 200, "{text}");
    let body = body_of(&text);
    assert!(body.contains("\"query\":3"), "{body}");
    assert_eq!(body.matches("\"id\":").count(), 5, "{body}");

    let (status, text) = get(addr, "/v1/whitespace?company=3&k=5");
    assert_eq!(status, 200, "{text}");
    assert!(body_of(&text).contains("\"results\":["));

    let (status, text) = get(addr, "/v1/recommend?history=0,2&top=4");
    assert_eq!(status, 200, "{text}");
    let body = body_of(&text);
    assert!(body.contains("\"degraded\":null"), "{body}");
    assert_eq!(body.matches("\"product\":").count(), 4, "{body}");

    assert_eq!(get(addr, "/v1/similar?company=999999&k=5").0, 404);
    assert_eq!(get(addr, "/v1/similar?k=5").0, 400);
    assert_eq!(get(addr, "/v1/recommend?history=abc").0, 400);
    assert_eq!(get(addr, "/nope").0, 404);

    handle.shutdown();
}

#[test]
fn batched_answers_match_direct_application_calls() {
    let engine = engine();
    let model = trained_model(&engine);
    let reference = bundle(&engine, model.clone());
    let serving = bundle(&engine, model);
    let server = Server::bind(ServerConfig::default(), Arc::clone(&engine), serving, None).unwrap();
    let handle = server.start().unwrap();

    let direct = reference
        .app
        .find_similar(
            hlm_corpus::CompanyId(7),
            4,
            &hlm_core::CompanyFilter::default(),
        )
        .unwrap();
    let (status, text) = get(handle.addr(), "/v1/similar?company=7&k=4");
    assert_eq!(status, 200);
    // The wire answer must list exactly the companies the library returns,
    // in order — micro-batching must not change results.
    let body = body_of(&text);
    let mut at = 0;
    for s in &direct {
        let needle = format!("\"id\":{}", s.id.0);
        let pos = body[at..].find(&needle).unwrap_or_else(|| {
            panic!("expected {needle} after byte {at} in {body}");
        });
        at += pos;
    }
    // A worker scored that request, so the cache holds its answer and the
    // handler answers the repeat: the same bytes, which carry the library's
    // answer bit for bit.
    let similar: Vec<String> = direct
        .iter()
        .map(|s| format!("{{\"id\":{},\"distance\":{}}}", s.id.0, Num(s.distance)))
        .collect();
    let (status, again) = get(handle.addr(), "/v1/similar?company=7&k=4");
    assert_eq!(status, 200, "{again}");
    assert_eq!(body_of(&again), body);
    assert!(body.ends_with(&results_json(&similar)), "{body}");

    // Emptied, the cache leaves the first whitespace request to a worker
    // and the repeat to the handler.
    engine.serving_cache().invalidate();
    let whitespace: Vec<String> = reference
        .app
        .recommend_whitespace(
            hlm_corpus::CompanyId(7),
            4,
            &hlm_core::CompanyFilter::default(),
        )
        .unwrap()
        .iter()
        .map(|r| {
            format!(
                "{{\"product\":{},\"score\":{},\"owners\":{}}}",
                r.product.0,
                Num(r.score),
                r.owners_among_similar
            )
        })
        .collect();
    let (status, scored) = get(handle.addr(), "/v1/whitespace?company=7&k=4");
    assert_eq!(status, 200, "{scored}");
    let (status, cached) = get(handle.addr(), "/v1/whitespace?company=7&k=4");
    assert_eq!(status, 200, "{cached}");
    assert_eq!(body_of(&cached), body_of(&scored));
    assert!(
        body_of(&scored).ends_with(&results_json(&whitespace)),
        "{scored}"
    );
    handle.shutdown();
}

/// The tail of a query response body: its results array, then the close.
fn results_json(results: &[String]) -> String {
    format!("\"results\":[{}]}}", results.join(","))
}

/// A primary the tests control: optionally gated on a flag (deterministic
/// overload), optionally slow, optionally poisoned with NaN scores.
struct TestPrimary {
    scores: Vec<f64>,
    delay: Duration,
    hold: Option<Arc<AtomicBool>>,
    started: Arc<AtomicUsize>,
}

impl TrainedModel for TestPrimary {
    fn kind(&self) -> ModelKind {
        ModelKind::Lda
    }
    fn label(&self) -> &str {
        "test-primary"
    }
    fn recommend(&self, _history: &[usize]) -> Result<Vec<f64>, EngineError> {
        self.started.fetch_add(1, Ordering::SeqCst);
        if let Some(hold) = &self.hold {
            let gave_up = Instant::now() + Duration::from_secs(20);
            while hold.load(Ordering::SeqCst) && Instant::now() < gave_up {
                std::thread::sleep(Duration::from_millis(5));
            }
        } else if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        Ok(self.scores.clone())
    }
    fn perplexity(&self, _test: &[Vec<usize>]) -> Result<f64, EngineError> {
        Ok(1.0)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn smooth_scores(vocab: usize) -> Vec<f64> {
    (0..vocab).map(|i| 1.0 / (1.0 + i as f64)).collect()
}

/// A bundle whose recommender blocks while `hold` is true; `started` counts
/// how many recommendations have entered the primary.
fn gated_bundle(engine: &Engine) -> (ModelBundle, Arc<AtomicBool>, Arc<AtomicUsize>) {
    let model = trained_model(engine);
    let mut b = bundle(engine, model);
    let hold = Arc::new(AtomicBool::new(true));
    let started = Arc::new(AtomicUsize::new(0));
    b.resilient = engine.resilient_over(
        Box::new(TestPrimary {
            scores: smooth_scores(engine.corpus().vocab().len()),
            delay: Duration::ZERO,
            hold: Some(Arc::clone(&hold)),
            started: Arc::clone(&started),
        }),
        ServeOptions {
            request_budget_millis: None,
        },
    );
    (b, hold, started)
}

fn slow_bundle(engine: &Engine, delay: Duration) -> ModelBundle {
    let model = trained_model(engine);
    let mut b = bundle(engine, model);
    b.resilient = engine.resilient_over(
        Box::new(TestPrimary {
            scores: smooth_scores(engine.corpus().vocab().len()),
            delay,
            hold: None,
            started: Arc::new(AtomicUsize::new(0)),
        }),
        ServeOptions {
            request_budget_millis: None,
        },
    );
    b
}

/// A primary that panics on one history and answers every other one.
struct PanickingPrimary {
    on: Vec<usize>,
    scores: Vec<f64>,
}

impl TrainedModel for PanickingPrimary {
    fn kind(&self) -> ModelKind {
        ModelKind::Lda
    }
    fn label(&self) -> &str {
        "panicking-primary"
    }
    fn recommend(&self, history: &[usize]) -> Result<Vec<f64>, EngineError> {
        assert_ne!(history, &self.on[..], "injected primary panic");
        Ok(self.scores.clone())
    }
    fn perplexity(&self, _test: &[Vec<usize>]) -> Result<f64, EngineError> {
        Ok(1.0)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn a_panicking_batch_answers_500_and_the_worker_keeps_serving() {
    hlm_obs::install(hlm_obs::Recorder::enabled());
    let engine = engine();
    let config = ServerConfig {
        workers: 1,
        batch_max: 1,
        ..ServerConfig::default()
    };
    let mut b = bundle(&engine, trained_model(&engine));
    b.resilient = engine.resilient_over(
        Box::new(PanickingPrimary {
            on: vec![1, 2],
            scores: smooth_scores(engine.corpus().vocab().len()),
        }),
        ServeOptions {
            request_budget_millis: None,
        },
    );
    let handle = Server::bind(config, Arc::clone(&engine), b, None)
        .unwrap()
        .start()
        .unwrap();
    let addr = handle.addr();

    let (status, text) = get(addr, "/v1/recommend?history=1,2");
    assert_eq!(status, 500, "{text}");
    // The one worker survived its panic and answers the next request.
    let (status, text) = get(addr, "/v1/recommend?history=0");
    assert_eq!(status, 200, "{text}");
    assert!(body_of(&text).contains("\"degraded\":null"), "{text}");
    let panics = hlm_obs::global()
        .snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == hlm_obs::names::SERVE_WORKER_PANICS)
        .map_or(0, |&(_, n)| n);
    assert_eq!(panics, 1);
    handle.shutdown();
}

#[test]
fn a_panic_while_serving_ends_its_connection_and_the_handler_serves_on() {
    let engine = engine();
    // One worker taking one job, one queue slot: three handlers at most.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        batch_max: 1,
        ..ServerConfig::default()
    };
    let loader: hlm_serve::BundleLoader = Box::new(|| panic!("injected loader panic"));
    let b = bundle(&engine, trained_model(&engine));
    let handle = Server::bind(config, Arc::clone(&engine), b, Some(loader))
        .unwrap()
        .start()
        .unwrap();
    let addr = handle.addr();
    // More panics than there are handlers: each costs only its connection.
    for _ in 0..4 {
        let (status, text) = request(
            addr,
            "POST /admin/swap HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert_eq!(status, 0, "the panicking swap's connection closes: {text}");
    }
    assert_eq!(get(addr, "/healthz").0, 200);
    assert_no_hung_connections(&handle);
    handle.shutdown();
}

#[test]
fn overload_sheds_with_503_and_retry_after_instead_of_queueing() {
    let engine = engine();
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        batch_max: 1,
        default_deadline_millis: 30_000,
        ..ServerConfig::default()
    };
    let (b, hold, started) = gated_bundle(&engine);
    let server = Server::bind(config, Arc::clone(&engine), b, None).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    // r1 enters the (only) worker and blocks on the gate; once `started`
    // ticks the worker is provably busy.
    let r1 = std::thread::spawn(move || get(addr, "/v1/recommend?history=0"));
    wait_until("r1 to reach the primary", || {
        started.load(Ordering::SeqCst) >= 1
    });

    // r2 takes the only queue slot.
    let r2 = std::thread::spawn(move || get(addr, "/v1/recommend?history=1"));
    wait_until("r2 to be admitted", || handle.queue_len() == 1);

    // r3 must be shed: 503 + Retry-After, with no queueing.
    let (status, text) = get(addr, "/v1/recommend?history=2");
    assert_eq!(status, 503, "{text}");
    assert!(text.to_lowercase().contains("retry-after: 1"), "{text}");
    // /healthz bypasses admission even under overload.
    assert_eq!(get(addr, "/healthz").0, 200);

    // Release the gate: both admitted requests complete correctly.
    hold.store(false, Ordering::SeqCst);
    assert_eq!(r1.join().unwrap().0, 200);
    assert_eq!(r2.join().unwrap().0, 200);
    handle.shutdown();
}

#[test]
fn cached_answers_skip_the_full_queue_while_misses_and_recommends_are_shed() {
    let engine = engine();
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        batch_max: 1,
        default_deadline_millis: 30_000,
        ..ServerConfig::default()
    };
    let (b, hold, started) = gated_bundle(&engine);
    let server = Server::bind(config, Arc::clone(&engine), b, None).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    // The worker scores company 5's ranking while it is free; the cache
    // then holds it for both endpoints.
    let cached = ["/v1/similar?company=5&k=4", "/v1/whitespace?company=5&k=4"];
    let before: Vec<String> = cached
        .iter()
        .map(|target| {
            let (status, text) = get(addr, target);
            assert_eq!(status, 200, "{text}");
            body_of(&text).to_string()
        })
        .collect();

    // r1 holds the only worker and r2 the only queue slot, as in the
    // overload drill.
    let r1 = std::thread::spawn(move || get(addr, "/v1/recommend?history=0"));
    wait_until("r1 to reach the primary", || {
        started.load(Ordering::SeqCst) >= 1
    });
    let r2 = std::thread::spawn(move || get(addr, "/v1/recommend?history=1"));
    wait_until("r2 to be admitted", || handle.queue_len() == 1);

    // Cached answers come from the handler, unchanged, past the full queue.
    for (target, body) in cached.iter().zip(&before) {
        let (status, text) = get(addr, target);
        assert_eq!(status, 200, "{target}: {text}");
        assert_eq!(body_of(&text), body, "{target}");
    }
    // A miss and a recommend still need the queue, so they are shed.
    for target in ["/v1/similar?company=6&k=4", "/v1/recommend?history=2"] {
        let (status, text) = get(addr, target);
        assert_eq!(status, 503, "{target}: {text}");
        assert!(text.to_lowercase().contains("retry-after: 1"), "{text}");
    }

    hold.store(false, Ordering::SeqCst);
    assert_eq!(r1.join().unwrap().0, 200);
    assert_eq!(r2.join().unwrap().0, 200);
    handle.shutdown();
}

#[test]
fn queue_expired_requests_get_504_and_degraded_fallback_tags_the_response() {
    let engine = engine();
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 8,
        batch_max: 1,
        ..ServerConfig::default()
    };
    let b = slow_bundle(&engine, Duration::from_millis(400));
    let server = Server::bind(config, Arc::clone(&engine), b, None).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    // A zero budget is spent by the time the worker pops the job, whatever
    // the scheduler does: guaranteed queue-expiry, answered 504.
    let (status, text) = get(addr, "/v1/recommend?history=1&deadline_ms=0");
    assert_eq!(status, 504, "{text}");
    assert!(body_of(&text).contains("deadline exceeded"), "{text}");

    // A budget shorter than the primary's 400ms latency is answered by the
    // unigram fallback, tagged degraded — not an error.
    let (status, text) = get(addr, "/v1/recommend?history=0&deadline_ms=350");
    assert_eq!(status, 200, "{text}");
    assert!(body_of(&text).contains("\"degraded\":\"primary"), "{text}");
    handle.shutdown();
}

#[test]
fn hot_swap_installs_canaried_bundle_and_bumps_generation() {
    let engine = engine();
    let model = trained_model(&engine);
    let serving = bundle(&engine, model.clone());
    let loader_engine = Arc::clone(&engine);
    let loader: hlm_serve::BundleLoader = Box::new(move || {
        bundle_from_model(
            &loader_engine,
            model.clone(),
            42,
            DistanceMetric::Cosine,
            ServeOptions::default(),
        )
    });
    let server = Server::bind(
        ServerConfig::default(),
        Arc::clone(&engine),
        serving,
        Some(loader),
    )
    .unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();
    let before = handle.generation();

    // Asked twice before the swap, the key's answer is cached under the
    // serving generation and the handler answers the repeat.
    for _ in 0..2 {
        let (status, text) = get(addr, "/v1/similar?company=1&k=3");
        assert_eq!(status, 200, "{text}");
        assert!(
            body_of(&text).contains(&format!("\"generation\":{before}")),
            "{text}"
        );
    }

    let (status, text) = request(
        addr,
        "POST /admin/swap HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{text}");
    assert!(
        body_of(&text).contains("\"checkpoint_iteration\":42"),
        "{text}"
    );
    assert!(handle.generation() > before);

    // The new generation serves queries and stamps responses with it: the
    // pre-swap answer the cache held is never served.
    let (status, text) = get(addr, "/v1/similar?company=1&k=3");
    assert_eq!(status, 200);
    assert!(
        body_of(&text).contains(&format!("\"generation\":{}", handle.generation())),
        "{text}"
    );
    // The repeat is the handler's, from the new generation's cache.
    let (status, again) = get(addr, "/v1/similar?company=1&k=3");
    assert_eq!(status, 200, "{again}");
    assert_eq!(body_of(&again), body_of(&text));
    handle.shutdown();
}

#[test]
fn failed_canary_rolls_back_and_keeps_serving_old_generation() {
    let engine = engine();
    let model = trained_model(&engine);
    let serving = bundle(&engine, model.clone());
    let loader_engine = Arc::clone(&engine);
    let loader: hlm_serve::BundleLoader = Box::new(move || {
        // A candidate whose primary emits NaN scores: the resilient layer
        // degrades it to the fallback, and the canary must refuse to
        // install a bundle that cannot answer cleanly.
        let mut b = bundle_from_model(
            &loader_engine,
            model.clone(),
            7,
            DistanceMetric::Cosine,
            ServeOptions::default(),
        )?;
        b.resilient = loader_engine.resilient_over(
            Box::new(TestPrimary {
                scores: vec![f64::NAN; loader_engine.corpus().vocab().len()],
                delay: Duration::ZERO,
                hold: None,
                started: Arc::new(AtomicUsize::new(0)),
            }),
            ServeOptions::default(),
        );
        Ok(b)
    });
    let server = Server::bind(
        ServerConfig::default(),
        Arc::clone(&engine),
        serving,
        Some(loader),
    )
    .unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();
    let before = handle.generation();

    let (status, text) = request(
        addr,
        "POST /admin/swap HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 500, "{text}");
    assert!(body_of(&text).contains("\"rolled_back\":true"), "{text}");
    assert_eq!(
        handle.generation(),
        before,
        "old generation must keep serving"
    );

    let (status, text) = get(addr, "/v1/recommend?history=0");
    assert_eq!(status, 200);
    assert!(body_of(&text).contains("\"degraded\":null"), "{text}");
    handle.shutdown();
}

#[test]
fn swap_without_a_loader_is_409() {
    let engine = engine();
    let (handle, _model) = start_default(&engine);
    let (status, _) = request(
        handle.addr(),
        "POST /admin/swap HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 409);
    handle.shutdown();
}

#[test]
fn network_fault_suite_never_hangs_the_server() {
    let engine = engine();
    let config = ServerConfig {
        read_timeout_millis: 200,
        ..ServerConfig::default()
    };
    let model = trained_model(&engine);
    let b = bundle(&engine, model);
    let server = Server::bind(config, Arc::clone(&engine), b, None).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    // Drill 1 — partial write: the client "crashes" 10 bytes into its
    // request. The server must time the remnant out and move on.
    {
        let plan = NetFaultPlan::none().with(NetFault::PartialWrite {
            nth: 1,
            at_byte: 10,
        });
        let mut client = FaultyStream::new(TcpStream::connect(addr).unwrap(), plan);
        let err = client
            .write(b"GET /v1/similar?company=1&k=3 HTTP/1.1\r\n\r\n")
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // Hold the socket open like a crashed-but-unclosed peer briefly.
        std::thread::sleep(Duration::from_millis(50));
    }

    // Drill 2 — mid-request disconnect: half the headers, then gone.
    {
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"GET /v1/similar?company=1").unwrap();
        drop(client);
    }

    // Drill 3 — corrupt frame: one flipped bit turns `GET` into `gET`;
    // the server must answer 400, not guess.
    {
        let plan = NetFaultPlan::none().with(NetFault::CorruptByte {
            nth: 1,
            offset: 0,
            mask: 0x20,
        });
        let raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut client = FaultyStream::new(raw, plan);
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert_eq!(parse_status(&text), 400, "{text}");
    }

    // Drill 4 — slow loris: one byte per write, paced slower than the
    // server's read timeout. The server must disconnect the client rather
    // than let it pin a thread.
    {
        let plan = NetFaultPlan::none().with(NetFault::Chunked { max_bytes: 1 });
        let raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut client = FaultyStream::new(raw, plan);
        let doom = b"GET /healthz HTTP/1.1\r\n";
        let mut cut_off = false;
        for chunk in doom.chunks(1).take(6) {
            if client.write_all(chunk).is_err() {
                cut_off = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(80));
        }
        if !cut_off {
            // The server answered 408 (or closed): either way the read
            // side sees the story end.
            let mut text = String::new();
            let _ = client.read_to_string(&mut text);
            assert!(
                text.is_empty() || parse_status(&text) == 408,
                "slow client should see 408 or a closed socket, got {text:?}"
            );
        }
    }

    // The proof: no connection thread survived the drills, and the server
    // still answers cleanly.
    assert_no_hung_connections(&handle);
    assert_eq!(get(addr, "/healthz").0, 200);
    let (status, text) = get(addr, "/v1/similar?company=1&k=3");
    assert_eq!(status, 200, "{text}");
    assert_eq!(handle.queue_len(), 0, "no poisoned jobs left behind");
    handle.shutdown();
}

#[test]
fn a_connection_flood_waits_in_the_backlog_and_never_hangs_a_query() {
    let engine = engine();
    let config = four_handlers();
    let read_timeout = Duration::from_millis(config.read_timeout_millis);
    let handlers = config.handler_limit();
    let idle_conns: usize = 12;
    let handle = start_with(&engine, config);
    let addr = handle.addr();

    // Idle connections hold a handler each until the read timeout answers
    // them 408, so the query behind them waits at most one timeout per
    // round of `handlers` connections, plus its own round.
    let rounds = idle_conns.div_ceil(handlers) as u32;
    let bound = read_timeout * (rounds + 1) + Duration::from_secs(2);
    let watching = AtomicBool::new(true);
    let (peak, (status, text), waited) = std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            let mut peak = 0;
            while watching.load(Ordering::SeqCst) {
                peak = peak.max(handle.active_connections());
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        let idle: Vec<TcpStream> = (0..idle_conns)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let sent = Instant::now();
        let answer = get(addr, "/v1/similar?company=3&k=5");
        let waited = sent.elapsed();
        watching.store(false, Ordering::SeqCst);
        drop(idle);
        (monitor.join().unwrap(), answer, waited)
    });
    assert!(
        peak <= handlers,
        "{peak} connections served at once; the handler limit is {handlers}"
    );
    assert!(matches!(status, 200 | 503), "{text}");
    assert!(
        waited < bound,
        "the query behind the flood waited {waited:?}, over {bound:?}"
    );

    assert_eq!(get(addr, "/healthz").0, 200);
    assert_no_hung_connections(&handle);
    handle.shutdown();
}

/// The connection-limit drills' server: one worker taking one job, two
/// queue slots and a 300 ms read budget, so four handlers.
fn four_handlers() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: 2,
        batch_max: 1,
        read_timeout_millis: 300,
        ..ServerConfig::default()
    }
}

fn start_with(engine: &Arc<Engine>, config: ServerConfig) -> ServerHandle {
    let b = bundle(engine, trained_model(engine));
    Server::bind(config, Arc::clone(engine), b, None)
        .unwrap()
        .start()
        .unwrap()
}

/// Reads one response off a keep-alive connection: its status, and
/// whether the server closes the connection after it. `None` once the
/// stream ends or fails.
fn read_response(r: &mut impl BufRead) -> Option<(u16, bool)> {
    let mut line = String::new();
    r.read_line(&mut line).ok().filter(|&n| n > 0)?;
    let status = parse_status(&line);
    let (mut length, mut close) = (0, false);
    loop {
        line.clear();
        r.read_line(&mut line).ok().filter(|&n| n > 0)?;
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length:") {
            length = value.trim().parse().ok()?;
        }
        close |= header == "connection: close";
    }
    let mut body = vec![0; length];
    r.read_exact(&mut body).ok()?;
    Some((status, close))
}

/// One busy client of the connection-limit drills: it sends to `addr`
/// every `pace` while [`going`](Busy::going).
struct Busy<'a> {
    addr: SocketAddr,
    pace: Duration,
    until: Instant,
    probed: &'a AtomicBool,
    started: &'a AtomicUsize,
}

impl Busy<'_> {
    /// Until the probe is answered, or for 20 read budgets at most.
    fn going(&self) -> bool {
        Instant::now() < self.until && !self.probed.load(Ordering::SeqCst)
    }

    /// Called once, when the client is under way.
    fn under_way(&self) {
        self.started.fetch_add(1, Ordering::SeqCst);
    }
}

/// Once `handler_limit` clients keep sending, a `/healthz` on a new
/// connection must still be answered within one read budget plus a
/// second: a request gets one budget however its bytes are spread, and a
/// keep-alive connection lets its handler go after a response while every
/// handler is busy. The clients send for up to 20 read budgets, so without
/// either rule the probe would wait that long.
fn assert_busy_clients_let_a_probe_through(client: fn(&Busy)) {
    let engine = engine();
    let config = four_handlers();
    let read_timeout = Duration::from_millis(config.read_timeout_millis);
    let limit = config.handler_limit();
    let handle = start_with(&engine, config);
    let bound = read_timeout + Duration::from_secs(1);
    let (probed, started) = (AtomicBool::new(false), AtomicUsize::new(0));
    let busy = Busy {
        addr: handle.addr(),
        pace: read_timeout / 2,
        until: Instant::now() + read_timeout * 20,
        probed: &probed,
        started: &started,
    };
    let (status, waited) = std::thread::scope(|s| {
        for _ in 0..limit {
            s.spawn(|| client(&busy));
        }
        wait_until("every busy client under way", || {
            started.load(Ordering::SeqCst) == limit
        });
        let sent = Instant::now();
        let (status, _) = get(busy.addr, "/healthz");
        let waited = sent.elapsed();
        probed.store(true, Ordering::SeqCst);
        (status, waited)
    });
    assert_eq!(status, 200);
    assert!(
        waited < bound,
        "/healthz behind {limit} busy clients waited {waited:?}, over {bound:?}"
    );
    assert_no_hung_connections(&handle);
    handle.shutdown();
}

#[test]
fn a_trickling_request_holds_its_handler_for_one_read_budget() {
    // One byte of a never-ending header line every `pace`, so no single
    // read waits a whole read timeout, until the server cuts it off.
    assert_busy_clients_let_a_probe_through(|busy| {
        let mut stream = TcpStream::connect(busy.addr).unwrap();
        let request = b"GET /healthz HTTP/1.1\r\nx-trickle: ".iter();
        for (sent, byte) in request.chain(std::iter::repeat(&b'a')).enumerate() {
            if !busy.going() || stream.write_all(&[*byte]).is_err() {
                return;
            }
            if sent == 0 {
                busy.under_way();
            }
            std::thread::sleep(busy.pace);
        }
    });
}

#[test]
fn keep_alive_connections_let_their_handlers_go_when_every_handler_is_busy() {
    // A whole request every `pace` on a keep-alive connection, opening a
    // new one whenever the server closes it.
    assert_busy_clients_let_a_probe_through(|busy| {
        let mut first = true;
        while busy.going() {
            let stream = TcpStream::connect(busy.addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut reader = BufReader::new(&stream);
            while busy.going() {
                if (&stream)
                    .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                    .is_err()
                {
                    break;
                }
                let answer = read_response(&mut reader);
                if std::mem::take(&mut first) {
                    busy.under_way();
                }
                std::thread::sleep(busy.pace);
                if answer != Some((200, false)) {
                    break;
                }
            }
        }
    });
}

#[test]
fn graceful_drain_answers_admitted_work_then_stops() {
    let engine = engine();
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 8,
        batch_max: 1,
        default_deadline_millis: 30_000,
        ..ServerConfig::default()
    };
    let (b, hold, started) = gated_bundle(&engine);
    let server = Server::bind(config, Arc::clone(&engine), b, None).unwrap();
    let handle = server.start().unwrap();
    let addr = handle.addr();

    // Admit one request and wait until the worker is provably processing
    // it, then shut down while it is in flight: drain must flush it.
    let inflight = std::thread::spawn(move || get(addr, "/v1/recommend?history=0"));
    wait_until("the request to reach the primary", || {
        started.load(Ordering::SeqCst) >= 1
    });
    let drainer = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(100));
    hold.store(false, Ordering::SeqCst);
    drainer.join().unwrap();

    let (status, text) = inflight.join().unwrap();
    assert_eq!(status, 200, "drain must flush admitted work: {text}");

    // And the listener is gone.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener should be closed after drain"
    );
}

/// Run `f` on its own thread; the receiver hears when it has returned.
fn spawn_watched(f: impl FnOnce() + Send + 'static) -> (JoinHandle<()>, mpsc::Receiver<()>) {
    let (done, returned) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    (thread, returned)
}

/// Fail, instead of hanging, unless the watched call returns within 2 s.
fn assert_returns_within_2s(what: &str, (thread, returned): (JoinHandle<()>, mpsc::Receiver<()>)) {
    if returned.recv_timeout(Duration::from_secs(2)).is_err() {
        panic!("{what} did not return within 2 s: stop never woke the idle accept loop");
    }
    thread.join().unwrap();
}

#[test]
fn stop_flag_wakes_an_idle_accept_loop() {
    let engine = engine();
    let b = bundle(&engine, trained_model(&engine));
    let server = Server::bind(ServerConfig::default(), Arc::clone(&engine), b, None).unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let running = {
        let stop = Arc::clone(&stop);
        spawn_watched(move || server.run(stop).unwrap())
    };

    // One answered request shows the loop is up; it then blocks in
    // `accept` with no client left. Flip the flag the way `hlm serve`'s
    // SIGTERM handler does: a bare store, nothing else.
    assert_eq!(get(addr, "/healthz").0, 200);
    stop.store(true, Ordering::SeqCst);
    assert_returns_within_2s("Server::run after its stop flag flipped", running);
}

#[test]
fn shutdown_of_an_idle_server_returns_promptly() {
    let engine = engine();
    let (handle, _model) = start_default(&engine);
    assert_eq!(get(handle.addr(), "/healthz").0, 200);
    assert_returns_within_2s(
        "ServerHandle::shutdown",
        spawn_watched(move || handle.shutdown()),
    );
}

/// An `lda-gibbs` payload in the all-JSON format used before the resident
/// payload (spill record plus JSON global state) replaced it.
const OLD_GIBBS_PAYLOAD: &str = r#"{"iters_done":3,"alpha":0.5,"tok_z":[0,0,1],"n_dk":{"rows":2,"cols":2,"data":[2.0,0.0,0.0,1.0]},"n_kw":{"rows":2,"cols":3,"data":[1.0,1.0,0.0,0.0,0.0,1.0]},"n_k":[2.0,1.0],"phi_acc":{"rows":2,"cols":3,"data":[1.3244147157190636,0.5551839464882944,0.12040133779264214,0.12040133779264214,0.5551839464882944,1.3244147157190636]},"n_samples":2,"rng":[17313963233546218207,6372522376728454613,16526457247692414922,13221988417299793669]}"#;

#[test]
fn warm_start_from_an_old_format_checkpoint_reports_the_format_change() {
    let engine = engine();
    let config = LdaConfig {
        n_topics: 3,
        vocab_size: engine.corpus().vocab().len(),
        ..Default::default()
    };
    let store = CheckpointStore::new(Box::new(MemIo::new()));
    let old = Checkpoint::new(
        GIBBS_CHECKPOINT_KIND,
        3,
        OLD_GIBBS_PAYLOAD.as_bytes().to_vec(),
    );
    store.save(&old).unwrap();
    let err = bundle_from_checkpoint(
        &engine,
        &config,
        &store,
        DistanceMetric::Cosine,
        ServeOptions::default(),
    )
    .err()
    .expect("an old-format checkpoint must not warm-start");
    assert!(
        err.contains("checkpoint does not match this trainer"),
        "{err}"
    );
    assert!(err.contains("old all-JSON format"), "{err}");
}
