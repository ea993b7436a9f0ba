//! End-to-end drills for `hlm-serve`: wire behaviour, shedding, deadlines,
//! hot swap, rollback, graceful drain, and — the headline — the network
//! fault-injection suite, which drives a live server through
//! [`FaultyStream`] and proves every injected fault ends in a clean
//! response or a closed socket, never a hung thread.
//!
//! Overload and drain drills avoid sleep-based timing: they gate the
//! worker on an [`AtomicBool`] the test controls, so "the worker is busy"
//! is an observed fact, not a race.

use std::io::{Read, Write};
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

/// Poll until no connection threads remain — the hung-thread check.
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
    handle.shutdown();
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

    // The new generation serves queries and stamps responses with it.
    let (status, text) = get(addr, "/v1/similar?company=1&k=3");
    assert_eq!(status, 200);
    assert!(
        body_of(&text).contains(&format!("\"generation\":{}", handle.generation())),
        "{text}"
    );
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
