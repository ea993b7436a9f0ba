//! `hlm-serve` — a fault-tolerant batched recommendation server.
//!
//! The paper's sales application is interactive: reps look up similar
//! companies and whitespace products live. This crate turns the
//! [`Engine`] facade into a long-running HTTP/1.1 process whose headline
//! feature is robustness, not routing:
//!
//! - **Admission control** — every query must win a slot in a bounded
//!   [`queue::AdmissionQueue`] before any model work happens; when it is
//!   full the request is shed with `503` + `Retry-After` instead of
//!   queueing unboundedly, so accepted-request latency stays bounded
//!   under overload.
//! - **Deadlines** — each request carries a budget (`deadline_ms` query
//!   parameter, defaulting to [`ServerConfig::default_deadline_millis`]).
//!   Jobs that expire in the queue are answered `504` without touching the
//!   model; recommendation budgets propagate into
//!   [`ResilientModel::recommend_within`], so the degraded unigram
//!   fallback and its `degraded` tag flow all the way to the wire.
//! - **Micro-batching** — workers drain the queue in batches and fan
//!   same-shaped queries into the allocation-free
//!   `find_similar_batch`/`recommend_whitespace_batch` kernels.
//! - **Hot swap** — `POST /admin/swap` loads a candidate model (typically
//!   from [`CheckpointStore::latest_good`]), canary-probes it, and either
//!   installs it atomically (generation-stamped, serving cache
//!   invalidated) or rolls back, counting `serve.rollback`.
//! - **Bounded handlers** — handler threads block in `accept` on the
//!   shared listener and each serves the connection it takes until that
//!   connection ends; no thread is spawned per connection. The set starts
//!   at one and grows only when a handler takes a connection while no
//!   other waits in `accept`, up to `workers × batch_max +
//!   queue_capacity + 1` ([`ServerConfig::handler_limit`]).
//!   Connections beyond that wait in the kernel's accept backlog, so a
//!   flood of idle connections cannot grow the thread count. The wait is
//!   bounded: a request gets one read budget however slowly its bytes
//!   come, and while every handler is busy a keep-alive connection is
//!   closed after its response, so waiting connections take turns.
//! - **Graceful drain** — on shutdown (SIGTERM via
//!   [`install_term_handler`], or [`ServerHandle::shutdown`]) the server
//!   wakes every handler out of `accept`, flushes the queue so every
//!   admitted request is answered, and waits for connections to finish.
//!
//! Protocol defence (timeouts, size limits, malformed-input handling)
//! lives in [`http`]; the fault drills in `tests/` drive a real server
//! through [`hlm_resilience::netfault::FaultyStream`] to prove each
//! injected network fault ends in a clean response or a closed socket —
//! never a hung thread or a poisoned queue.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;
pub mod queue;
pub mod replay;

pub use replay::{
    replay, FitAbort, ReplayAction, ReplayConfig, ReplayOutcome, ReplayRow, RetrainPolicy,
};

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hlm_core::app::SimilarCompany;
use hlm_core::{CompanyFilter, DistanceMetric, SalesApplication, WhitespaceRecommendation};
use hlm_corpus::CompanyId;
use hlm_engine::{lda_trained, Engine, ResilientModel, ServeOptions, Served};
use hlm_lda::{GibbsTrainer, LdaConfig, LdaModel, GIBBS_CHECKPOINT_KIND};
use hlm_obs::json::{esc, Num};
use hlm_obs::names;
use hlm_resilience::CheckpointStore;

use http::{HttpError, Request, Response};
use queue::{AdmissionQueue, AdmitError};

/// Knobs for one server instance. Defaults favour small test deployments;
/// production tunes `workers`/`queue_capacity` to the machine.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Model-worker threads draining the admission queue.
    pub workers: usize,
    /// Admission queue capacity; beyond this, requests are shed.
    pub queue_capacity: usize,
    /// Most jobs a worker pulls per batch.
    pub batch_max: usize,
    /// Deadline applied when a request does not carry `deadline_ms`.
    pub default_deadline_millis: u64,
    /// How long one request may take to arrive, however its bytes are
    /// spread: a client that has not sent a whole request this long after
    /// the server starts reading for it is answered `408` and
    /// disconnected.
    pub read_timeout_millis: u64,
    /// How long one response may take to leave.
    pub write_timeout_millis: u64,
    /// Requests served per connection before it is recycled.
    pub max_requests_per_conn: usize,
    /// How long shutdown waits for in-flight connections to finish.
    pub drain_grace_millis: u64,
}

impl ServerConfig {
    /// Most connections served at once, one handler thread each: one per
    /// job the batch workers can hold at once (`workers × batch_max`), one
    /// per admission-queue slot, and one to answer the request that is
    /// shed. A request the server would admit or shed therefore always
    /// finds a handler, so overload still ends in `503`s rather than in the
    /// backlog. A connection beyond them waits in the listener's backlog
    /// until a handler is free.
    pub fn handler_limit(&self) -> usize {
        self.workers
            .max(1)
            .saturating_mul(self.batch_max.max(1))
            .saturating_add(self.queue_capacity.max(1))
            .saturating_add(1)
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 256,
            batch_max: 16,
            default_deadline_millis: 250,
            read_timeout_millis: 2_000,
            write_timeout_millis: 2_000,
            max_requests_per_conn: 1_024,
            drain_grace_millis: 5_000,
        }
    }
}

/// Requests are clamped to this deadline no matter what the client asks.
const MAX_DEADLINE_MILLIS: u64 = 60_000;
/// Extra slack a connection waits for its worker beyond the job deadline.
const WORKER_GRACE: Duration = Duration::from_secs(5);

/// Everything one model generation needs to serve: the similarity /
/// whitespace application and the deadline-aware resilient recommender,
/// stamped with the serving-cache generation that built it.
pub struct ModelBundle {
    /// Similar-company and whitespace queries (batched kernels inside).
    pub app: SalesApplication,
    /// Next-product recommendation with degraded unigram fallback.
    pub resilient: ResilientModel,
    /// Serving-cache generation captured when this bundle was built.
    pub generation: u64,
    /// Iteration of the checkpoint this bundle came from (0 = in-memory).
    pub checkpoint_iteration: u64,
    /// Primary model label, e.g. `LDA20`.
    pub label: String,
}

/// Produces a candidate [`ModelBundle`] for hot swap (`POST /admin/swap`).
pub type BundleLoader = Box<dyn Fn() -> Result<ModelBundle, String> + Send + Sync>;

/// Build a bundle from an in-memory LDA model. Invalidates the engine's
/// serving cache first so the bundle's captured generation is fresh and no
/// ranking memoized under the previous model can leak through.
///
/// Records one root span per phase: `core.representations`,
/// `core.store_build` and `engine.fallback_fit`. A bundle is built once at
/// start and once per swap, so the recorder's span list stays bounded.
pub fn bundle_from_model(
    engine: &Engine,
    model: LdaModel,
    checkpoint_iteration: u64,
    metric: DistanceMetric,
    opts: ServeOptions,
) -> Result<ModelBundle, String> {
    let rec = hlm_obs::global();
    let ids: Vec<CompanyId> = engine.corpus().ids().collect();
    let docs = hlm_core::representations::binary_docs(engine.corpus(), &ids);
    let reprs = {
        let _span = rec.span("core.representations");
        hlm_core::representations::lda_representations(&model, &docs)
    };
    engine.serving_cache().invalidate();
    let app = {
        let _span = rec.span("core.store_build");
        engine.sales_app(reprs, metric)
    }
    .map_err(|e| format!("sales app: {e}"))?;
    let resilient = {
        let _span = rec.span("engine.fallback_fit");
        engine.resilient_over(lda_trained(model), opts)
    };
    let label = resilient.primary().label().to_string();
    Ok(ModelBundle {
        app,
        resilient,
        generation: engine.serving_cache().generation(),
        checkpoint_iteration,
        label,
    })
}

/// Build a bundle by warming from the latest good checkpoint in `store` —
/// the restart path: a server rebuilt this way answers bit-identically to
/// one that never went down, because the final Gibbs checkpoint holds the
/// exact accumulator state the uninterrupted fit would have normalized.
pub fn bundle_from_checkpoint(
    engine: &Engine,
    config: &LdaConfig,
    store: &CheckpointStore,
    metric: DistanceMetric,
    opts: ServeOptions,
) -> Result<ModelBundle, String> {
    let good = store
        .latest_good(GIBBS_CHECKPOINT_KIND)
        .map_err(|e| format!("checkpoint store: {e}"))?
        .ok_or_else(|| "no good checkpoint to warm from".to_string())?;
    let model = GibbsTrainer::new(config.clone())
        .model_from_checkpoint(&good)
        .map_err(|e| format!("checkpoint {}: {e}", good.iteration))?;
    bundle_from_model(engine, model, good.iteration, metric, opts)
}

/// The gate a candidate bundle must pass before it replaces the serving
/// one: a similarity probe with finite distances and a recommendation
/// probe that the primary answers cleanly (not via fallback) with finite
/// scores. Cheap by design — it runs with live traffic waiting.
fn canary_probe(bundle: &ModelBundle) -> Result<(), String> {
    let sims = bundle
        .app
        .find_similar(CompanyId(0), 3, &CompanyFilter::default())
        .map_err(|e| format!("similarity probe: {e}"))?;
    if sims.iter().any(|s| !s.distance.is_finite()) {
        return Err("similarity probe returned a non-finite distance".into());
    }
    let served = bundle.resilient.recommend_within(&[0], Some(10_000));
    if let Some(why) = &served.degraded {
        return Err(format!("recommendation probe degraded: {why}"));
    }
    if served.value.iter().any(|v| !v.is_finite()) {
        return Err("recommendation probe returned a non-finite score".into());
    }
    Ok(())
}

/// One admitted query, parked in the admission queue.
enum Query {
    Similar { company: u32, k: usize },
    Whitespace { company: u32, k: usize },
    Recommend { history: Vec<usize>, top: usize },
}

struct Job {
    query: Query,
    deadline: Instant,
    enqueued: Instant,
    resp: mpsc::Sender<Response>,
}

struct Shared {
    config: ServerConfig,
    engine: Arc<Engine>,
    bundle: RwLock<Arc<ModelBundle>>,
    loader: Option<BundleLoader>,
    queue: AdmissionQueue<Job>,
    draining: AtomicBool,
    /// Connections a handler is serving.
    conns: AtomicUsize,
    /// Handler threads started, at most [`ServerConfig::handler_limit`].
    handlers: AtomicUsize,
    /// Handlers waiting in `accept`: the ones a stop has to wake.
    accepting: AtomicUsize,
    /// Serializes `/admin/swap` so two concurrent swaps cannot interleave
    /// canary and install.
    swap_lock: Mutex<()>,
}

fn read_bundle(shared: &Shared) -> Arc<ModelBundle> {
    Arc::clone(&shared.bundle.read().unwrap_or_else(|e| e.into_inner()))
}

impl Shared {
    /// Every handler the limit allows is serving a connection and none
    /// waits in `accept`, so a new connection waits in the backlog until a
    /// handler lets its connection go.
    fn handlers_all_busy(&self) -> bool {
        self.accepting.load(Ordering::SeqCst) == 0
            && self.handlers.load(Ordering::SeqCst) >= self.config.handler_limit()
    }
}

/// A bound, not-yet-running server. [`run`](Server::run) blocks (CLI use);
/// [`start`](Server::start) returns a handle that stops it (test and
/// embedded use).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A started server: its batch workers, and the listener its handlers
/// accept on. Handlers hold the listener weakly, so it closes when
/// [`Running::drain`] returns.
struct Running {
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    wake_addr: SocketAddr,
}

impl Server {
    /// Bind the configured address and prepare the serving state. The
    /// server accepts nothing until `run`/`start`.
    pub fn bind(
        config: ServerConfig,
        engine: Arc<Engine>,
        bundle: ModelBundle,
        loader: Option<BundleLoader>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = AdmissionQueue::new(config.queue_capacity.max(1));
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                config,
                engine,
                bundle: RwLock::new(Arc::new(bundle)),
                loader,
                queue,
                draining: AtomicBool::new(false),
                conns: AtomicUsize::new(0),
                handlers: AtomicUsize::new(0),
                accepting: AtomicUsize::new(0),
                swap_lock: Mutex::new(()),
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the batch workers and the first handler. If one cannot start,
    /// the workers already running are stopped and joined.
    fn launch(self, stop: Arc<AtomicBool>) -> std::io::Result<Running> {
        let Server {
            listener,
            addr,
            shared,
        } = self;
        let mut workers = Vec::new();
        let abandon = |workers: Vec<JoinHandle<()>>, e| {
            shared.queue.close();
            for w in workers {
                let _ = w.join();
            }
            e
        };
        for i in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("hlm-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared));
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(e) => return Err(abandon(workers, e)),
            }
        }
        let listener = Arc::new(listener);
        let first = Handler {
            shared: Arc::clone(&shared),
            listener: Arc::downgrade(&listener),
            stop: Arc::clone(&stop),
        };
        if let Err(e) = first.spawn_another() {
            return Err(abandon(workers, e));
        }
        Ok(Running {
            shared,
            listener,
            stop,
            workers,
            wake_addr: wake_address(addr),
        })
    }

    /// Serve until `stop` turns true, then drain: stop accepting, flush
    /// the admission queue so every accepted request is answered, wait for
    /// in-flight connections (bounded by `drain_grace_millis`), and zero
    /// the queue-depth gauge.
    ///
    /// Connections are served by handler threads that block in `accept`,
    /// so a connection is taken as soon as it arrives. The calling thread
    /// reads `stop` every 20 ms, whoever flips it (the handler of
    /// [`install_term_handler`], say), and then wakes every handler.
    ///
    /// # Errors
    /// A batch worker or the first handler thread could not be spawned;
    /// the server then accepts nothing.
    pub fn run(self, stop: Arc<AtomicBool>) -> std::io::Result<()> {
        self.launch(stop)?.drain();
        Ok(())
    }

    /// Serve on background threads; the returned handle stops the server
    /// and drains it on [`ServerHandle::shutdown`] or drop.
    ///
    /// # Errors
    /// A batch worker or the first handler thread could not be spawned.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        let addr = self.addr;
        let running = self.launch(Arc::new(AtomicBool::new(false)))?;
        Ok(ServerHandle {
            addr,
            shared: Arc::clone(&running.shared),
            running: Some(running),
        })
    }
}

impl Running {
    /// Wait for `stop`, wake every handler out of `accept`, then drain:
    /// refuse new work, flush what was admitted, and let connections
    /// finish writing.
    fn drain(self) {
        let shared = &self.shared;
        wake_on_stop(&self.stop, self.wake_addr, &shared.accepting);
        shared.draining.store(true, Ordering::SeqCst);
        shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        let grace = Duration::from_millis(shared.config.drain_grace_millis);
        let gone = Instant::now() + grace;
        while shared.conns.load(Ordering::SeqCst) > 0 && Instant::now() < gone {
            std::thread::sleep(Duration::from_millis(10));
        }
        hlm_obs::global().set_gauge(names::SERVE_QUEUE_DEPTH, 0.0);
        // No handler holds the listener any more: this closes it.
        drop(self.listener);
    }
}

/// What a handler thread runs on: the serving state, the listener (weakly
/// held, see [`Running`]) and the stop flag.
#[derive(Clone)]
struct Handler {
    shared: Arc<Shared>,
    listener: Weak<TcpListener>,
    stop: Arc<AtomicBool>,
}

impl Handler {
    /// Start one more handler thread, unless
    /// [`ServerConfig::handler_limit`] have been started. The thread is
    /// detached: a drain waits for connections, up to its grace period, not
    /// for handlers.
    fn spawn_another(&self) -> std::io::Result<()> {
        let limit = self.shared.config.handler_limit();
        let counted = self
            .shared
            .handlers
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < limit).then_some(n + 1)
            });
        if counted.is_err() {
            return Ok(());
        }
        let handler = self.clone();
        let spawned = std::thread::Builder::new()
            .name("hlm-serve-handler".into())
            .spawn(move || handler.serve());
        if let Err(e) = spawned {
            self.shared.handlers.fetch_sub(1, Ordering::SeqCst);
            return Err(e);
        }
        Ok(())
    }

    /// Take connections from the listener and serve each until it ends,
    /// until the server stops. A handler counts itself in `accepting`
    /// before it reads `stop`, so a stop either is seen here or finds this
    /// handler counted and wakes it.
    fn serve(&self) {
        let shared = &self.shared;
        loop {
            shared.accepting.fetch_add(1, Ordering::SeqCst);
            let listener = if self.stop.load(Ordering::SeqCst) {
                None
            } else {
                self.listener.upgrade()
            };
            let Some(listener) = listener else {
                shared.accepting.fetch_sub(1, Ordering::SeqCst);
                return;
            };
            let accepted = listener.accept();
            drop(listener);
            let others_waiting = shared.accepting.fetch_sub(1, Ordering::SeqCst) > 1;
            match accepted {
                Ok((stream, _peer)) => {
                    // Keep a handler in `accept` while this one serves. A
                    // failed spawn leaves the next connection in the
                    // backlog until a handler is free.
                    if !others_waiting {
                        let _ = self.spawn_another();
                    }
                    // A panic while serving ends only this connection:
                    // the handler serves on, so panics cannot use up the
                    // handler limit.
                    shared.conns.fetch_add(1, Ordering::SeqCst);
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_conn(shared, stream)
                    }));
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                }
                // A signal, or a peer that reset before it was taken: the
                // next connection may already be waiting.
                Err(e)
                    if e.kind() == std::io::ErrorKind::Interrupted
                        || e.kind() == std::io::ErrorKind::ConnectionAborted => {}
                // Out of file descriptors or buffers: back off rather than
                // spin a core until some are released.
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
    }
}

/// Pause after an accept error that retrying at once would repeat.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// How often a running server reads its stop flag, and how long one round
/// of wake connects waits for the handlers to leave `accept`. Off the
/// request path: it only bounds how long a stop waits before the drain.
const WAKE_POLL: Duration = Duration::from_millis(20);
/// Cap on one wake connect, so a full accept backlog cannot hang it.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Where the stop watcher connects: the listener's own address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_address(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        addr.set_ip(loopback);
    }
    addr
}

/// Wait until `stop` turns true, then wake every handler blocked in
/// `accept`. A signal handler can only store the flag, and SIGTERM does not
/// interrupt `accept` (`signal(2)` installs the handler with `SA_RESTART`),
/// so the flag is read every [`WAKE_POLL`]. Then one connect per handler
/// counted in `accepting` makes its `accept` return, and the handler sees
/// the flag. A round that leaves a handler waiting (a connect failed, or a
/// client's connection was taken instead) is followed by another, until no
/// handler is left in `accept`.
fn wake_on_stop(stop: &AtomicBool, addr: SocketAddr, accepting: &AtomicUsize) {
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(WAKE_POLL);
    }
    loop {
        let waiting = accepting.load(Ordering::SeqCst);
        if waiting == 0 {
            return;
        }
        for _ in 0..waiting {
            let _ = TcpStream::connect_timeout(&addr, WAKE_CONNECT_TIMEOUT);
        }
        let round = Instant::now() + WAKE_POLL;
        while accepting.load(Ordering::SeqCst) > 0 && Instant::now() < round {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Handle to a running server (see [`Server::start`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    running: Option<Running>,
}

impl ServerHandle {
    /// Where the server is listening.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Generation of the bundle currently serving.
    pub fn generation(&self) -> u64 {
        read_bundle(&self.shared).generation
    }

    /// Connections being served right now. Each is served by one handler
    /// thread, so this never exceeds [`ServerConfig::handler_limit`]; the
    /// hung-connection check in the fault drills asserts it returns to
    /// zero.
    pub fn active_connections(&self) -> usize {
        self.shared.conns.load(Ordering::SeqCst)
    }

    /// Jobs currently admitted but not yet answered.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Stop accepting, drain, and return once drained.
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        if let Some(running) = self.running.take() {
            running.stop.store(true, Ordering::SeqCst);
            running.drain();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_drain();
    }
}

// ---------------------------------------------------------------------------
// Connection path
// ---------------------------------------------------------------------------

/// One direction of a connection, under one deadline for a whole request
/// (or response). Before each read or write the socket's timeout is set to
/// the time left, so a peer that trickles a byte just inside each timeout
/// still runs out of time, and a handler is held for at most one budget
/// per request.
struct Timed<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Timed<'_> {
    /// Start a new budget: the next reads or writes share `budget` from now.
    fn restart(&mut self, budget: Duration) -> &mut Self {
        self.deadline = Instant::now() + budget;
        self
    }

    /// The time left, or `TimedOut` once the deadline has passed.
    fn left(&self) -> std::io::Result<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Timed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

impl Write for Timed<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        let mut stream = self.stream;
        stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    let cfg = &shared.config;
    let read_budget = Duration::from_millis(cfg.read_timeout_millis.max(1));
    let write_budget = Duration::from_millis(cfg.write_timeout_millis.max(1));
    let _ = stream.set_nodelay(true);
    // `&TcpStream` reads and writes, so one descriptor serves both halves.
    let now = Instant::now();
    let mut reader = BufReader::new(Timed {
        stream: &stream,
        deadline: now,
    });
    let mut writer = Timed {
        stream: &stream,
        deadline: now,
    };

    for served in 0..cfg.max_requests_per_conn {
        reader.get_mut().restart(read_budget);
        let (resp, close) = match http::read_request(&mut reader) {
            Ok(req) => {
                let resp = route(shared, &req);
                // With every handler busy, a keep-alive connection lets its
                // handler go after this response, so connections waiting in
                // the backlog take turns with it.
                let close = req.wants_close()
                    || served + 1 == cfg.max_requests_per_conn
                    || shared.handlers_all_busy();
                (resp, close)
            }
            // Clean end of a keep-alive conversation, or a transport error
            // the peer will never see a response to: just close.
            Err(HttpError::Eof) | Err(HttpError::Io(_)) => break,
            // The request did not arrive within the read budget (a slow
            // loris, or an idle keep-alive connection): tell the client
            // (the write may itself fail — fine) and disconnect.
            Err(HttpError::Timeout) => (Response::json(408, err_body("request timed out")), true),
            Err(HttpError::Malformed(why)) => (Response::json(400, err_body(&why)), true),
            Err(HttpError::TooLarge(what)) => {
                let status = if what == "body" { 413 } else { 431 };
                let body = err_body(&format!("{what} too large"));
                (Response::json(status, body), true)
            }
        };
        if resp.write_to(writer.restart(write_budget), close).is_err() || close {
            break;
        }
    }
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":{}}}", jstr(msg))
}

/// A quoted JSON string literal (esc() only escapes; it does not quote).
fn jstr(s: &str) -> String {
    format!("\"{}\"", esc(s))
}

fn route(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if shared.draining.load(Ordering::SeqCst) {
                Response::text(503, "draining\n")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body: hlm_obs::global().snapshot().to_prometheus().into_bytes(),
        },
        ("GET", "/v1/similar") | ("GET", "/v1/whitespace") | ("GET", "/v1/recommend") => {
            admit_and_wait(shared, req)
        }
        ("POST", "/admin/swap") => do_swap(shared),
        ("GET", _) | ("POST", _) => Response::json(404, err_body("no such endpoint")),
        // Anything else — including a corrupt-frame method like `gET` — is
        // answered, not dropped, so the client learns its frame was bad.
        _ => Response::json(400, err_body("unrecognized method")),
    }
}

/// Parse, validate, admit, and wait for the worker's answer. Every exit is
/// an explicit response — validation failures never consume a queue slot.
fn admit_and_wait(shared: &Shared, req: &Request) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::json(503, err_body("draining"));
    }
    let query = match parse_query_request(shared, req) {
        Ok(q) => q,
        Err(resp) => return *resp,
    };
    let deadline_ms = req
        .param("deadline_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(shared.config.default_deadline_millis)
        .min(MAX_DEADLINE_MILLIS);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);

    let (tx, rx) = mpsc::channel();
    let job = Job {
        query,
        deadline,
        enqueued: Instant::now(),
        resp: tx,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            hlm_obs::global().set_gauge(names::SERVE_QUEUE_DEPTH, depth as f64);
        }
        Err(AdmitError::Full) => {
            hlm_obs::global().add(names::SERVE_SHED, 1);
            return Response::json(503, err_body("overloaded"))
                .with_header("retry-after", "1".into());
        }
        Err(AdmitError::Closed) => {
            return Response::json(503, err_body("draining"));
        }
    }
    match rx.recv_timeout(Duration::from_millis(deadline_ms) + WORKER_GRACE) {
        Ok(resp) => resp,
        // Worker lost (panic) or wildly late: the job sender is parked in
        // the queue; answering 500 here keeps the connection sane.
        Err(_) => Response::json(500, err_body("worker did not answer")),
    }
}

fn parse_query_request(shared: &Shared, req: &Request) -> Result<Query, Box<Response>> {
    let bad = |msg: &str| Box::new(Response::json(400, err_body(msg)));
    let corpus = shared.engine.corpus();
    match req.path.as_str() {
        "/v1/recommend" => {
            let raw = req
                .param("history")
                .ok_or_else(|| bad("missing history parameter"))?;
            let mut history = Vec::new();
            for tok in raw.split(',').filter(|t| !t.is_empty()) {
                let p: usize = tok
                    .parse()
                    .map_err(|_| bad(&format!("bad product index {tok:?}")))?;
                if p >= corpus.vocab().len() {
                    return Err(bad(&format!("product {p} outside vocabulary")));
                }
                history.push(p);
            }
            if history.is_empty() {
                return Err(bad("history must name at least one product"));
            }
            let top = req
                .param("top")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(10)
                .clamp(1, corpus.vocab().len());
            Ok(Query::Recommend { history, top })
        }
        path => {
            let company: u32 = req
                .param("company")
                .ok_or_else(|| bad("missing company parameter"))?
                .parse()
                .map_err(|_| bad("company must be an integer id"))?;
            if company as usize >= corpus.len() {
                return Err(Box::new(Response::json(
                    404,
                    err_body(&format!("company {company} not in corpus")),
                )));
            }
            let k = req
                .param("k")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(10)
                .clamp(1, corpus.len());
            if path == "/v1/similar" {
                Ok(Query::Similar { company, k })
            } else {
                Ok(Query::Whitespace { company, k })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker path
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let batch = shared
            .queue
            .pop_batch(shared.config.batch_max, Duration::from_millis(25));
        if batch.is_empty() {
            if shared.queue.is_closed() && shared.queue.is_empty() {
                return;
            }
            continue;
        }
        hlm_obs::global().set_gauge(names::SERVE_QUEUE_DEPTH, shared.queue.len() as f64);
        let bundle = read_bundle(shared);
        // A panic while answering drops the batch's jobs, so each caller's
        // wait ends at once in a 500; the worker counts it and serves on.
        let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_batch(&bundle, batch)
        }));
        if answered.is_err() {
            hlm_obs::global().add(names::SERVE_WORKER_PANICS, 1);
        }
    }
}

/// Answer one popped batch: expire what is past deadline, fan the rest
/// into the batched kernels grouped by (query kind, k).
fn process_batch(bundle: &ModelBundle, jobs: Vec<Job>) {
    let now = Instant::now();
    let mut responses: Vec<Option<Response>> = jobs.iter().map(|_| None).collect();
    let mut similar: BTreeMap<usize, Vec<(usize, u32)>> = BTreeMap::new();
    let mut whitespace: BTreeMap<usize, Vec<(usize, u32)>> = BTreeMap::new();

    for (i, job) in jobs.iter().enumerate() {
        if now >= job.deadline {
            hlm_obs::global().add(names::SERVE_DEADLINE_EXCEEDED, 1);
            responses[i] = Some(Response::json(504, err_body("deadline exceeded in queue")));
            continue;
        }
        match &job.query {
            Query::Similar { company, k } => similar.entry(*k).or_default().push((i, *company)),
            Query::Whitespace { company, k } => {
                whitespace.entry(*k).or_default().push((i, *company))
            }
            Query::Recommend { history, top } => {
                let remaining = job.deadline.saturating_duration_since(now).as_millis() as u64;
                let served = bundle
                    .resilient
                    .recommend_within(history, Some(remaining.max(1)));
                responses[i] = Some(recommend_response(bundle, *top, &served));
            }
        }
    }

    let filter = CompanyFilter::default();
    for (k, entries) in similar {
        let ids: Vec<CompanyId> = entries.iter().map(|&(_, c)| CompanyId(c)).collect();
        match bundle.app.find_similar_batch(&ids, k, &filter) {
            Ok(all) => {
                for (&(i, company), results) in entries.iter().zip(&all) {
                    responses[i] = Some(similar_response(bundle, company, k, results));
                }
            }
            Err(e) => {
                for &(i, _) in &entries {
                    responses[i] = Some(Response::json(500, err_body(&format!("{e}"))));
                }
            }
        }
    }
    for (k, entries) in whitespace {
        let ids: Vec<CompanyId> = entries.iter().map(|&(_, c)| CompanyId(c)).collect();
        match bundle.app.recommend_whitespace_batch(&ids, k, &filter) {
            Ok(all) => {
                for (&(i, company), results) in entries.iter().zip(&all) {
                    responses[i] = Some(whitespace_response(bundle, company, k, results));
                }
            }
            Err(e) => {
                for &(i, _) in &entries {
                    responses[i] = Some(Response::json(500, err_body(&format!("{e}"))));
                }
            }
        }
    }

    for (job, resp) in jobs.into_iter().zip(responses) {
        let resp = resp.unwrap_or_else(|| Response::json(500, err_body("unanswered job")));
        if resp.status == 200 {
            hlm_obs::global().observe("serve.e2e_seconds", job.enqueued.elapsed().as_secs_f64());
        }
        // The connection may have given up (its own timeout) — that is its
        // right; dropping the send result cannot poison anything.
        let _ = job.resp.send(resp);
    }
}

fn similar_response(
    bundle: &ModelBundle,
    company: u32,
    k: usize,
    results: &[SimilarCompany],
) -> Response {
    let mut body = format!(
        "{{\"query\":{company},\"k\":{k},\"generation\":{},\"model\":{},\"results\":[",
        bundle.generation,
        jstr(&bundle.label)
    );
    for (i, s) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"id\":{},\"distance\":{}}}",
            s.id.0,
            Num(s.distance)
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn whitespace_response(
    bundle: &ModelBundle,
    company: u32,
    k: usize,
    results: &[WhitespaceRecommendation],
) -> Response {
    let mut body = format!(
        "{{\"query\":{company},\"k\":{k},\"generation\":{},\"model\":{},\"results\":[",
        bundle.generation,
        jstr(&bundle.label)
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"product\":{},\"score\":{},\"owners\":{}}}",
            r.product.0,
            Num(r.score),
            r.owners_among_similar
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn recommend_response(bundle: &ModelBundle, top: usize, served: &Served<Vec<f64>>) -> Response {
    let mut order: Vec<usize> = (0..served.value.len()).collect();
    order.sort_by(|&a, &b| {
        served.value[b]
            .partial_cmp(&served.value[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let degraded = match &served.degraded {
        Some(why) => jstr(why),
        None => "null".to_string(),
    };
    let mut body = format!(
        "{{\"generation\":{},\"model\":{},\"degraded\":{degraded},\"top\":[",
        bundle.generation,
        jstr(&bundle.label)
    );
    for (i, &p) in order.iter().take(top).enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"product\":{p},\"score\":{}}}",
            Num(served.value[p])
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

// ---------------------------------------------------------------------------
// Hot swap
// ---------------------------------------------------------------------------

/// Load a candidate bundle, canary it, and either install it atomically or
/// keep the current one. Counting discipline: a passed canary increments
/// `serve.hot_swap`; a failed canary increments `serve.rollback`; a loader
/// error is neither — nothing was ever candidate-installed.
fn do_swap(shared: &Shared) -> Response {
    let Some(loader) = &shared.loader else {
        return Response::json(409, err_body("no swap source configured"));
    };
    let _serialized = shared.swap_lock.lock().unwrap_or_else(|e| e.into_inner());
    let candidate = match loader() {
        Ok(c) => c,
        Err(e) => {
            return Response::json(500, err_body(&format!("swap load failed: {e}")));
        }
    };
    let canary = {
        let _span = hlm_obs::global().span("serve.swap_canary");
        canary_probe(&candidate)
    };
    match canary {
        Err(why) => {
            hlm_obs::global().add(names::SERVE_ROLLBACK, 1);
            let serving = read_bundle(shared);
            Response::json(
                500,
                format!(
                    "{{\"error\":{},\"rolled_back\":true,\"serving_generation\":{}}}",
                    jstr(&format!("canary failed: {why}")),
                    serving.generation
                ),
            )
        }
        Ok(()) => {
            let body = format!(
                "{{\"generation\":{},\"checkpoint_iteration\":{},\"model\":{}}}",
                candidate.generation,
                candidate.checkpoint_iteration,
                jstr(&candidate.label)
            );
            let mut slot = shared.bundle.write().unwrap_or_else(|e| e.into_inner());
            *slot = Arc::new(candidate);
            drop(slot);
            hlm_obs::global().add(names::SERVE_HOT_SWAP, 1);
            Response::json(200, body)
        }
    }
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::sync::OnceLock;

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_term(_signum: i32) {
        if let Some(flag) = FLAG.get() {
            // A store on an AtomicBool is async-signal-safe.
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Install a SIGTERM + SIGINT handler that flips the returned flag —
    /// pass it to [`crate::Server::run`] for graceful drain on `kill`.
    /// std already links libc on unix, so `signal(2)` is available without
    /// any external crate.
    pub fn install_term_handler() -> Arc<AtomicBool> {
        let flag = FLAG
            .get_or_init(|| {
                extern "C" {
                    fn signal(signum: i32, handler: usize) -> usize;
                }
                const SIGINT: i32 = 2;
                const SIGTERM: i32 = 15;
                unsafe {
                    signal(SIGTERM, on_term as *const () as usize);
                    signal(SIGINT, on_term as *const () as usize);
                }
                Arc::new(AtomicBool::new(false))
            })
            .clone();
        flag
    }
}

#[cfg(unix)]
pub use term::install_term_handler;

#[cfg(not(unix))]
/// Fallback for non-unix targets: no signal wiring, shutdown only via
/// [`ServerHandle::shutdown`] or process exit.
pub fn install_term_handler() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

#[cfg(test)]
mod tests {
    use super::{wake_address, ServerConfig};

    #[test]
    fn handler_limit_covers_every_job_the_server_can_hold_plus_the_shed() {
        assert_eq!(ServerConfig::default().handler_limit(), 2 * 16 + 256 + 1);
        let tiny = ServerConfig {
            workers: 0,
            queue_capacity: 0,
            batch_max: 0,
            ..ServerConfig::default()
        };
        // The server runs at least one worker taking one job, and one slot.
        assert_eq!(tiny.handler_limit(), 3);
    }

    #[test]
    fn wake_address_swaps_only_an_unspecified_ip_for_loopback() {
        let wake = |a: &str| wake_address(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:8787"), "127.0.0.1:8787");
        assert_eq!(wake("[::]:8787"), "[::1]:8787");
        assert_eq!(wake("10.1.2.3:8787"), "10.1.2.3:8787");
    }
}
