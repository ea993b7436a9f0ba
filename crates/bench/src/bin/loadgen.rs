//! `hlm-loadgen` — load generator for the `hlm-serve` recommendation
//! server (PR 7), and the producer of its benchmark record.
//!
//! Two phases, both over real TCP against a real server:
//!
//! 1. **Closed loop** — `--connections` keep-alive clients fire
//!    `--requests` queries back-to-back (a new request the moment the
//!    previous answer lands). This measures the server's *sustained*
//!    throughput and the p50/p99 latency when it is busy but not
//!    overloaded. Every request must come back `200`.
//! 2. **Overload** — a wider pool of paced clients offers 2× the
//!    sustained throughput just measured. A robust server does not melt:
//!    it sheds the excess with `503 + Retry-After` at the admission
//!    queue and keeps the p99 of the requests it *does* accept under the
//!    deadline. The record reports the shed rate and the accepted-only
//!    percentiles so both halves of that claim are checkable.
//!
//! With `--fault-drill` the run ends with a nasty-client suite (partial
//! request + disconnect, garbage bytes, slow-loris, mid-response
//! disconnect) and verifies the server still answers cleanly afterwards.
//!
//! By default the binary self-hosts: it generates a corpus, trains a
//! small LDA model, and starts an in-process [`hlm_serve::Server`] with a
//! deliberately small admission queue (so overload is observable).
//! `--addr HOST:PORT` skips all that and drives an external server
//! instead — e.g. one started by `hlm serve` in CI.
//!
//! Usage:
//!   hlm-loadgen [--addr HOST:PORT] [--requests N] [--connections C]
//!               [--companies N] [--json [PATH]] [--fault-drill]
//!
//! `--json` writes the machine-readable record (default `BENCH_pr7.json`).
//! The closed-loop section breaks accepted-request p50/p99 out per
//! endpoint (similar / whitespace / recommend).
//! `HLM_SCALE=smoke` shrinks the self-host corpus and request count for
//! CI; like the other bench records, structurally untrustworthy numbers
//! carry a `caveat` field — read it before quoting anything.

use hlm_core::representations::binary_docs;
use hlm_core::DistanceMetric;
use hlm_datagen::GeneratorConfig;
use hlm_engine::{Engine, LdaEstimator, ServeOptions, TrainPlan};
use hlm_lda::LdaConfig;
use hlm_obs::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request deadline the generator sends and judges p99 against.
const DEADLINE_MS: u64 = 250;

struct Options {
    addr: Option<String>,
    requests: usize,
    connections: usize,
    companies: usize,
    json_path: Option<String>,
    fault_drill: bool,
}

fn parse_options() -> Options {
    let smoke = std::env::var("HLM_SCALE").as_deref() == Ok("smoke");
    let mut opts = Options {
        addr: None,
        requests: if smoke { 2_000 } else { 50_000 },
        connections: 4,
        companies: if smoke { 2_000 } else { 20_000 },
        json_path: None,
        fault_drill: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = "usage: hlm-loadgen [--addr HOST:PORT] [--requests N] \
                 [--connections C] [--companies N] [--json [PATH]] [--fault-drill]";
    let value = |i: &mut usize, argv: &[String], key: &str| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("option {key} is missing a value\n{usage}");
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => opts.addr = Some(value(&mut i, &argv, "--addr")),
            "--requests" => opts.requests = value(&mut i, &argv, "--requests").parse().unwrap_or(0),
            "--connections" => {
                opts.connections = value(&mut i, &argv, "--connections").parse().unwrap_or(0)
            }
            "--companies" => {
                opts.companies = value(&mut i, &argv, "--companies").parse().unwrap_or(0)
            }
            "--json" => {
                // Optional value, like hlm-bench: `--json` alone means the
                // default path.
                let next = argv.get(i + 1);
                if let Some(p) = next.filter(|p| !p.starts_with("--")) {
                    opts.json_path = Some(p.clone());
                    i += 1;
                } else {
                    opts.json_path = Some("BENCH_pr7.json".to_string());
                }
            }
            "--fault-drill" => opts.fault_drill = true,
            other => {
                eprintln!("unknown option {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if opts.requests == 0 || opts.connections == 0 || opts.companies == 0 {
        eprintln!("--requests, --connections and --companies must be positive\n{usage}");
        std::process::exit(2);
    }
    opts
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 keep-alive client
// ---------------------------------------------------------------------------

struct Client {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            addr: addr.to_string(),
            reader,
            writer: stream,
        })
    }

    /// One GET on the keep-alive connection; returns the status code.
    fn get_once(&mut self, path: &str) -> std::io::Result<u16> {
        write!(self.writer, "GET {path} HTTP/1.1\r\nhost: loadgen\r\n\r\n")?;
        // Status line.
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        // Headers: find content-length, note connection: close.
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let mut h = String::new();
            if self.reader.read_line(&mut h)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            let lower = h.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap_or(0);
            }
            if lower.starts_with("connection:") && lower.contains("close") {
                close = true;
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        if close {
            // The server is done with this connection; make the next call
            // reconnect instead of failing.
            *self = Client::connect(&self.addr)?;
        }
        Ok(status)
    }

    /// GET with one transparent reconnect — keep-alive connections get
    /// recycled by the server after `max_requests_per_conn`.
    fn get(&mut self, path: &str) -> std::io::Result<u16> {
        match self.get_once(path) {
            Ok(s) => Ok(s),
            Err(_) => {
                *self = Client::connect(&self.addr)?;
                self.get_once(path)
            }
        }
    }
}

/// The endpoints `path_for` rotates through, in `endpoint_for` order.
const ENDPOINTS: [&str; 3] = ["similar", "whitespace", "recommend"];

/// Which endpoint request `i` hits — the same `i % 4` split `path_for`
/// uses, so per-endpoint latency buckets line up with the query mix.
fn endpoint_for(i: usize) -> usize {
    match i % 4 {
        0 | 1 => 0,
        2 => 1,
        _ => 2,
    }
}

/// The query mix: mostly similarity (the serving hot path), with
/// whitespace and next-product recommendations in rotation. Histories use
/// low product indices so they are valid against any vocabulary.
fn path_for(i: usize, companies: usize) -> String {
    let company = (i * 7919) % companies;
    match endpoint_for(i) {
        0 => format!("/v1/similar?company={company}&k=10&deadline_ms={DEADLINE_MS}"),
        1 => format!("/v1/whitespace?company={company}&k=10&deadline_ms={DEADLINE_MS}"),
        _ => format!(
            "/v1/recommend?history={},{}&top=5&deadline_ms={DEADLINE_MS}",
            i % 8,
            (i + 3) % 8
        ),
    }
}

/// p-th percentile of an unsorted millisecond sample (sorts in place).
fn pct_ms(sample: &mut [f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((p / 100.0) * (sample.len() - 1) as f64).round() as usize;
    sample[idx.min(sample.len() - 1)]
}

/// Outcome counters plus the latency sample for one phase.
#[derive(Default)]
struct PhaseStats {
    ok: usize,
    shed: usize,
    deadline_exceeded: usize,
    errors: usize,
    /// Latencies of *accepted* (200) requests, milliseconds.
    latencies_ms: Vec<f64>,
    /// The same accepted latencies, bucketed by endpoint (`ENDPOINTS`
    /// order) so the record can break p50/p99 out per query type.
    by_endpoint: [Vec<f64>; 3],
    seconds: f64,
}

impl PhaseStats {
    fn total(&self) -> usize {
        self.ok + self.shed + self.deadline_exceeded + self.errors
    }

    fn merge(&mut self, other: PhaseStats) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline_exceeded += other.deadline_exceeded;
        self.errors += other.errors;
        self.latencies_ms.extend(other.latencies_ms);
        for (mine, theirs) in self.by_endpoint.iter_mut().zip(other.by_endpoint) {
            mine.extend(theirs);
        }
    }

    fn record(&mut self, endpoint: usize, status: std::io::Result<u16>, elapsed: Duration) {
        match status {
            Ok(200) => {
                self.ok += 1;
                let ms = elapsed.as_secs_f64() * 1e3;
                self.latencies_ms.push(ms);
                self.by_endpoint[endpoint].push(ms);
            }
            Ok(503) => self.shed += 1,
            Ok(504) => self.deadline_exceeded += 1,
            Ok(_) | Err(_) => self.errors += 1,
        }
    }

    fn percentile(&mut self, p: f64) -> f64 {
        pct_ms(&mut self.latencies_ms, p)
    }
}

/// Phase 1: closed loop — `connections` clients, back-to-back requests.
fn closed_loop(addr: &str, requests: usize, connections: usize, companies: usize) -> PhaseStats {
    let ticket = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|_| {
            let ticket = Arc::clone(&ticket);
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut stats = PhaseStats::default();
                let Ok(mut client) = Client::connect(&addr) else {
                    return stats;
                };
                loop {
                    let i = ticket.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        break;
                    }
                    let path = path_for(i, companies);
                    let q0 = Instant::now();
                    let status = client.get(&path);
                    stats.record(endpoint_for(i), status, q0.elapsed());
                }
                stats
            })
        })
        .collect();
    let mut stats = PhaseStats::default();
    for w in workers {
        stats.merge(w.join().expect("load worker does not panic"));
    }
    stats.seconds = t0.elapsed().as_secs_f64();
    stats
}

/// Phase 2: overload — a wider pool paced to offer `target_rps` in
/// aggregate. Per-worker pacing is open-loop (a slow answer does not slow
/// the schedule; the next request fires as soon as the worker is free), so
/// a server slower than the offered rate accumulates queue depth and must
/// shed.
fn overload(
    addr: &str,
    requests: usize,
    workers_n: usize,
    companies: usize,
    target_rps: f64,
) -> PhaseStats {
    let interval = Duration::from_secs_f64(workers_n as f64 / target_rps.max(1.0));
    let ticket = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..workers_n)
        .map(|w| {
            let ticket = Arc::clone(&ticket);
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut stats = PhaseStats::default();
                let Ok(mut client) = Client::connect(&addr) else {
                    return stats;
                };
                // Stagger worker start so arrivals interleave.
                let mut next = Instant::now() + interval.mul_f64(w as f64 / workers_n as f64);
                loop {
                    let i = ticket.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        break;
                    }
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep(next - now);
                    }
                    next += interval;
                    let path = path_for(i, companies);
                    let q0 = Instant::now();
                    let status = client.get(&path);
                    stats.record(endpoint_for(i), status, q0.elapsed());
                }
                stats
            })
        })
        .collect();
    let mut stats = PhaseStats::default();
    for w in workers {
        stats.merge(w.join().expect("load worker does not panic"));
    }
    stats.seconds = t0.elapsed().as_secs_f64();
    stats
}

// ---------------------------------------------------------------------------
// Network-fault drill
// ---------------------------------------------------------------------------

/// Four nasty clients, then proof the server still serves. Returns
/// (drills run, server healthy afterwards).
fn fault_drill(addr: &str, companies: usize) -> (usize, bool) {
    let mut drills = 0;

    // 1. Partial request line, then disconnect.
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b"GET /v1/simi");
        drop(s);
        drills += 1;
    }
    // 2. Garbage bytes where a request line should be.
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b"\x00\xff\xfeGARBAGE\r\n\r\n");
        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut buf = [0u8; 256];
        let _ = s.read(&mut buf); // 400 or a clean close — either is fine
        drills += 1;
    }
    // 3. Slow-loris: a dribble, then silence past the read timeout.
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b"GET /healthz HT");
        s.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let mut buf = [0u8; 256];
        let _ = s.read(&mut buf); // 408 or a clean close when the server tires
        drills += 1;
    }
    // 4. Valid request, but disconnect before reading the response.
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b"GET /v1/similar?company=0&k=5 HTTP/1.1\r\nhost: x\r\n\r\n");
        drop(s);
        drills += 1;
    }

    // The server must still answer health checks and real queries.
    let healthy = Client::connect(addr)
        .and_then(|mut c| {
            let h = c.get("/healthz")?;
            let q = c.get(&format!("/v1/similar?company={}&k=5", companies / 2))?;
            Ok(h == 200 && q == 200)
        })
        .unwrap_or(false);
    (drills, healthy)
}

// ---------------------------------------------------------------------------
// Self-hosted server
// ---------------------------------------------------------------------------

/// Generate, train and start an in-process server sized so overload is
/// observable: a small admission queue in front of two model workers.
fn self_host(companies: usize) -> hlm_serve::ServerHandle {
    eprintln!("[hlm-loadgen] generating {companies} companies and training LDA…");
    let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(companies, 42));
    let ids: Vec<_> = corpus.ids().collect();
    let docs = binary_docs(&corpus, &ids);
    let config = LdaConfig {
        n_topics: 5,
        vocab_size: corpus.vocab().len(),
        n_iters: 20,
        burn_in: 10,
        sample_lag: 5,
        ..Default::default()
    };
    let model = hlm_engine::fit_lda_resilient(config, LdaEstimator::Gibbs, &docs, TrainPlan::new())
        .expect("LDA trains")
        .model;
    let engine = Arc::new(Engine::new(corpus));
    let opts = ServeOptions {
        request_budget_millis: Some(DEADLINE_MS),
    };
    let bundle = hlm_serve::bundle_from_model(&engine, model, 20, DistanceMetric::Cosine, opts)
        .expect("bundle builds");
    let config = hlm_serve::ServerConfig {
        workers: 2,
        // Small on purpose: the queue's job is bounding the latency of
        // accepted work, and the overload phase needs it reachable.
        queue_capacity: 16,
        batch_max: 8,
        default_deadline_millis: DEADLINE_MS,
        read_timeout_millis: 2_000,
        max_requests_per_conn: 1 << 20,
        ..hlm_serve::ServerConfig::default()
    };
    let server =
        hlm_serve::Server::bind(config, engine, bundle, None).expect("server binds 127.0.0.1:0");
    server.start().expect("server threads start")
}

/// JSON string literal (esc() escapes but does not quote).
fn jq(s: &str) -> String {
    format!("\"{}\"", json::esc(s))
}

fn main() {
    let opts = parse_options();
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = std::env::var("HLM_SCALE").unwrap_or_else(|_| "small".to_string());

    let mut caveats: Vec<String> = Vec::new();
    if hardware == 1 {
        caveats.push(
            "single hardware thread: client and server contend for one core, so \
             throughput and latency measure contention, not server capacity"
                .to_string(),
        );
    }
    if opts.addr.is_none() && hardware > 1 && opts.connections + 2 >= hardware {
        caveats.push(format!(
            "{} client connections + 2 server workers on {hardware} hardware threads: \
             the client steals server cycles at peak",
            opts.connections
        ));
    }
    if scale == "smoke" {
        caveats.push("smoke scale: timings dominated by fixed overheads".to_string());
    }

    // A server to aim at: external (--addr) or self-hosted.
    let handle = if opts.addr.is_none() {
        Some(self_host(opts.companies))
    } else {
        None
    };
    let caveat = caveats.join("; ");
    for c in &caveats {
        eprintln!("[hlm-loadgen] CAVEAT: {c}");
    }
    let addr = match (&opts.addr, &handle) {
        (Some(a), _) => a.clone(),
        (None, Some(h)) => h.addr().to_string(),
        (None, None) => unreachable!("self-host failed would have panicked"),
    };
    eprintln!("[hlm-loadgen] target: {addr}");

    // Phase 1: closed loop.
    eprintln!(
        "[hlm-loadgen] closed loop: {} requests over {} connections…",
        opts.requests, opts.connections
    );
    let mut closed = closed_loop(&addr, opts.requests, opts.connections, opts.companies);
    let throughput = json::finite_or(closed.ok as f64 / closed.seconds, 0.0);
    let closed_p50 = closed.percentile(50.0);
    let closed_p99 = closed.percentile(99.0);
    eprintln!(
        "[hlm-loadgen] sustained: {throughput:.0} req/s, p50 {closed_p50:.2} ms, \
         p99 {closed_p99:.2} ms ({} ok / {} shed / {} errors)",
        closed.ok, closed.shed, closed.errors
    );
    // Per-endpoint breakdown of the closed loop: `(name, accepted, p50, p99)`.
    // The whitespace endpoint does a similarity query *plus* the ownership
    // aggregation, so its latency floor sits above plain similarity — the
    // breakdown makes that visible instead of averaged away.
    let endpoint_stats: Vec<(&str, usize, f64, f64)> = ENDPOINTS
        .iter()
        .zip(closed.by_endpoint.iter_mut())
        .map(|(name, sample)| {
            let (p50, p99) = (pct_ms(sample, 50.0), pct_ms(sample, 99.0));
            (*name, sample.len(), p50, p99)
        })
        .collect();
    for (name, n, p50, p99) in &endpoint_stats {
        eprintln!("[hlm-loadgen]   {name:<10} {n:>6} ok, p50 {p50:.2} ms, p99 {p99:.2} ms");
    }

    // Phase 2: overload at 2× sustained.
    let target_rps = 2.0 * throughput;
    let over_requests = (opts.requests / 5).clamp(200, 20_000);
    let over_workers = (opts.connections * 8).max(32);
    eprintln!(
        "[hlm-loadgen] overload: offering {target_rps:.0} req/s \
         ({over_requests} requests over {over_workers} paced connections)…"
    );
    let mut over = overload(
        &addr,
        over_requests,
        over_workers,
        opts.companies,
        target_rps,
    );
    let offered_rps = json::finite_or(over.total() as f64 / over.seconds, 0.0);
    let shed_rate = json::finite_or(over.shed as f64 / over.total() as f64, 0.0);
    let over_p50 = over.percentile(50.0);
    let over_p99 = over.percentile(99.0);
    eprintln!(
        "[hlm-loadgen] overload result: offered {offered_rps:.0} req/s, \
         {} ok / {} shed ({:.1}%) / {} expired / {} errors; accepted p99 {over_p99:.2} ms",
        over.ok,
        over.shed,
        shed_rate * 100.0,
        over.deadline_exceeded,
        over.errors
    );

    // Phase 3 (optional): the nasty-client suite.
    let drill = if opts.fault_drill {
        eprintln!("[hlm-loadgen] fault drill: 4 nasty clients…");
        let (drills, healthy) = fault_drill(&addr, opts.companies);
        eprintln!("[hlm-loadgen] fault drill: {drills} drills, healthy after: {healthy}");
        assert!(healthy, "server must keep serving after the fault drill");
        Some((drills, healthy))
    } else {
        None
    };

    if let Some(h) = handle {
        h.shutdown();
    }

    // The robustness verdicts the PR claims, stated as data.
    let p99_under_deadline = over_p99 <= DEADLINE_MS as f64;
    let sheds_under_overload = over.shed > 0;

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pr7_serving\",\n");
    out.push_str(&format!("  \"scale\": {},\n", jq(&scale)));
    out.push_str(&format!("  \"hardware_threads\": {hardware},\n"));
    out.push_str(&format!("  \"caveat\": {},\n", jq(&caveat)));
    out.push_str(&format!(
        "  \"server\": {{\"addr\": {}, \"self_hosted\": {}, \"companies\": {}, \
         \"deadline_ms\": {DEADLINE_MS}}},\n",
        jq(&addr),
        opts.addr.is_none(),
        opts.companies
    ));
    let endpoints_json = endpoint_stats
        .iter()
        .map(|(name, n, p50, p99)| {
            format!(
                "{{\"endpoint\": {}, \"ok\": {n}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                jq(name),
                json::finite_or(*p50, 0.0),
                json::finite_or(*p99, 0.0)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!(
        "  \"closed_loop\": {{\"requests\": {}, \"connections\": {}, \"seconds\": {:.3}, \
         \"throughput_rps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"ok\": {}, \"shed\": {}, \"deadline_exceeded\": {}, \"errors\": {}, \
         \"endpoints\": [{endpoints_json}]}},\n",
        opts.requests,
        opts.connections,
        closed.seconds,
        throughput,
        json::finite_or(closed_p50, 0.0),
        json::finite_or(closed_p99, 0.0),
        closed.ok,
        closed.shed,
        closed.deadline_exceeded,
        closed.errors
    ));
    out.push_str(&format!(
        "  \"overload\": {{\"target_rps\": {:.1}, \"offered_rps\": {:.1}, \"requests\": {}, \
         \"connections\": {over_workers}, \"seconds\": {:.3}, \"ok\": {}, \"shed\": {}, \
         \"shed_rate\": {:.4}, \"deadline_exceeded\": {}, \"errors\": {}, \
         \"accepted_p50_ms\": {:.3}, \"accepted_p99_ms\": {:.3}, \
         \"sheds_under_overload\": {sheds_under_overload}, \
         \"p99_under_deadline\": {p99_under_deadline}}}",
        json::finite_or(target_rps, 0.0),
        offered_rps,
        over.total(),
        over.seconds,
        over.ok,
        over.shed,
        shed_rate,
        over.deadline_exceeded,
        over.errors,
        json::finite_or(over_p50, 0.0),
        json::finite_or(over_p99, 0.0),
    ));
    if let Some((drills, healthy)) = drill {
        out.push_str(&format!(
            ",\n  \"fault_drill\": {{\"drills\": {drills}, \"healthy_after\": {healthy}}}"
        ));
    }
    out.push_str("\n}\n");

    println!("{out}");
    if let Some(path) = &opts.json_path {
        std::fs::write(path, &out).expect("benchmark record is writable");
        eprintln!("[hlm-loadgen] wrote {path}");
    }

    // Hard exits for CI: every closed-loop request answered, overload shed.
    if closed.errors > 0 {
        eprintln!("[hlm-loadgen] FAIL: {} closed-loop errors", closed.errors);
        std::process::exit(1);
    }
    if !sheds_under_overload && offered_rps > throughput * 1.2 {
        eprintln!("[hlm-loadgen] FAIL: overload offered > sustained but nothing was shed");
        std::process::exit(1);
    }
}
