//! Crash-recovery drill for the serving stack (PR 7): a real server
//! process is SIGKILLed mid-load, restarted, and must warm-start from the
//! latest good checkpoint with **bit-identical** answers; a corrupted
//! latest checkpoint must degrade to the previous good one, not kill the
//! restart.
//!
//! The server runs in a genuinely separate OS process so the kill is a
//! real kill (no atexit, no Drop, no flush). The child is this same test
//! binary re-invoked with `--exact child_server_process` and a directory
//! handed over via the `HLM_SERVING_CHILD_DIR` env var — the standard
//! self-spawn trick for process-level drills without a helper binary.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hlm_core::representations::binary_docs;
use hlm_core::DistanceMetric;
use hlm_corpus::io::{from_csv, to_csv};
use hlm_corpus::Vocabulary;
use hlm_datagen::GeneratorConfig;
use hlm_engine::{Engine, LdaEstimator, ServeOptions, TrainPlan};
use hlm_lda::LdaConfig;
use hlm_resilience::CheckpointStore;
use hlm_serve::{bundle_from_checkpoint, Server, ServerConfig};

const CHILD_ENV: &str = "HLM_SERVING_CHILD_DIR";
const N_ITERS: usize = 30;

/// The one LDA shape parent (trainer) and child (server) agree on.
fn lda_config(vocab_size: usize) -> LdaConfig {
    LdaConfig {
        n_topics: 3,
        vocab_size,
        n_iters: N_ITERS,
        burn_in: N_ITERS / 2,
        sample_lag: 5,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// The child: a server process that only ever dies by signal
// ---------------------------------------------------------------------------

/// Not a test in the usual sense: a no-op unless `HLM_SERVING_CHILD_DIR`
/// is set, in which case this process becomes the server under drill.
#[test]
fn child_server_process() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return;
    };
    let dir = PathBuf::from(dir);
    let companies = std::fs::read_to_string(dir.join("companies.csv")).expect("child: corpus");
    let events = std::fs::read_to_string(dir.join("events.csv")).expect("child: events");
    let corpus = from_csv(Vocabulary::standard(), &companies, &events).expect("child: parse");
    let config = lda_config(corpus.vocab().len());
    let store = CheckpointStore::on_disk(dir.join("ck")).expect("child: store");
    let engine = Arc::new(Engine::new(corpus));
    let opts = ServeOptions {
        request_budget_millis: Some(30_000),
    };
    let bundle = bundle_from_checkpoint(&engine, &config, &store, DistanceMetric::Cosine, opts)
        .expect("child: warm start from latest good checkpoint");
    // Tell the parent which checkpoint we warmed from, then where we listen.
    std::fs::write(dir.join("iter"), bundle.checkpoint_iteration.to_string()).expect("child: iter");
    let server = Server::bind(ServerConfig::default(), engine, bundle, None).expect("child: bind");
    let addr = server.local_addr();
    let handle = server.start().expect("child: start");
    std::fs::write(dir.join("port"), addr.port().to_string()).expect("child: port file");
    // Serve until killed; self-destruct eventually so a crashed parent
    // cannot leak a process.
    std::thread::sleep(Duration::from_secs(120));
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Parent-side helpers
// ---------------------------------------------------------------------------

/// A spawned child server that is SIGKILLed on drop, so no panic path can
/// leak a process.
struct ChildServer {
    child: std::process::Child,
    port: u16,
    iteration: u64,
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(dir: &Path) -> ChildServer {
    let _ = std::fs::remove_file(dir.join("port"));
    let _ = std::fs::remove_file(dir.join("iter"));
    let exe = std::env::current_exe().expect("test binary path");
    let child = std::process::Command::new(exe)
        .args(["--exact", "child_server_process", "--nocapture"])
        .env(CHILD_ENV, dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("child spawns");
    // The port file appears only after bind + start: its presence is the
    // readiness signal.
    let deadline = Instant::now() + Duration::from_secs(120);
    let port: u16 = loop {
        if let Ok(s) = std::fs::read_to_string(dir.join("port")) {
            if let Ok(p) = s.trim().parse() {
                break p;
            }
        }
        assert!(Instant::now() < deadline, "child server never came up");
        std::thread::sleep(Duration::from_millis(25));
    };
    let iteration: u64 = std::fs::read_to_string(dir.join("iter"))
        .expect("child reported its checkpoint iteration")
        .trim()
        .parse()
        .expect("iteration parses");
    ChildServer {
        child,
        port,
        iteration,
    }
}

/// One-shot GET returning the full raw response (status line through body).
fn fetch(port: u16, path: &str) -> String {
    let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("server accepts");
    conn.set_read_timeout(Some(Duration::from_secs(30))).ok();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("full response");
    buf
}

/// The fixed query set whose answers must survive a crash bit-identically.
fn probe_paths() -> Vec<String> {
    let mut paths: Vec<String> = (0..5)
        .map(|c| format!("/v1/similar?company={}&k=5&deadline_ms=30000", c * 17))
        .collect();
    paths.push("/v1/whitespace?company=33&k=8&deadline_ms=30000".to_string());
    paths.push("/v1/recommend?history=0,2,5&top=5&deadline_ms=30000".to_string());
    paths
}

// ---------------------------------------------------------------------------
// The drill
// ---------------------------------------------------------------------------

#[test]
fn sigkill_mid_load_then_restart_serves_bit_identical_answers() {
    // --- Setup: corpus on disk + checkpointed training run. -------------
    let dir = std::env::temp_dir().join(format!("hlm_serving_drill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(120, 11));
    let (companies_csv, events_csv) = to_csv(&corpus);
    std::fs::write(dir.join("companies.csv"), companies_csv).unwrap();
    std::fs::write(dir.join("events.csv"), events_csv).unwrap();

    let ids: Vec<_> = corpus.ids().collect();
    let docs = binary_docs(&corpus, &ids);
    let plan = TrainPlan::new().on_disk(dir.join("ck")).expect("plan");
    let fit = hlm_engine::fit_lda_resilient(
        lda_config(corpus.vocab().len()),
        LdaEstimator::Gibbs,
        &docs,
        plan,
    )
    .expect("training with checkpoints");
    assert_eq!(fit.checkpoints_written, N_ITERS as u64);

    // --- Round 1: serve, baseline the answers, SIGKILL mid-load. --------
    let server = spawn_server(&dir);
    assert_eq!(
        server.iteration, N_ITERS as u64,
        "server warms from the final checkpoint"
    );
    let baseline: Vec<String> = probe_paths()
        .iter()
        .map(|p| fetch(server.port, p))
        .collect();
    for (p, resp) in probe_paths().iter().zip(&baseline) {
        assert!(resp.starts_with("HTTP/1.1 200"), "{p}: {resp}");
    }

    // Sustained load from a second thread; the kill lands while requests
    // are in flight, not during a quiet moment.
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicUsize::new(0));
    let load = {
        let stop = Arc::clone(&stop);
        let sent = Arc::clone(&sent);
        let port = server.port;
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::SeqCst) {
                // Requests after the kill fail to connect or mid-read;
                // both are expected — the drill only requires that *this*
                // thread never hangs.
                let conn = TcpStream::connect(("127.0.0.1", port));
                let Ok(mut conn) = conn else { continue };
                conn.set_read_timeout(Some(Duration::from_secs(5))).ok();
                let path = format!("/v1/similar?company={}&k=5&deadline_ms=30000", i % 120);
                let _ = write!(
                    conn,
                    "GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
                );
                let mut buf = String::new();
                let _ = conn.read_to_string(&mut buf);
                sent.fetch_add(1, Ordering::SeqCst);
                i += 1;
            }
        })
    };
    // Let the load become real traffic, then kill without ceremony.
    let t0 = Instant::now();
    while sent.load(Ordering::SeqCst) < 20 {
        assert!(t0.elapsed() < Duration::from_secs(60), "load never ramped");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(server); // SIGKILL + reap
    stop.store(true, Ordering::SeqCst);
    load.join()
        .expect("load thread exits cleanly after the kill");

    // --- Round 2: restart; answers must be bit-identical. ---------------
    let server = spawn_server(&dir);
    assert_eq!(server.iteration, N_ITERS as u64);
    for (p, expected) in probe_paths().iter().zip(&baseline) {
        let got = fetch(server.port, p);
        assert_eq!(&got, expected, "post-restart answer differs for {p}");
    }
    drop(server);

    // --- Round 3: corrupt the newest checkpoint; the restart must fall
    // back to the previous good one and keep serving. --------------------
    let newest = dir.join("ck").join(format!("ckpt-{:012}.hlm", N_ITERS));
    let mut bytes = std::fs::read(&newest).expect("newest checkpoint exists");
    let mid = bytes.len() / 2;
    let end = (mid + 32).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xff;
    }
    std::fs::write(&newest, bytes).unwrap();

    let server = spawn_server(&dir);
    assert_eq!(
        server.iteration,
        N_ITERS as u64 - 1,
        "corrupt newest checkpoint falls back to the previous good one"
    );
    let resp = fetch(server.port, "/v1/similar?company=3&k=5&deadline_ms=30000");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("\"results\""), "{resp}");
    drop(server);

    let _ = std::fs::remove_dir_all(&dir);
}
