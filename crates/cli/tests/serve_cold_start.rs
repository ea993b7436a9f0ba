//! `hlm serve` cold starts. Over a checkpoint directory whose only
//! `lda-gibbs` checkpoint is in the all-JSON format used before the
//! resident payload, the server says why it cannot warm-start in its
//! `cold start (…)` note, retrains, and leaves a checkpoint the next start
//! can warm from. Every start and swap exports one span per phase on
//! `/metrics`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hlm_resilience::{Checkpoint, CheckpointStore};

/// An `lda-gibbs` payload in the pre-resident all-JSON format.
const OLD_GIBBS_PAYLOAD: &str = r#"{"iters_done":3,"alpha":0.5,"tok_z":[0,0,1],"n_dk":{"rows":2,"cols":2,"data":[2.0,0.0,0.0,1.0]},"n_kw":{"rows":2,"cols":3,"data":[1.0,1.0,0.0,0.0,0.0,1.0]},"n_k":[2.0,1.0],"phi_acc":{"rows":2,"cols":3,"data":[1.3244147157190636,0.5551839464882944,0.12040133779264214,0.12040133779264214,0.5551839464882944,1.3244147157190636]},"n_samples":2,"rng":[17313963233546218207,6372522376728454613,16526457247692414922,13221988417299793669]}"#;

fn hlm(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hlm"));
    cmd.args(args);
    cmd
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

#[test]
fn cold_start_note_names_the_checkpoint_format_change() {
    let root = std::env::temp_dir().join(format!("hlm_cli_old_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (data, ckpts) = (root.join("data"), root.join("ckpt"));
    let generated = hlm(&[
        "generate",
        "--out",
        arg(&data),
        "--companies",
        "200",
        "--seed",
        "7",
    ])
    .stdout(Stdio::null())
    .status()
    .unwrap();
    assert!(generated.success());
    let store = CheckpointStore::on_disk(&ckpts).unwrap();
    let old = Checkpoint::new("lda-gibbs", 3, OLD_GIBBS_PAYLOAD.as_bytes().to_vec());
    store.save(&old).unwrap();

    let mut server = hlm(&["serve", "--data", arg(&data), "--port", "0"])
        .args([
            "--checkpoint-dir",
            arg(&ckpts),
            "--topics",
            "3",
            "--iters",
            "20",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // The note is printed once the retrained model is ready to serve.
    let stdout = BufReader::new(server.stdout.take().unwrap());
    let note = stdout.lines().next().map(Result::unwrap);
    let _ = server.kill();
    let _ = server.wait();

    let note = note.expect("hlm serve printed nothing");
    assert!(note.starts_with("note: cold start ("), "{note}");
    assert!(note.contains("old all-JSON format"), "{note}");
    let good = store.latest_good("lda-gibbs").unwrap().unwrap();
    assert_eq!(good.iteration, 20);
    assert!(!good.payload.starts_with(b"{"));
    std::fs::remove_dir_all(&root).unwrap();
}

/// One `method path` exchange with the server on `port`; returns the whole
/// response.
fn fetch(port: u16, method: &str, path: &str) -> String {
    let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("server accepts");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    conn.read_to_string(&mut buf).unwrap();
    buf
}

/// How many spans with exactly this path a `/metrics` page lists.
fn spans(metrics: &str, path: &str) -> usize {
    metrics
        .lines()
        .filter(|l| l.starts_with(&format!("hlm_span_duration_ms{{path=\"{path}\",")))
        .count()
}

#[test]
fn cold_start_and_swap_export_a_span_per_phase() {
    let root = std::env::temp_dir().join(format!("hlm_cli_spans_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (data, ckpts, port_file) = (root.join("data"), root.join("ckpt"), root.join("port"));
    let generated = hlm(&[
        "generate",
        "--out",
        arg(&data),
        "--companies",
        "150",
        "--seed",
        "3",
    ])
    .stdout(Stdio::null())
    .status()
    .unwrap();
    assert!(generated.success());

    let mut server = hlm(&["serve", "--data", arg(&data), "--port", "0"])
        .args(["--checkpoint-dir", arg(&ckpts), "--topics", "3"])
        .args(["--iters", "12", "--port-file", arg(&port_file)])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let port: u16 = loop {
        if let Some(port) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            break port;
        }
        assert!(Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(25));
    };

    let cold = fetch(port, "GET", "/metrics");
    let swap = fetch(port, "POST", "/admin/swap");
    let swapped = fetch(port, "GET", "/metrics");
    let _ = server.kill();
    let _ = server.wait();

    // The cold start: one span per phase, the fit's at its usual root path.
    for phase in [
        "corpus.csv_load",
        "engine.fit_lda_resilient",
        "core.representations",
        "core.store_build",
        "engine.fallback_fit",
    ] {
        assert_eq!(spans(&cold, phase), 1, "{phase} in\n{cold}");
    }
    assert_eq!(spans(&cold, "serve.swap_canary"), 0);
    // A swap rebuilds the bundle and canaries it; nothing else reloads.
    assert!(swap.starts_with("HTTP/1.1 200"), "{swap}");
    for (phase, n) in [
        ("corpus.csv_load", 1),
        ("engine.fit_lda_resilient", 1),
        ("core.representations", 2),
        ("core.store_build", 2),
        ("engine.fallback_fit", 2),
        ("serve.swap_canary", 1),
    ] {
        assert_eq!(spans(&swapped, phase), n, "{phase} in\n{swapped}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
