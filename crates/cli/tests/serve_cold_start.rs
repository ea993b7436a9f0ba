//! `hlm serve` over a checkpoint directory whose only `lda-gibbs`
//! checkpoint is in the all-JSON format used before the resident payload:
//! the server says why it cannot warm-start in its `cold start (…)` note,
//! retrains, and leaves a checkpoint the next start can warm from.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

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
