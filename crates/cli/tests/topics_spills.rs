//! Where `hlm topics` leaves a sharded Gibbs fit's spill files. Without
//! `--checkpoint-dir` nothing can resume from them, so the store must not
//! keep a `.gibbs_work` directory after the fit, whether it succeeded or
//! stopped on a damaged shard. With `--checkpoint-dir` they stay under
//! `<dir>/spills` beside the checkpoints a resume reads.

use std::path::Path;
use std::process::{Command, Output, Stdio};

fn hlm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hlm"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// A fresh two-shard store under `root`.
fn two_shard_store(root: &Path, name: &str) -> std::path::PathBuf {
    let data = root.join(name);
    let out = hlm(&[
        "generate",
        "--out",
        arg(&data),
        "--companies",
        "300",
        "--seed",
        "7",
        "--shards",
        "2",
    ]);
    assert!(out.status.success(), "{out:?}");
    data
}

fn topics(data: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "topics",
        "--data",
        arg(data),
        "--topics",
        "3",
        "--iters",
        "4",
    ];
    args.extend_from_slice(extra);
    hlm(&args)
}

#[test]
fn sharded_topics_leaves_no_spills_in_the_store() {
    let root = std::env::temp_dir().join(format!("hlm_cli_spills_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let data = two_shard_store(&root, "data");
    let out = topics(&data, &[]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("topic 0:"));
    assert!(!data.join(".gibbs_work").exists());

    // A damaged shard stops the fit with exit code 4; its spills go too.
    let bad = two_shard_store(&root, "bad");
    let shard = bad.join("shard_00001.bin");
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&shard, bytes).unwrap();
    let out = topics(&bad, &[]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(!bad.join(".gibbs_work").exists());

    // With a checkpoint directory the spills stay beside the checkpoints.
    let ckpt = root.join("ckpt");
    let out = topics(&data, &["--checkpoint-dir", arg(&ckpt)]);
    assert!(out.status.success(), "{out:?}");
    assert!(!data.join(".gibbs_work").exists());
    let spills = std::fs::read_dir(ckpt.join("spills")).unwrap().count();
    assert!(spills > 0, "no spill files under {}", ckpt.display());

    std::fs::remove_dir_all(&root).unwrap();
}
