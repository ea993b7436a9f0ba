#!/usr/bin/env bash
# Builds the program under test (`hlm`) and the benchmark from source, then
# runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target); inputs, checkpoints, logs and results go under
# <target dir>/perfbench. The last line of stdout is the result JSON.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "error: run from the repository root (the hlm workspace was not found)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin hlm >&2
cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/perfbench" --hlm "$target/release/hlm" \
    --work-dir "$target/perfbench" "$@"
