#!/usr/bin/env bash
# Builds the pilfill CLI and the benchmark from this checkout, then runs
# the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload serve_eco --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --describe
# Run from the repository root. Builds go to $CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "perfbench: run from the root of a pil-fill checkout" >&2
    exit 2
fi
cargo build --release --offline -q -p pilfill-cli >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
export PILFILL_BIN="$CARGO_TARGET_DIR/release/pilfill"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
