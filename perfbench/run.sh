#!/usr/bin/env bash
# Build the release `twocs` binary and the benchmark harness from this
# checkout, then run the harness. All arguments are passed through:
#
#   bash perfbench/run.sh --workload sweep_1m --seed 1 --seconds 20 --trace 0
#
# Cargo's output goes to stderr; the harness prints its JSON result as
# the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin twocs >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/twocs-perfbench" --twocs "$CARGO_TARGET_DIR/release/twocs" "$@"
