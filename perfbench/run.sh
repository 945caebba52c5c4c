#!/usr/bin/env bash
# Builds the `sega-dcim` CLI (the daemon the serve workload talks to) and
# the benchmark from source, then runs one workload. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload dse-corpus --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); the
# last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p sega-dcim --bin sega-dcim >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --sega-dcim "$CARGO_TARGET_DIR/release/sega-dcim" "$@"
