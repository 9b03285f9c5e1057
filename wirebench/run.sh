#!/usr/bin/env bash
# Builds the `fairank` server and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash wirebench/run.sh --workload quantify-browse --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fairank-cli >&2
cargo build --release --offline --quiet --manifest-path wirebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wirebench" \
    --server "$CARGO_TARGET_DIR/release/fairank" \
    --out-dir "$CARGO_TARGET_DIR/wirebench" "$@"
