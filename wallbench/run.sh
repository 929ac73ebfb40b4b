#!/usr/bin/env bash
# Builds the unmodified rover-cluster server and the wallbench load
# generator from source, then runs one measurement. Run from the root of
# a checkout:
#   bash wallbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rover-cluster --bin rover-cluster >&2
cargo build --release --offline --quiet --manifest-path wallbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wallbench" \
    --server-bin "$CARGO_TARGET_DIR/release/rover-cluster" "$@"
