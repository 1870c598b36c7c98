#!/usr/bin/env bash
# Builds the program and the benchmark harness from this checkout, then
# runs one workload:
#
#   bash benchmark/run.sh --workload <serve-warm|serve-cold|sweep-a2|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); logs, run records and spans go to bench-out/.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --bin vpd >&2
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2

VPDBENCH_RUSTC="$(rustc --version)"
VPDBENCH_GIT_REVISION="none"
if [ -d .git ]; then
    VPDBENCH_GIT_REVISION="$(git rev-parse HEAD 2>/dev/null || echo none)"
fi
export VPDBENCH_RUSTC VPDBENCH_GIT_REVISION

"$CARGO_TARGET_DIR/release/vpdbench" --vpd "$CARGO_TARGET_DIR/release/vpd" "$@"
