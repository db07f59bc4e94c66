#!/usr/bin/env bash
# Builds the benchmark (and the process-backend worker it launches) from
# this checkout, then runs one workload in its own process.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --self-check
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build, relative to
# the repository root). Temporary files of the build and the process
# backend's socket directories go to .perfbench-tmp, removed at exit.
# Build messages go to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p .perfbench-tmp
trap 'rmdir .perfbench-tmp 2>/dev/null || true' EXIT
TMPDIR="$PWD/.perfbench-tmp" cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml >&2
# The benchmark gets the relative path, which keeps socket paths short
# whatever the checkout path.
TMPDIR=.perfbench-tmp "$CARGO_TARGET_DIR/release/perfbench" "$@"
