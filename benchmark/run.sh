#!/usr/bin/env bash
# The benchmark's run command (see ../BENCHMARK.json):
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the harness from source on first use (into $CARGO_TARGET_DIR, or
# benchmark/target), then runs one workload: end-to-end metrics with
# --trace 0, per-layer metrics with --trace 1. The system under test is
# measured at pool width 1 on the SWAR kernel path; the harness refuses to
# start at any other width.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export ATOM_THREADS=1
export ATOM_KERNEL_PATH=swar
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run "$@"
