#!/usr/bin/env bash
# Everything that must hold before the benchmark is trusted, in one command
# (for CI to call): it builds, its tests pass (timeline, percentile, goodput
# and self-time arithmetic; generator determinism; the guards; a --quick
# smoke run of every workload whose printed names must equal
# BENCHMARK.json's), and the run command itself works end to end.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
cargo test --offline --manifest-path "$here/Cargo.toml"
bash "$here/run.sh" --workload decode_heavy --quick | tail -n 1
echo "benchmark/check.sh: ok"
