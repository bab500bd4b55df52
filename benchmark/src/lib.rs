//! The repository's serving benchmark (see `benchmark/README.md`).
//!
//! One binary, `atom-benchmark {run|trace|compare|aa}`, drives the real
//! stack top-down — `Gateway::offer`/`tick` → `CpuEngine` → `LlamaModel` →
//! `QuantizedLinear`/`QuantizedKvCache` → `atom-kernels` — through public
//! functions only. `run` reports the end-to-end metrics of one workload on
//! a timeline composed from per-tick minima over repetitions; `trace` is a
//! separate pass that attributes every tick to a layer.

pub mod checks;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod replay;
pub mod report;
pub mod rng;
pub mod run;
pub mod system;
pub mod timeline;
pub mod trace;
pub mod traced;
pub mod workload;

/// `run_seconds` of `BENCHMARK.json`: how old a run may be when it starts
/// another repetition.
pub const RUN_SECONDS: u64 = 30;
pub const DEFAULT_SEED: u64 = 42;

/// Where runs leave files: `benchmark/out/` from the repository root (where
/// the run command starts), `out/` from inside `benchmark/`.
pub fn out_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}
