//! Benchmark harness regenerating every table and figure of the Atom paper.
//!
//! One binary per experiment (run with `cargo run --release -p atom-bench
//! --bin <name>`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig02_ppl_vs_size` | Fig. 2 — W4A4 perplexity across model sizes |
//! | `fig03_runtime_breakdown` | Fig. 3 — dense/attention/other runtime |
//! | `fig04_roofline` | Fig. 4 — roofline of quantization approaches |
//! | `fig05_outliers` | Fig. 5 — activation outliers before/after reorder |
//! | `fig09_vcache` | Fig. 9 — V-cache value distribution |
//! | `fig10_end_to_end` | Fig. 10 — serving throughput/latency/fixed-memory |
//! | `fig11_kernels` | Fig. 11 — simulated GEMM / attention sweeps across batch sizes |
//! | `table1_zeroshot` | Table 1 — zero-shot accuracy |
//! | `table2_perplexity` | Table 2 — perplexity on three corpora |
//! | `table3_ablation` | Table 3 — accuracy ablation ladder |
//! | `table4_generality` | Table 4 — Llama-2-like / MoE / FP4 |
//! | `table5_kernel_ablation` | §5.4.2 — fused-kernel TOPS and reorder fusion |
//! | `ablation_dynamic_vs_static` | §4.3 counterfactual — dynamic vs static scales |
//! | `ablation_mx` | §6 outlook — MX/microscaling block formats |
//! | `ablation_w4a8` | QServe-style W4A8 operating point |
//! | `ext_tensor_parallel` | multi-GPU tensor-parallel simulator extension |
//! | `chaos_serve` | robustness — engine under seeded faults + KV pressure |
//! | `slo_gate` | robustness — gateway SLO attainment under chaos, 1/2/8 threads |
//! | `prefix_gate` | prefix cache — hit prefill collapse + KV sharing, bit-identical |
//! | `telemetry_report` | measured Fig. 3 breakdown vs roofline, >= 95 % span coverage |
//!
//! Each paper-artifact binary prints an aligned text table and writes the
//! same content to `results/<name>.txt`; the four gates (`chaos_serve`,
//! `slo_gate`, `prefix_gate`, `telemetry_report`) print theirs and write
//! `results/<name>.json`. The gates assert invariants only: how fast the
//! *real CPU kernels* and the serving stack run is measured by the serving
//! benchmark under `benchmark/`, the repository's one wall-time instrument.

use atom::Calibration;
use atom_nn::{zoo, DenseLinear, LlamaModel};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Renders an aligned text table.
///
/// # Example
///
/// ```
/// let t = atom_bench::table(&["a", "bb"], &[vec!["1".into(), "2".into()]]);
/// assert!(t.contains("bb"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            let _ = write!(out, "{cell:>w$}  ");
        }
        out.push('\n');
    };
    fmt_row(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(&mut out, row);
    }
    out
}

/// Prints a report and writes it to `results/<name>.txt`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join(format!("{name}.txt")), content).expect("write results file");
    eprintln!("[written to results/{name}.txt]");
}

/// The repository's `results/` directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The host's available parallelism, which the gate bins record as
/// `"host_threads"` in their JSON: a bit-identity-across-pool-widths result
/// only exercised real concurrency if this was above 1.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reads a `--<name> <value>` or `--<name>=<value>` u64 flag from the
/// command line, falling back to `default`. Accepts decimal or `0x`-prefixed
/// hex. Bench binaries use this for reproducible seeds (`--seed 42`).
///
/// Exits with status 2 on a malformed or missing value — a bad seed silently
/// replaced by the default would un-reproduce the run it was meant to
/// reproduce.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let flag = format!("--{name}");
    match find_u64(&flag, std::env::args().skip(1)) {
        Ok(found) => found.unwrap_or(default),
        Err(bad) => {
            eprintln!("invalid {flag} value: {bad:?} (expected u64, decimal or 0x-hex)");
            std::process::exit(2);
        }
    }
}

/// The argv walk of [`arg_u64`]: the value of the first `flag` in `args`,
/// `Ok(None)` when the flag is absent, `Err` with the offending text (empty
/// when `flag` is the last argument) when its value is not a u64.
fn find_u64(flag: &str, mut args: impl Iterator<Item = String>) -> Result<Option<u64>, String> {
    while let Some(a) = args.next() {
        let value = if a == flag {
            args.next().unwrap_or_default()
        } else if let Some(v) = a.strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            v.to_string()
        } else {
            continue;
        };
        return parse_u64(&value).map(Some).ok_or(value);
    }
    Ok(None)
}

/// Parses a u64 from decimal or `0x`-prefixed hex.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Loads a zoo model together with its calibration (Gram matrices
/// included), using the paper's 128 calibration sentences.
pub fn calibrated(id: zoo::ZooId) -> (LlamaModel<DenseLinear>, Calibration) {
    let model = zoo::trained(id);
    let seqs = zoo::calibration_sequences(128);
    let calib = Calibration::collect(&model, &seqs, true, 2);
    (model, calib)
}

/// Formats a float with 2 decimals, using scientific notation for huge
/// values (matching the paper's "2.7e4" style for diverged baselines).
pub fn fmt_ppl(v: f64) -> String {
    if !v.is_finite() {
        return "inf".into();
    }
    if v >= 1000.0 {
        format!("{v:.1e}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a probability as a percentage with 2 decimals.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = table(
            &["name", "v"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2.25".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn ppl_formatting() {
        assert_eq!(fmt_ppl(5.681), "5.68");
        assert_eq!(fmt_ppl(27000.0), "2.7e4");
        assert_eq!(fmt_ppl(f64::INFINITY), "inf");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(0.7737), "77.37");
    }

    #[test]
    fn flag_walk_finds_values_and_rejects_a_missing_one() {
        let find = |args: &[&str]| find_u64("--seed", args.iter().map(|a| a.to_string()));
        assert_eq!(find(&["--seed"]), Err(String::new())); // no value
        assert_eq!(find(&["--seed=7"]), Ok(Some(7)));
        assert_eq!(find(&["--seed", "0x2A"]), Ok(Some(42)));
        assert_eq!(find(&["--seedling=3"]), Ok(None), "another flag's prefix");
        assert_eq!(find(&["--seed", "nope"]), Err("nope".to_string()));
    }

    #[test]
    fn u64_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0xC4A0"), Some(0xC4A0));
        assert_eq!(parse_u64("0X51e9"), Some(0x51E9));
        assert_eq!(parse_u64("nope"), None);
        assert_eq!(parse_u64("-3"), None);
    }

    #[test]
    fn arg_u64_falls_back_to_default() {
        // The test binary's argv carries no --seed flag.
        assert_eq!(arg_u64("seed", 7), 7);
    }
}
