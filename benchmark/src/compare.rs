//! `atom-benchmark compare A/ B/` and `atom-benchmark aa`.
//!
//! `compare` reads the result files two sets of runs left behind (`run
//! --out FILE`) and judges B against A, one row per workload and end-to-end
//! metric. `aa` makes both sets from the *same* build, interleaved, and
//! requires every metric to agree within half its bound: the benchmark's
//! own noise floor, measured the way a real comparison would be.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::workload;

/// Runs per side and workload in `aa`.
const AA_RUNS_PER_SIDE: usize = 3;
/// Runs a side needs before `compare` calls a difference a gain
/// (`choosing-metrics` §8 asks for ten pairs).
const MIN_RUNS_FOR_A_GAIN: usize = 10;

/// First quartile, median, third quartile — the "exclusive" method, which
/// is what Python's `statistics.quantiles(values, n=4)` computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return values.first().map(|&v| (v, v, v));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Relative change of the median in the *bad* direction: positive means
    /// B is worse than A.
    pub worsening: f64,
    /// A's own spread: interquartile distance over median.
    pub spread_a: f64,
    pub verdict: Verdict,
}

/// Judges B's runs of one metric against A's.
///
/// - `unresolved`: A's own spread exceeds the bound and the sides overlap
///   (neither side's runs all beat the other's) — the data cannot say;
/// - `regressed`: B's median is worse than A's by more than the bound;
/// - `improved`: B's median is better than A's by more than A's spread, on at
///   least [`MIN_RUNS_FOR_A_GAIN`] runs a side (three runs of the same build
///   differ by more than their own quartiles suggest);
/// - `unchanged`: otherwise.
pub fn judge(a: &[f64], b: &[f64], def: &MetricDef) -> Option<Row> {
    let (qa, qb) = (quartiles(a)?, quartiles(b)?);
    let sign = if def.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let worsening = sign * (qb.1 - qa.1) / qa.1.abs();
    let spread_a = (qa.2 - qa.0).abs() / qa.1.abs();
    let worse_than = |x: f64, y: f64| sign * (x - y) > 0.0;
    let b_all_better = b.iter().all(|&y| a.iter().all(|&x| worse_than(x, y)));
    let b_all_worse = b.iter().all(|&y| a.iter().all(|&x| worse_than(y, x)));
    let verdict = if spread_a > def.bound && !b_all_better && !b_all_worse {
        Verdict::Unresolved
    } else if worsening > def.bound {
        Verdict::Regressed
    } else if -worsening > spread_a && a.len().min(b.len()) >= MIN_RUNS_FOR_A_GAIN {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some(Row {
        a: qa,
        b: qb,
        worsening,
        spread_a,
        verdict,
    })
}

/// One side of a comparison: per workload, per metric, the runs' values;
/// and the requests attempted and failed over all runs.
#[derive(Debug, Default)]
pub struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    attempted: f64,
    failed: f64,
    files: usize,
}

impl Side {
    pub fn load(dir: &Path) -> Result<Side, String> {
        let mut side = Side::default();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            // Traced runs carry per-layer metrics, which have no bounds.
            if file.get("trace").and_then(Value::as_f64) != Some(0.0) {
                continue;
            }
            let (Some(workload), Some(result)) = (
                file.get("workload").and_then(Value::as_str),
                file.get("result"),
            ) else {
                return Err(format!(
                    "{}: not a result file of `run --out`",
                    path.display()
                ));
            };
            side.files += 1;
            side.attempted += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            side.failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            let per_metric = side.values.entry(workload.to_string()).or_default();
            for (name, m) in result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    per_metric.entry(name.clone()).or_default().push(v);
                }
            }
        }
        if side.files == 0 {
            return Err(format!("{}: no end-to-end result files", dir.display()));
        }
        Ok(side)
    }

    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// Prints the comparison table; returns every row, for `aa` to gate on.
pub fn compare(
    a_dir: &Path,
    b_dir: &Path,
) -> Result<Vec<(String, &'static MetricDef, Row)>, String> {
    let (a, b) = (Side::load(a_dir)?, Side::load(b_dir)?);
    println!(
        "A = {} ({} runs, failed-request share {:.4})\nB = {} ({} runs, failed-request share {:.4})",
        a_dir.display(),
        a.files,
        a.failed_share(),
        b_dir.display(),
        b.files,
        b.failed_share()
    );
    println!(
        "{:<14} {:<17} {:>6} | {:>11} {:>23} {:>2} | {:>11} {:>23} {:>2} | {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "unit", "A median", "[q1, q3]", "n", "B median", "[q1, q3]", "n", "B worse", "A iqr", "bound"
    );
    let mut rows = Vec::new();
    for name in workload::NAMES {
        let (Some(wa), Some(wb)) = (a.values.get(name), b.values.get(name)) else {
            continue;
        };
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (wa.get(def.name), wb.get(def.name)) else {
                continue;
            };
            let Some(row) = judge(va, vb, def) else {
                continue;
            };
            println!(
                "{:<14} {:<17} {:>6} | {:>11.4} [{:>10.4}, {:>10.4}] {:>2} | {:>11.4} [{:>10.4}, {:>10.4}] {:>2} | {:>+7.2}% {:>6.2}% {:>5.1}%  {}",
                name,
                def.name,
                def.unit,
                row.a.1,
                row.a.0,
                row.a.2,
                va.len(),
                row.b.1,
                row.b.0,
                row.b.2,
                vb.len(),
                100.0 * row.worsening,
                100.0 * row.spread_a,
                100.0 * def.bound,
                row.verdict.label()
            );
            rows.push((name.to_string(), def, row));
        }
    }
    if rows.is_empty() {
        return Err("the two sides share no workload".into());
    }
    println!("B worse = relative change of the median in the metric's bad direction (negative: B is better)");
    Ok(rows)
}

/// Two interleaved sets (A B A B …) of [`AA_RUNS_PER_SIDE`] runs per
/// workload of this same executable, then `compare`. Fails unless every
/// end-to-end metric's medians agree within half its bound.
pub fn aa(out: &Path, seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (a_dir, b_dir) = (out.join("a"), out.join("b"));
    for dir in [&a_dir, &b_dir] {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    for name in workload::NAMES {
        for run in 0..AA_RUNS_PER_SIDE {
            for dir in [&a_dir, &b_dir] {
                let file = dir.join(format!("{name}.{run}.json"));
                eprintln!("aa: {name} run {run} -> {}", file.display());
                let output = Command::new(&exe)
                    .args([
                        "run",
                        "--workload",
                        name,
                        "--seed",
                        &seed.to_string(),
                        "--out",
                    ])
                    .arg(&file)
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !output.status.success() {
                    return Err(format!(
                        "aa: run of {name} failed:\n{}",
                        String::from_utf8_lossy(&output.stderr)
                    ));
                }
            }
        }
    }
    let rows = compare(&a_dir, &b_dir)?;
    println!("\nA/A deviation of medians against half of each bound:");
    let mut worst: Vec<String> = Vec::new();
    for (workload, def, row) in &rows {
        let deviation = row.worsening.abs();
        let ok = deviation <= def.bound / 2.0;
        println!(
            "{:<14} {:<17} deviation {:>6.2}%  half-bound {:>5.2}%  {}",
            workload,
            def.name,
            100.0 * deviation,
            50.0 * def.bound,
            if ok { "ok" } else { "TOO NOISY" }
        );
        if !ok {
            worst.push(format!("{workload}/{}", def.name));
        }
    }
    if worst.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "aa: same build disagrees with itself beyond half the bound on {}",
            worst.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn verdicts() {
        let def = |better| MetricDef {
            name: "m",
            unit: "ms",
            better,
            bound: 0.05,
        };
        let (lower, higher) = (&def(Better::Lower), &def(Better::Higher));
        let v = |a: &[f64], b: &[f64], d| judge(a, b, d).unwrap().verdict;
        let tight = [100.0, 100.5, 101.0];
        assert_eq!(v(&tight, &[100.2, 100.6, 100.9], lower), Verdict::Unchanged);
        assert_eq!(v(&tight, &[108.0, 108.5, 109.0], lower), Verdict::Regressed);
        // The same numbers read the other way round for a higher-is-better
        // metric.
        assert_eq!(v(&tight, &[90.0, 90.5, 91.0], higher), Verdict::Regressed);
        // A gain needs ten runs a side: three are not enough to know A's
        // spread.
        assert_eq!(v(&tight, &[90.0, 90.5, 91.0], lower), Verdict::Unchanged);
        let ten =
            |centre: f64| -> Vec<f64> { (0..10).map(|i| centre + 0.1 * f64::from(i)).collect() };
        assert_eq!(v(&ten(100.0), &ten(90.0), lower), Verdict::Improved);
        assert_eq!(v(&ten(100.0), &ten(108.0), higher), Verdict::Improved);
        assert_eq!(v(&ten(100.0), &ten(100.2), lower), Verdict::Unchanged);
        // A's own runs spread over 20 %: overlapping sides cannot be told
        // apart, but a B entirely beyond A's range still can.
        let wide = [90.0, 100.0, 110.0];
        assert_eq!(v(&wide, &[95.0, 104.0, 112.0], lower), Verdict::Unresolved);
        assert_eq!(v(&wide, &[120.0, 125.0, 130.0], lower), Verdict::Regressed);
        let row = judge(&tight, &[108.0, 108.5, 109.0], lower).unwrap();
        assert!((row.worsening - 0.0796).abs() < 1e-3, "{}", row.worsening);
    }
}
