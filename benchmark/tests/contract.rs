//! The contract between `BENCHMARK.json` and the program: the file at the
//! repository root and the binary's output must name the same workloads and
//! metrics, and a `--quick` run of every workload must print a well-formed
//! result line.

use std::path::PathBuf;
use std::process::Command;

use atom_benchmark::json::{self, Value};
use atom_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use atom_benchmark::{workload, RUN_SECONDS};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn strings(v: &Value) -> Vec<&str> {
    v.as_arr()
        .expect("an array")
        .iter()
        .map(|s| s.as_str().expect("a string"))
        .collect()
}

#[test]
fn benchmark_json_has_exactly_the_contracts_keys() {
    let file = benchmark_json();
    assert_eq!(
        keys(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        strings(file.get("command").unwrap()),
        ["bash", "benchmark/run.sh"]
    );
    assert_eq!(strings(file.get("paths").unwrap()), ["benchmark"]);
    assert_eq!(
        file.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS as f64)
    );
}

#[test]
fn benchmark_json_names_the_programs_workloads() {
    let file = benchmark_json();
    let listed = file
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert_eq!(listed.len(), workload::NAMES.len());
    for (entry, name) in listed.iter().zip(workload::NAMES) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(name));
        let why = entry.get("why").and_then(Value::as_str).expect("why");
        assert_eq!(why, workload::why(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: one line of at most 200 characters"
        );
    }
}

fn assert_metrics_match(listed: &[Value], defs: &[MetricDef], with_bound: bool) {
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        let want_keys: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(entry), want_keys, "{}", def.name);
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(def.better.label()),
            "{}",
            def.name
        );
        if with_bound {
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
    }
}

#[test]
fn benchmark_json_declares_the_programs_metrics() {
    let file = benchmark_json();
    assert_metrics_match(
        file.get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end"),
        END_TO_END,
        true,
    );
    assert_metrics_match(
        file.get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer"),
        PER_LAYER,
        false,
    );
}

/// Runs the real binary with `--quick` and returns the parsed last line of
/// its standard output.
fn quick_run(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_atom-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            trace,
            "--quick",
        ])
        .env("ATOM_THREADS", "1")
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        stdout.contains(&format!("workload        {workload} ")),
        "the report names its workload"
    );
    json::parse(stdout.lines().last().expect("a last line"))
        .expect("the last line is one JSON object")
}

fn assert_result_line(result: &Value, defs: &[MetricDef]) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    let attempted = result
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "no operation fails on any workload"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(
        printed, declared,
        "printed metric names equal the declared ones"
    );
    for ((name, m), def) in metrics.iter().zip(defs) {
        assert_eq!(keys(m), ["value", "unit"], "{name}");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{name} has a value"
        );
    }
}

#[test]
fn quick_end_to_end_run_of_every_workload_prints_the_declared_metrics() {
    for name in workload::NAMES {
        assert_result_line(&quick_run(name, "0"), END_TO_END);
    }
}

#[test]
fn quick_traced_run_prints_every_per_layer_metric_and_a_trace_file() {
    let result = quick_run("mixed_burst", "1");
    assert_result_line(&result, PER_LAYER);
    let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/mixed_burst.trace.json");
    let text =
        std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
    let events = json::parse(&text).expect("the trace file is JSON");
    let events = events
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents");
    let spans = result
        .get("metrics")
        .and_then(|m| m.get("trace.spans"))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .expect("trace.spans");
    assert!(spans > 100.0);
    for layer in [
        "gateway.tick",
        "gateway.offer",
        "nn.forward",
        "core.qlinear",
        "core.kv_append",
        "core.kv_keys",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(layer)),
            "the trace holds {layer} spans"
        );
    }
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_does_not() {
    let digest_of = |seed: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_atom-benchmark"))
            .args([
                "run",
                "--workload",
                "shared_prefix",
                "--seed",
                seed,
                "--quick",
            ])
            .env("ATOM_THREADS", "1")
            .output()
            .expect("the benchmark binary runs");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        let line = |prefix: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("no {prefix} line"))
                .to_string()
        };
        // Trace digest, tick and request counts, and the digest of every
        // token stream: all tick-domain, all exactly repeatable.
        (line("workload "), line("requests "), line("streams "))
    };
    let (a, b, c) = (digest_of("42"), digest_of("42"), digest_of("43"));
    assert_eq!(a, b);
    assert_ne!(a.0, c.0, "another seed offers another trace");
    assert_ne!(a.2, c.2, "and gets other token streams back");
    assert_eq!(
        a.1, c.1,
        "while the schedule, and so every count, stays the workload's"
    );
}
