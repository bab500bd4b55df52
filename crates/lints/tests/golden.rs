//! Golden tests: each known-bad fixture under `fixtures/` must produce
//! exactly the expected `(rule, line)` findings, the allow-directive
//! fixture must lint clean, and the live workspace itself must be clean
//! (which also proves the telemetry-names bijection holds on the real
//! tree). The binary's exit-code contract is checked end to end against a
//! synthesized bad workspace.

use atom_lint::ratchet::Baseline;
use atom_lint::rules::lock_order::LockEdge;
use atom_lint::{
    lint_file, lint_workspace, lock_cycle_findings, CrossFileState, FileCtx, FileKind, NamesTable,
    RULE_ACCUMULATOR_WIDTH, RULE_DIRECTIVE, RULE_LOCK_ORDER, RULE_LOSSY_CAST, RULE_PANIC_FREEDOM,
    RULE_TELEMETRY_NAMES, RULE_TIME_ENTROPY, RULE_UNORDERED_ITERATION, RULE_UNSAFE_CONTAINMENT,
};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn ctx(crate_name: &str, path: &str, kind: FileKind) -> FileCtx {
    FileCtx {
        crate_name: crate_name.into(),
        path: path.into(),
        kind,
    }
}

/// Runs the linter on a fixture and returns `(rule, line)` pairs.
fn run(source: &str, ctx: &FileCtx, names: Option<&NamesTable>) -> Vec<(&'static str, usize)> {
    run_state(source, ctx, names).0
}

/// Like [`run`], but also returns the cross-file state (used names, lock
/// edges, allow inventory) the file contributed.
fn run_state(
    source: &str,
    ctx: &FileCtx,
    names: Option<&NamesTable>,
) -> (Vec<(&'static str, usize)>, CrossFileState) {
    let mut state = CrossFileState::default();
    let findings = lint_file(ctx, source, names, &mut state)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect();
    (findings, state)
}

#[test]
fn panic_freedom_fixture() {
    let src = fixture("panic_freedom_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    let want = vec![
        (RULE_PANIC_FREEDOM, 5),  // x.unwrap()
        (RULE_PANIC_FREEDOM, 9),  // x.expect("present")
        (RULE_PANIC_FREEDOM, 13), // panic!
        (RULE_PANIC_FREEDOM, 17), // todo!
        (RULE_PANIC_FREEDOM, 21), // v[i]
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn panic_freedom_is_scoped_to_hot_crates() {
    // The same source in a crate outside the panic-freedom scope (e.g.
    // atom-nn) must produce no panic-freedom findings.
    let src = fixture("panic_freedom_bad.rs");
    let ctx = ctx("atom-nn", "crates/nn/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    assert!(
        got.iter().all(|(r, _)| *r != RULE_PANIC_FREEDOM),
        "out-of-scope crate flagged: {got:?}"
    );
}

#[test]
fn lossy_cast_fixture() {
    let src = fixture("lossy_cast_bad.rs");
    let ctx = ctx("atom-nn", "crates/nn/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    let want = vec![
        (RULE_LOSSY_CAST, 5), // x as i8
        (RULE_LOSSY_CAST, 9), // n as f32
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn telemetry_names_fixture() {
    let src = fixture("telemetry_names_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let mut names = NamesTable {
        path: "crates/telemetry/src/names.rs".into(),
        ..NamesTable::default()
    };
    names
        .consts
        .insert("GOOD".into(), ("good.metric".into(), 1));
    // Pool instrumentation names from the atom-parallel crate: declared
    // here so their fixture usages lint clean and register as recorded.
    names
        .consts
        .insert("SPAN_POOL_WORKER".into(), ("pool_worker".into(), 2));
    names.consts.insert(
        "POOL_UTILIZATION_PERMILLE".into(),
        ("pool.utilization_permille".into(), 3),
    );
    let (got, state) = run_state(&src, &ctx, Some(&names));
    let want = vec![
        (RULE_TELEMETRY_NAMES, 6),  // literal metric name
        (RULE_TELEMETRY_NAMES, 10), // literal span name
        (RULE_TELEMETRY_NAMES, 14), // names::NOT_DECLARED
    ];
    assert_eq!(got, want, "findings: {got:?}");
    // The usage scan must register both referenced constants.
    let used = &state.used_names;
    assert!(used.contains(&"GOOD".to_string()));
    assert!(used.contains(&"NOT_DECLARED".to_string()));
    // The pool span/histogram usages lint clean AND count as recorded, so
    // the workspace bijection check knows atom-parallel covers its names.
    assert!(used.contains(&"SPAN_POOL_WORKER".to_string()));
    assert!(used.contains(&"POOL_UTILIZATION_PERMILLE".to_string()));
}

#[test]
fn pool_telemetry_names_are_recorded_by_parallel_crate() {
    // Guards the tentpole's observability contract: every `pool.*` metric
    // and the worker span declared in `telemetry::names` must be recorded
    // by production code in `crates/parallel` (the workspace-clean check
    // would fail with an unused-name finding otherwise; this test pins the
    // expectation explicitly so a rename in either place is caught here).
    let report = lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(report.findings.is_empty(), "workspace must be clean");
    let names_src = std::fs::read_to_string(workspace_root().join("crates/telemetry/src/names.rs"))
        .expect("names table readable");
    let pool_src = std::fs::read_to_string(workspace_root().join("crates/parallel/src/lib.rs"))
        .expect("pool source readable");
    for name in [
        "POOL_TASKS",
        "POOL_QUEUE_DEPTH",
        "POOL_UTILIZATION_PERMILLE",
        "POOL_REGION_WALL_NS",
        "SPAN_POOL_WORKER",
    ] {
        assert!(names_src.contains(name), "{name} missing from names table");
        assert!(pool_src.contains(name), "{name} not recorded by the pool");
    }
}

#[test]
fn unsafe_containment_fixture() {
    let src = fixture("unsafe_containment_bad.rs");
    let ctx = ctx("atom-badlib", "crates/bad/src/lib.rs", FileKind::LibRoot);
    let got = run(&src, &ctx, None);
    let want = vec![(RULE_UNSAFE_CONTAINMENT, 1)]; // missing #![forbid(unsafe_code)]
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn well_formed_allows_suppress_cleanly() {
    let src = fixture("allow_ok.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    assert!(got.is_empty(), "expected clean, got: {got:?}");
}

#[test]
fn malformed_and_stale_allows_are_findings() {
    let src = fixture("allow_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    let want = vec![
        (RULE_DIRECTIVE, 6),  // missing reason
        (RULE_DIRECTIVE, 11), // unknown rule
        (RULE_DIRECTIVE, 16), // stale: suppresses nothing
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn unordered_iteration_fixture() {
    let src = fixture("unordered_iteration_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    let want = vec![
        (RULE_UNORDERED_ITERATION, 10), // for (_, v) in &m
        (RULE_UNORDERED_ITERATION, 17), // m.values() with no escape
        (RULE_UNORDERED_ITERATION, 21), // s.drain()
        (RULE_UNORDERED_ITERATION, 25), // m.retain(..)
    ];
    // The sorted-collect, BTreeMap-rekey, reduction, point-lookup, allow,
    // and #[cfg(test)] shapes must all stay clean.
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn unordered_iteration_is_scoped_to_deterministic_crates() {
    // Same source in a crate outside the deterministic scope (telemetry's
    // registries are keyed stores, not gated outputs) must not be flagged.
    let src = fixture("unordered_iteration_bad.rs");
    let ctx = ctx(
        "atom-telemetry",
        "crates/telemetry/src/fixture.rs",
        FileKind::Src,
    );
    let got = run(&src, &ctx, None);
    assert!(
        got.iter().all(|(r, _)| *r != RULE_UNORDERED_ITERATION),
        "out-of-scope crate flagged: {got:?}"
    );
}

#[test]
fn time_entropy_fixture() {
    let src = fixture("time_entropy_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    let want = vec![
        (RULE_TIME_ENTROPY, 9),  // Instant::now()
        (RULE_TIME_ENTROPY, 13), // SystemTime::now()
        (RULE_TIME_ENTROPY, 17), // UNIX_EPOCH
        (RULE_TIME_ENTROPY, 21), // std::env::var
        (RULE_TIME_ENTROPY, 25), // thread_rng()
    ];
    // Storing an Instant, the justified allow, and the #[cfg(test)] read
    // must all stay clean.
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn time_entropy_exempts_telemetry_crate() {
    let src = fixture("time_entropy_bad.rs");
    let ctx = ctx(
        "atom-telemetry",
        "crates/telemetry/src/fixture.rs",
        FileKind::Src,
    );
    let got = run(&src, &ctx, None);
    assert!(
        got.iter().all(|(r, _)| *r != RULE_TIME_ENTROPY),
        "telemetry crate flagged: {got:?}"
    );
}

#[test]
fn time_entropy_env_allowlist_is_per_file() {
    // The audited config entry point may read env vars, but its wall-clock
    // reads are still findings — the allowlist covers `env::var` only.
    let src = fixture("time_entropy_bad.rs");
    let ctx = ctx("atom-parallel", "crates/parallel/src/lib.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    assert!(
        got.iter().all(|&(r, l)| r != RULE_TIME_ENTROPY || l != 21),
        "audited file's env read flagged: {got:?}"
    );
    assert!(
        got.contains(&(RULE_TIME_ENTROPY, 9)),
        "audited file's wall-clock read must still be flagged: {got:?}"
    );
}

#[test]
fn lock_order_fixture() {
    let src = fixture("lock_order_bad.rs");
    let ctx = ctx("atom-badlock", "crates/bad/src/fixture.rs", FileKind::Src);
    let (got, state) = run_state(&src, &ctx, None);
    // Only the undocumented nested acquisition is a finding; the
    // documented site and the sequential statement-scoped temporaries are
    // clean.
    let want = vec![(RULE_LOCK_ORDER, 17)];
    assert_eq!(got, want, "findings: {got:?}");
    // Both nested sites (documented or not) contribute a→b graph edges.
    let edges: Vec<(&str, &str, usize)> = state
        .lock_edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str(), e.line))
        .collect();
    assert_eq!(
        edges,
        vec![
            ("atom-badlock::a", "atom-badlock::b", 17),
            ("atom-badlock::a", "atom-badlock::b", 24),
        ],
        "edges: {edges:?}"
    );
}

#[test]
fn lock_cycle_detection() {
    let edge = |from: &str, to: &str, file: &str, line: usize| LockEdge {
        from: from.into(),
        to: to.into(),
        file: file.into(),
        line,
    };
    // Acyclic graph: no findings, however many edges agree on the order.
    let acyclic = [
        edge("t::counters", "t::gauges", "a.rs", 10),
        edge("t::counters", "t::gauges", "b.rs", 20),
        edge("t::gauges", "t::histograms", "a.rs", 11),
    ];
    assert!(lock_cycle_findings(&acyclic).is_empty());

    // Two files disagreeing on the order is a cycle, reported once.
    let cyclic = [
        edge("t::a", "t::b", "first.rs", 5),
        edge("t::b", "t::a", "second.rs", 9),
    ];
    let got = lock_cycle_findings(&cyclic);
    assert_eq!(got.len(), 1, "cycle findings: {got:?}");
    assert_eq!(got[0].rule, RULE_LOCK_ORDER);
    assert!(
        got[0].message.contains("t::a") && got[0].message.contains("t::b"),
        "cycle message should name both locks: {}",
        got[0].message
    );

    // Re-acquiring the same lock while it is held is a self-deadlock.
    let reentrant = [edge("t::m", "t::m", "r.rs", 3)];
    let got = lock_cycle_findings(&reentrant);
    assert_eq!(got.len(), 1, "self-deadlock findings: {got:?}");
}

#[test]
fn allow_inventory_records_reason_and_suppression_count() {
    let src = fixture("unordered_iteration_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let (_, state) = run_state(&src, &ctx, None);
    assert_eq!(state.allows.len(), 1, "allows: {:?}", state.allows);
    let a = &state.allows[0];
    assert_eq!(a.rules, vec!["unordered-iteration".to_string()]);
    assert!(
        a.reason.contains("order-insensitive"),
        "reason captured: {:?}",
        a.reason
    );
    assert_eq!(a.suppressed, 1, "directive must suppress exactly one finding");
}

#[test]
fn accumulator_width_fixture() {
    // The cited-and-asserted reduction, the cited loop accumulation, the
    // `+=` outside any loop, the float sums and the #[cfg(test)] body stay
    // clean; every other `i32`/`i64` reduction is a finding.
    let src = fixture("accumulator_width_bad.rs");
    let ctx = ctx("atom-kernels", "crates/kernels/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    let want = vec![
        (RULE_ACCUMULATOR_WIDTH, 19), // missing: no bound comment
        (RULE_ACCUMULATOR_WIDTH, 27), // unasserted: no assertion mentions the name
        (RULE_ACCUMULATOR_WIDTH, 34), // detached: blank line below the comment
        (RULE_ACCUMULATOR_WIDTH, 42), // loop `+=` on an i64 local, no comment
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn accumulator_width_is_scoped_to_hot_crates() {
    let src = fixture("accumulator_width_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx, None);
    assert!(
        got.iter().all(|(r, _)| *r != RULE_ACCUMULATOR_WIDTH),
        "out-of-scope crate flagged: {got:?}"
    );
}

/// The rule bites on the real kernel, not only on a fixture: the live
/// `gemm.rs` is clean, has exactly four findings when its four
/// `// bound:` lines are blanked, and the same four once the assertions
/// name a different constant.
#[test]
fn accumulator_width_flags_live_gemm_without_its_citations() {
    let path = "crates/kernels/src/gemm.rs";
    let live = std::fs::read_to_string(workspace_root().join(path)).expect("gemm.rs readable");
    let ctx = ctx("atom-kernels", path, FileKind::Src);
    assert_eq!(run(&live, &ctx, None), vec![], "live gemm.rs is clean");

    // Blank the lines (rather than drop them) so line numbers still match.
    let is_citation = |l: &str| l.trim_start().starts_with("// bound:");
    let blank = |l| if is_citation(l) { "" } else { l };
    let stripped: Vec<&str> = live.lines().map(blank).collect();
    let got = run(&stripped.join("\n"), &ctx, None);
    // Each finding sits on the statement directly below its citation.
    let cited = (1..).zip(live.lines()).filter(|(_, l)| is_citation(l));
    let below = |(n, _): (usize, _)| (RULE_ACCUMULATOR_WIDTH, n + 1);
    let want: Vec<_> = cited.map(below).collect();
    assert_eq!(want.len(), 4, "gemm.rs has four i32 reductions");
    assert_eq!(got, want, "findings: {got:?}");

    let renamed = live.replace("assert!((MAX_ACC_K", "assert!((OTHER_K");
    let got = run(&renamed, &ctx, None);
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn sarif_export_has_schema_rules_and_results() {
    let report = lint_workspace(&workspace_root()).expect("workspace lints");
    let sarif = report.to_sarif();
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("sarif-schema-2.1.0.json"));
    assert!(sarif.contains("\"name\": \"atom-lint\""));
    // Every reportable rule is declared in the driver with a description.
    for rule in atom_lint::REPORTABLE_RULES {
        assert!(
            sarif.contains(&format!("\"id\": \"{rule}\"")),
            "missing SARIF rule {rule}"
        );
    }
    assert!(sarif.contains("\"shortDescription\""));
    // Clean tree: the results array is present and empty.
    assert!(sarif.contains("\"results\": ["));
    assert!(!sarif.contains("\"ruleId\""));
}

#[test]
fn sarif_results_carry_location_and_level() {
    // A synthetic one-finding report must serialize the full result shape
    // GitHub code scanning needs: ruleId, level, message, and a physical
    // location with uri + startLine.
    let report = atom_lint::WorkspaceReport {
        findings: vec![atom_lint::Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: RULE_ACCUMULATOR_WIDTH,
            message: "demo \"quoted\" message".into(),
        }],
        files_checked: 1,
        allows: vec![],
    };
    let sarif = report.to_sarif();
    assert!(sarif.contains(&format!("\"ruleId\": \"{RULE_ACCUMULATOR_WIDTH}\"")));
    assert!(sarif.contains("\"level\": \"error\""));
    assert!(sarif.contains("\"uri\": \"crates/x/src/lib.rs\""));
    assert!(sarif.contains("\"startLine\": 7"));
    // Quotes in messages must be escaped, not break the document.
    assert!(sarif.contains("demo \\\"quoted\\\" message"));
}

#[test]
fn ratchet_baseline_matches_live_tree_and_detects_drift() {
    // The committed baseline must describe the current tree exactly: a
    // stale baseline would either block the build (regression) or silently
    // under-ratchet (improvement never shrunk).
    let report = lint_workspace(&workspace_root()).expect("workspace lints");
    let current = Baseline::from_report(&report);
    let committed = std::fs::read_to_string(workspace_root().join("results/lint_baseline.json"))
        .expect("committed baseline readable");
    let committed = Baseline::parse(&committed).expect("committed baseline parses");
    let out = committed.check(&current);
    assert!(
        out.regressions.is_empty() && !out.improved,
        "committed baseline out of date: regressions {:?}, improved {}",
        out.regressions,
        out.improved
    );

    // A new finding anywhere regresses against that same baseline.
    let mut worse = report;
    worse.findings.push(atom_lint::Finding {
        file: "crates/x/src/lib.rs".into(),
        line: 1,
        rule: RULE_ACCUMULATOR_WIDTH,
        message: "synthetic".into(),
    });
    let out = committed.check(&Baseline::from_report(&worse));
    assert_eq!(out.regressions.len(), 1, "regressions: {:?}", out.regressions);
    assert_eq!(out.regressions[0].rule, RULE_ACCUMULATOR_WIDTH);
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn report_json_has_schema_rule_counts_and_allow_inventory() {
    let report = lint_workspace(&workspace_root()).expect("workspace lints");
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"atom-lint-report/v2\""));
    // Every reportable rule appears in the counts object even at zero.
    for rule in atom_lint::REPORTABLE_RULES {
        assert!(json.contains(&format!("\"{rule}\":")), "missing count for {rule}");
    }
    // The allow inventory is present with reasons and suppression counts.
    assert!(!report.allows.is_empty(), "live tree has allow directives");
    assert!(json.contains("\"allow_directives\""));
    assert!(json.contains("\"suppressed\""));
    assert!(
        report.allows.iter().all(|a| !a.reason.is_empty()),
        "every live allow carries a reason"
    );
    // Counts reconcile with the findings list (clean tree: all zeros).
    let total: usize = report.rule_counts().values().sum();
    assert_eq!(total, report.findings.len());
}

#[test]
fn live_workspace_is_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_checked > 50,
        "suspiciously few files checked: {}",
        report.files_checked
    );
}

/// Builds a throwaway workspace with one bad crate and a names table with
/// an unused constant, and checks both the library report and the binary's
/// exit-code contract against it.
#[test]
fn binary_exit_codes() {
    let dir = std::env::temp_dir().join(format!("atom-lint-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/bad/src")).expect("mkdir bad");
    std::fs::create_dir_all(dir.join("crates/telemetry/src")).expect("mkdir telemetry");
    std::fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/bad\"]\n",
    )
    .expect("write root manifest");
    std::fs::write(
        dir.join("crates/bad/Cargo.toml"),
        "[package]\nname = \"atom-badlib\"\nversion = \"0.0.0\"\n",
    )
    .expect("write bad manifest");
    std::fs::write(
        dir.join("crates/bad/src/lib.rs"),
        "pub fn f(x: u32) -> f32 {\n    unsafe { std::mem::transmute(x) }\n}\n",
    )
    .expect("write bad lib");
    std::fs::write(
        dir.join("crates/telemetry/src/names.rs"),
        "pub const NEVER_RECORDED: &str = \"never.recorded\";\n",
    )
    .expect("write names table");

    let report = lint_workspace(&dir).expect("lint synthesized workspace");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(
        rules.contains(&RULE_UNSAFE_CONTAINMENT),
        "missing unsafe finding: {rules:?}"
    );
    assert!(
        rules.contains(&RULE_TELEMETRY_NAMES),
        "missing unused-name finding: {rules:?}"
    );

    let bin = env!("CARGO_BIN_EXE_atom-lint");
    let bad = std::process::Command::new(bin)
        .args(["--root", dir.to_str().expect("utf8 temp path")])
        .output()
        .expect("run atom-lint on bad tree");
    assert!(
        !bad.status.success(),
        "expected non-zero exit on violations"
    );
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("unsafe-containment"),
        "stdout should name the rule: {stdout}"
    );

    let good = std::process::Command::new(bin)
        .args(["--root", workspace_root().to_str().expect("utf8 root")])
        .output()
        .expect("run atom-lint on real tree");
    assert!(
        good.status.success(),
        "real workspace must be clean; stdout:\n{}",
        String::from_utf8_lossy(&good.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
