//! Golden tests: each known-bad fixture under `fixtures/` must produce
//! exactly the expected `(rule, line)` findings, the allow-directive
//! fixture must lint clean, and the live workspace itself must be clean
//! (which also proves the telemetry-names bijection holds on the real
//! tree). The binary's exit-code contract is checked end to end against a
//! synthesized bad workspace.

use atom_lint::rules::lock_order::LockEdge;
use atom_lint::{
    lint_file, lint_workspace, lock_cycle_findings, CrossFileState, FileCtx, FileKind, NamesTable,
    RULE_ACCUMULATOR_WIDTH, RULE_DIRECTIVE, RULE_LOCK_ORDER, RULE_LOSSY_CAST, RULE_TELEMETRY_NAMES,
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
        (RULE_DIRECTIVE, 11), // unknown rule (a retired one: clippy holds it now)
        (RULE_DIRECTIVE, 16), // stale: suppresses nothing
    ];
    assert_eq!(got, want, "findings: {got:?}");
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
    let src = fixture("allow_ok.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let (_, state) = run_state(&src, &ctx, None);
    assert_eq!(state.allows.len(), 3, "allows: {:?}", state.allows);
    let a = &state.allows[0];
    assert_eq!(a.rules, vec!["lossy-cast".to_string()]);
    assert!(
        a.reason.contains("loop counter"),
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

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
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
/// an unused constant, and checks the library report and the binary's
/// contract against it: exit code 1, findings on stdout, and the tree it
/// was pointed at left exactly as it was.
#[test]
fn binary_exit_codes() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("atom-lint-golden");
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
        "pub fn f(x: i64) -> i8 {\n    x as i8\n}\n",
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
        rules.contains(&RULE_LOSSY_CAST),
        "missing lossy-cast finding: {rules:?}"
    );
    assert!(
        rules.contains(&RULE_TELEMETRY_NAMES),
        "missing unused-name finding: {rules:?}"
    );

    let before = tree_listing(&dir);
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
        stdout.contains("lossy-cast"),
        "stdout should name the rule: {stdout}"
    );
    assert!(!dir.join("results").exists(), "atom-lint must not write a report");
    assert_eq!(tree_listing(&dir), before, "atom-lint must leave its --root untouched");

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

/// Every file under `dir` with its contents, sorted by path.
fn tree_listing(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read file");
                out.push((path, bytes));
            }
        }
    }
    out.sort();
    out
}
