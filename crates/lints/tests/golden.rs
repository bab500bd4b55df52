//! Golden tests: each known-bad fixture under `fixtures/` must produce
//! exactly the expected `(rule, line)` findings, the allow-directive
//! fixture must lint clean, and the live workspace itself must be clean.
//! The binary's exit-code contract is checked end to end against a
//! synthesized bad workspace.

use atom_lint::{
    lint_file, lint_workspace, AllowRecord, FileCtx, FileKind, RULE_ACCUMULATOR_WIDTH,
    RULE_DIRECTIVE, RULE_LOSSY_CAST,
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
fn run(source: &str, ctx: &FileCtx) -> Vec<(&'static str, usize)> {
    run_with_allows(source, ctx).0
}

/// Like [`run`], but also returns the allow inventory the file contributed.
fn run_with_allows(source: &str, ctx: &FileCtx) -> (Vec<(&'static str, usize)>, Vec<AllowRecord>) {
    let mut allows = Vec::new();
    let findings = lint_file(ctx, source, &mut allows)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect();
    (findings, allows)
}

#[test]
fn lossy_cast_fixture() {
    let src = fixture("lossy_cast_bad.rs");
    let ctx = ctx("atom-nn", "crates/nn/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx);
    let want = vec![
        (RULE_LOSSY_CAST, 5), // x as i8
        (RULE_LOSSY_CAST, 9), // n as f32
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn well_formed_allows_suppress_cleanly() {
    let src = fixture("allow_ok.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx);
    assert!(got.is_empty(), "expected clean, got: {got:?}");
}

#[test]
fn malformed_and_stale_allows_are_findings() {
    let src = fixture("allow_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx);
    let want = vec![
        (RULE_DIRECTIVE, 6),  // missing reason
        (RULE_DIRECTIVE, 11), // unknown rule (a retired one: clippy holds it now)
        (RULE_DIRECTIVE, 21), // unknown rule (retired: the name types hold it)
        (RULE_DIRECTIVE, 16), // stale: suppresses nothing (reported last)
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn allow_inventory_records_reason_and_suppression_count() {
    let src = fixture("allow_ok.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let (_, allows) = run_with_allows(&src, &ctx);
    assert_eq!(allows.len(), 3, "allows: {allows:?}");
    let a = &allows[0];
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
    let got = run(&src, &ctx);
    let want = vec![
        (RULE_ACCUMULATOR_WIDTH, 19), // missing: no bound comment
        (RULE_ACCUMULATOR_WIDTH, 27), // unasserted: no assertion mentions the name
        (RULE_ACCUMULATOR_WIDTH, 34), // detached: blank line below the comment
        (RULE_ACCUMULATOR_WIDTH, 42), // loop `+=` on an i64 local, no comment
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn accumulator_width_flags_bare_i16_lane_sums() {
    // A `.wrapping_add` on an `i16` binding and a loop `+=` into an
    // `[i16; N]` lane each need a citation; the cited ones and the `i32`
    // wrapping add outside a loop stay clean.
    let src = fixture("accumulator_width_i16_bad.rs");
    let ctx = ctx("atom-kernels", "crates/kernels/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx);
    let want = vec![
        (RULE_ACCUMULATOR_WIDTH, 10), // bare `sum.wrapping_add`
        (RULE_ACCUMULATOR_WIDTH, 24), // bare `s[c] +=` in a loop
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn accumulator_width_flags_bare_saturating_i16_lane_sums() {
    // A `.saturating_add` on an `i16` binding or an `[i16; N]` lane clamps
    // where a wrapping one would wrap: each needs a citation too; the
    // cited one and the `i32` saturating add stay clean.
    let src = fixture("accumulator_width_i16_saturating_bad.rs");
    let ctx = ctx("atom-kernels", "crates/kernels/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx);
    let want = vec![
        (RULE_ACCUMULATOR_WIDTH, 10), // bare `sum.saturating_add`
        (RULE_ACCUMULATOR_WIDTH, 24), // bare `s[c].saturating_add` on a lane array
    ];
    assert_eq!(got, want, "findings: {got:?}");
}

#[test]
fn accumulator_width_is_scoped_to_hot_crates() {
    let src = fixture("accumulator_width_bad.rs");
    let ctx = ctx("atom-serve", "crates/serve/src/fixture.rs", FileKind::Src);
    let got = run(&src, &ctx);
    assert!(
        got.iter().all(|(r, _)| *r != RULE_ACCUMULATOR_WIDTH),
        "out-of-scope crate flagged: {got:?}"
    );
}

/// The rule bites on the real kernel, not only on a fixture: the live
/// `gemm.rs` is clean, has exactly two findings when its two `// bound:`
/// lines are blanked (the reference's `i32` reduction and the panel loop's
/// `i16` lane sum), and the same two once the assertions name different
/// constants.
#[test]
fn accumulator_width_flags_live_gemm_without_its_citations() {
    let path = "crates/kernels/src/gemm.rs";
    let live = std::fs::read_to_string(workspace_root().join(path)).expect("gemm.rs readable");
    let ctx = ctx("atom-kernels", path, FileKind::Src);
    assert_eq!(run(&live, &ctx), vec![], "live gemm.rs is clean");

    // Blank the lines (rather than drop them) so line numbers still match.
    let is_citation = |l: &str| l.trim_start().starts_with("// bound:");
    let blank = |l| if is_citation(l) { "" } else { l };
    let stripped: Vec<&str> = live.lines().map(blank).collect();
    let got = run(&stripped.join("\n"), &ctx);
    // Each finding sits on the statement directly below its citation.
    let cited = (1..).zip(live.lines()).filter(|(_, l)| is_citation(l));
    let below = |(n, _): (usize, _)| (RULE_ACCUMULATOR_WIDTH, n + 1);
    let want: Vec<_> = cited.map(below).collect();
    assert_eq!(want.len(), 2, "gemm.rs has one i32 reduction (the reference's) and one i16 lane sum");
    assert_eq!(got, want, "findings: {got:?}");

    let rename = |l: &str| match l.starts_with("const _: () =") {
        true => l.replace("MAX_ACC_K", "OTHER_K").replace("I16_LANE_BOUND", "OTHER_BOUND"),
        false => l.to_string(),
    };
    let renamed: Vec<String> = live.lines().map(rename).collect();
    let renamed = renamed.join("\n");
    let got = run(&renamed, &ctx);
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

/// Builds a throwaway workspace with one bad crate and checks the library
/// report and the binary's contract against it: exit code 1, findings on
/// stdout, and the tree it was pointed at left exactly as it was.
#[test]
fn binary_exit_codes() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("atom-lint-golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/bad/src")).expect("mkdir bad");
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

    let report = lint_workspace(&dir).expect("lint synthesized workspace");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, [RULE_LOSSY_CAST], "findings: {rules:?}");

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
