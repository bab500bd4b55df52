//! `cargo run -p atom-lint` — walk the workspace, enforce the repo
//! invariants, print findings as `file:line: rule: message`, and exit
//! non-zero if anything is wrong. Reads the tree, writes nothing.
//!
//! Usage: `atom-lint [--root <workspace-root>] [--rule <name>]`.
//!
//! * `--root` — workspace root (auto-detected from the current directory
//!   otherwise).
//! * `--rule <name>` — run the full pass but report (and gate on) a single
//!   rule, to bisect one rule family in isolation.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut rule: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--rule" => rule = args.next(),
            "--help" | "-h" => {
                println!("atom-lint [--root <workspace-root>] [--rule <name>]");
                println!("rules: {}", atom_lint::REPORTABLE_RULES.join(", "));
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("atom-lint: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(r) = &rule {
        if !atom_lint::REPORTABLE_RULES.contains(&r.as_str()) {
            eprintln!(
                "atom-lint: unknown rule `{r}` (rules: {})",
                atom_lint::REPORTABLE_RULES.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }
    let root = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| atom_lint::find_workspace_root(&d))
    });
    let Some(root) = root else {
        eprintln!("atom-lint: could not locate the workspace root (no Cargo.toml with [workspace])");
        return ExitCode::FAILURE;
    };

    let mut report = match atom_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("atom-lint: I/O error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(r) = &rule {
        report.filter_rule(r);
    }

    for f in &report.findings {
        println!("{f}");
    }
    let scope = rule.map(|r| format!(" [rule {r}]")).unwrap_or_default();
    if report.findings.is_empty() {
        eprintln!(
            "atom-lint: workspace clean{scope} ({} files checked, {} allow directives)",
            report.files_checked,
            report.allows.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "atom-lint: {} finding(s){scope} across {} files",
            report.findings.len(),
            report.files_checked
        );
        ExitCode::FAILURE
    }
}
