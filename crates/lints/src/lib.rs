//! `atom-lint` — the two workspace invariants neither rustc nor clippy
//! can state, checked over tokens. Everything the toolchain *can* hold, it
//! holds: `unsafe`, the no-panic contract of the serving crates, the
//! wall-clock / env / hash-order bans, the integer bounds and the telemetry
//! names contract are rustc and clippy lints or types (DESIGN §3.9 has the
//! one table of invariant → enforcer). What is left here:
//!
//! * [`RULE_LOSSY_CAST`] — truncating / sign-changing `as` casts stay inside
//!   the audited quantizer modules ([`rules::lossy_cast`]);
//! * [`RULE_ACCUMULATOR_WIDTH`] — every `i32`/`i64` reduction cites the
//!   `const` assertion that bounds it ([`rules::accumulator_width`]).
//!
//! Escape hatch: a violating line may carry (or be preceded by)
//! `// lint: allow(<rule>) — <reason>`. The reason is mandatory and the
//! directive must actually suppress something, or it is itself a
//! [`RULE_DIRECTIVE`] finding — stale allowances are how audit layers rot.
//! The pass reads the tree and writes nothing: findings go to stdout, the
//! verdict is the exit code.

pub mod lexer;
pub mod rules;

use lexer::{cfg_test_ranges, lex, Lexed};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule identifiers, used in reports and in `lint: allow(...)` directives.
pub const RULE_LOSSY_CAST: &str = "lossy-cast";
pub const RULE_ACCUMULATOR_WIDTH: &str = "accumulator-width";
/// Meta-rule: malformed or stale `lint:` directives.
pub const RULE_DIRECTIVE: &str = "lint-directive";

/// All enforceable rule names (directives may only name these).
pub const ALL_RULES: &[&str] = &[RULE_LOSSY_CAST, RULE_ACCUMULATOR_WIDTH];

/// Every rule name that can appear in a report: [`ALL_RULES`] plus the
/// directive meta-rule (which cannot be allowed away).
pub const REPORTABLE_RULES: &[&str] = &[RULE_LOSSY_CAST, RULE_ACCUMULATOR_WIDTH, RULE_DIRECTIVE];

/// One violation, formatted as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// What role a file plays in its crate; rules scope themselves by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A file under `src/` (library, binary roots and modules alike).
    Src,
    /// A file under `tests/` (integration tests).
    TestDir,
    /// A file under `examples/`.
    Example,
    /// A file under `benches/`.
    Bench,
}

impl FileKind {
    /// Whether the file is production code (compiled into the shipped
    /// library or binaries rather than into test/bench harnesses).
    pub fn is_production(self) -> bool {
        self == FileKind::Src
    }
}

/// Per-file context handed to every rule.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Package name from the crate's `Cargo.toml` (e.g. `atom-serve`).
    pub crate_name: String,
    /// Workspace-relative path (e.g. `crates/serve/src/engine.rs`).
    pub path: String,
    pub kind: FileKind,
}

/// A `// lint: allow(<rules>) — <reason>` directive.
#[derive(Debug)]
struct AllowDirective {
    line: usize,
    /// The line whose findings it suppresses (the directive's own line if it
    /// trails code, otherwise the next line holding code).
    target_line: usize,
    rules: Vec<String>,
    reason: String,
    suppressed: usize,
}

/// One allow directive as the pass saw it: where it sits, what it names,
/// why, and how many findings it suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRecord {
    /// Workspace-relative path of the directive.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: usize,
    /// Rule names the directive suppresses.
    pub rules: Vec<String>,
    /// The mandatory justification (empty when missing — itself a finding).
    pub reason: String,
    /// Findings actually suppressed (zero means the directive is stale —
    /// itself a finding).
    pub suppressed: usize,
}

fn parse_directives(lexed: &Lexed) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("lint:") else {
            continue;
        };
        let rest = c.text[pos + "lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let (inside, tail) = match args.split_once(')') {
            Some(pair) => pair,
            None => (args, ""),
        };
        let rules: Vec<String> = inside
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        // The reason is whatever follows a dash after the closing paren.
        let tail = tail.trim_start();
        let reason = ["—", "–", "--", "-"]
            .iter()
            .find_map(|d| tail.strip_prefix(d))
            .map(|r| r.trim().trim_end_matches("*/").trim().to_string())
            .unwrap_or_default();
        let target_line = if lexed.has_code_on(c.line) {
            c.line
        } else {
            lexed.next_code_line(c.line + 1).unwrap_or(c.line)
        };
        out.push(AllowDirective {
            line: c.line,
            target_line,
            rules,
            reason,
            suppressed: 0,
        });
    }
    out
}

/// Runs every rule on one lexed file and applies `lint: allow` directives;
/// `allows` accumulates the workspace's allow inventory.
pub fn lint_file(ctx: &FileCtx, source: &str, allows: &mut Vec<AllowRecord>) -> Vec<Finding> {
    let lexed = lex(source);
    let test_ranges = cfg_test_ranges(&lexed);
    let mut findings = Vec::new();

    rules::lossy_cast::check(ctx, &lexed, &test_ranges, &mut findings);
    rules::accumulator_width::check(ctx, &lexed, &test_ranges, &mut findings);

    // This crate's own sources quote the directive syntax in docs and
    // messages, so directives are not honored here: atom-lint must be
    // unconditionally clean.
    let mut directives = if ctx.crate_name == "atom-lint" {
        Vec::new()
    } else {
        parse_directives(&lexed)
    };

    // Malformed directives are findings in their own right.
    for d in &directives {
        if d.reason.is_empty() {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: d.line,
                rule: RULE_DIRECTIVE,
                message: "allow directive missing a reason: \
                          use `// lint: allow(<rule>) — <reason>`"
                    .into(),
            });
        }
        for r in &d.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                findings.push(Finding {
                    file: ctx.path.clone(),
                    line: d.line,
                    rule: RULE_DIRECTIVE,
                    message: format!("allow directive names unknown rule `{r}`"),
                });
            }
        }
    }

    // Apply suppressions.
    findings.retain(|f| {
        if f.rule == RULE_DIRECTIVE {
            return true;
        }
        for d in &mut directives {
            if (f.line == d.target_line || f.line == d.line)
                && d.rules.iter().any(|r| r == f.rule)
            {
                d.suppressed += 1;
                return false;
            }
        }
        true
    });

    // A directive that suppressed nothing is stale and must go.
    for d in &directives {
        if d.suppressed == 0
            && !d.reason.is_empty()
            && d.rules.iter().all(|r| ALL_RULES.contains(&r.as_str()))
        {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: d.line,
                rule: RULE_DIRECTIVE,
                message: format!(
                    "stale allow directive: no {} finding on line {} to suppress",
                    d.rules.join("/"),
                    d.target_line
                ),
            });
        }
    }

    allows.extend(directives.into_iter().map(|d| AllowRecord {
        file: ctx.path.clone(),
        line: d.line,
        rules: d.rules,
        reason: d.reason,
        suppressed: d.suppressed,
    }));

    findings
}

/// Reads the `name = "..."` of the `[package]` section.
fn package_name(cargo_toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in cargo_toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

fn classify(rel_in_crate: &Path) -> Option<FileKind> {
    let first = rel_in_crate.components().next()?;
    match first.as_os_str().to_str()? {
        "src" => Some(FileKind::Src),
        "tests" => Some(FileKind::TestDir),
        "examples" => Some(FileKind::Example),
        "benches" => Some(FileKind::Bench),
        _ => None,
    }
}

fn collect_rs_files(dir: &Path, acc: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, acc)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            acc.push(path);
        }
    }
    Ok(())
}

/// Result of a whole-workspace pass.
#[derive(Debug)]
pub struct WorkspaceReport {
    pub findings: Vec<Finding>,
    pub files_checked: usize,
    /// Every allow directive in the workspace (the audit's escape-hatch
    /// inventory), sorted by file then line.
    pub allows: Vec<AllowRecord>,
}

impl WorkspaceReport {
    /// Drops every finding not produced by `rule` (for `--rule` runs).
    pub fn filter_rule(&mut self, rule: &str) {
        self.findings.retain(|f| f.rule == rule);
    }
}

/// Lints every crate under `<root>/crates`. `root` must be the workspace
/// root (the directory holding the workspace `Cargo.toml`).
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();

    let mut findings = Vec::new();
    let mut files_checked = 0usize;
    let mut allows = Vec::new();
    for crate_dir in &crate_dirs {
        let manifest = fs::read_to_string(crate_dir.join("Cargo.toml"))?;
        let crate_name = package_name(&manifest).unwrap_or_else(|| {
            crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        });
        let mut files = Vec::new();
        collect_rs_files(crate_dir, &mut files)?;
        files.sort();
        for file in files {
            let rel_in_crate = match file.strip_prefix(crate_dir) {
                Ok(r) => r,
                Err(_) => continue,
            };
            // The lint's own known-bad fixtures are data, not code.
            if rel_in_crate.starts_with("fixtures") {
                continue;
            }
            let Some(kind) = classify(rel_in_crate) else {
                continue;
            };
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let source = fs::read_to_string(&file)?;
            let ctx = FileCtx {
                crate_name: crate_name.clone(),
                path: rel,
                kind,
            };
            findings.extend(lint_file(&ctx, &source, &mut allows));
            files_checked += 1;
        }
    }

    findings.sort();
    findings.dedup();
    allows.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(WorkspaceReport {
        findings,
        files_checked,
        allows,
    })
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
