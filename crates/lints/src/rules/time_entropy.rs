//! Rule `time-entropy`: wall-clock and ambient-state reads are confined
//! to the telemetry crate and the audited config entry points.
//!
//! The serving stack's tick loop is deterministic by construction:
//! deadlines are measured in engine steps, retry jitter comes from seeded
//! SplitMix64, and chaos schedules replay from a `--seed`. One stray
//! `Instant::now()` compared against a threshold, one `SystemTime`-seeded
//! RNG, or one environment variable read inside a scheduling decision
//! silently breaks the bit-identical contract that `slo_gate`,
//! `prefix_gate` and the benchmark's `streams digest` gate on — and unlike
//! a logic bug it breaks it *rarely*, which is worse. Flagged in
//! production code:
//!
//! * `Instant::now()` / `SystemTime::now()` / `UNIX_EPOCH` — wall-clock
//!   reads. Telemetry timing is exempt (the whole telemetry crate is out
//!   of scope); anywhere else, a wall read used purely for observability
//!   carries a justified `lint: allow(time-entropy)` so the audit records
//!   *why* it cannot feed back into scheduling.
//! * `std::env::var` / `var_os` / `vars` — ambient configuration. Only
//!   the audited entry points in `AUDITED_ENV_FILES` may read the
//!   environment; they resolve config once, at construction, into plain
//!   values the deterministic core consumes.
//! * `thread_rng` / `from_entropy` / `OsRng` — non-seeded RNG
//!   construction. Every RNG in this workspace is seeded (`--seed`,
//!   `FaultPlan`, SplitMix64 jitter); OS entropy has no business here.
//!
//! Tests, examples, and benches are exempt (`FileKind` scoping), but the
//! bench *bins* are production: their reports are gated bit-identical.
//! Wall time is measured by `benchmark/` only, so the workspace holds
//! three justified allows (`results/lint_baseline.json`): the pool's region
//! and worker-busy telemetry timers in `crates/parallel`, and the one wall
//! read `telemetry_report`'s coverage gate divides by.

use crate::lexer::{in_ranges, Lexed, TokKind};
use crate::{FileCtx, Finding, RULE_TIME_ENTROPY};

/// Files allowed to read environment variables: the audited config entry
/// points. Each resolves ambient state once into explicit configuration:
///
/// * `parallel/src/lib.rs` — `ATOM_THREADS` pool sizing, read at pool
///   construction; the pool's contract makes width observable-free.
/// * `nn/src/zoo.rs` — `ATOM_MODEL_CACHE` cache directory for trained
///   model weights; affects where bytes land, never what they are.
const AUDITED_ENV_FILES: &[&str] = &["crates/parallel/src/lib.rs", "crates/nn/src/zoo.rs"];

/// Identifiers that construct OS-entropy RNGs.
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// `a :: b` adjacency in the token stream (two `:` puncts between idents).
fn path_sep(lexed: &Lexed, i: usize) -> bool {
    lexed.tokens.get(i).is_some_and(|t| t.text == ":")
        && lexed.tokens.get(i + 1).is_some_and(|t| t.text == ":")
}

pub fn check(
    ctx: &FileCtx,
    lexed: &Lexed,
    test_ranges: &[(usize, usize)],
    findings: &mut Vec<Finding>,
) {
    if ctx.crate_name == "atom-telemetry" || ctx.crate_name == "atom-lint" {
        return;
    }
    if !ctx.kind.is_production() {
        return;
    }
    let env_audited = AUDITED_ENV_FILES.contains(&ctx.path.as_str());
    let toks = &lexed.tokens;

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_ranges(test_ranges, t.line) {
            continue;
        }
        // Wall clock: `Instant::now` / `SystemTime::now` (the type alone
        // is fine — storing an `Instant` someone else produced is not a
        // read), plus the `UNIX_EPOCH` anchor.
        if (t.text == "Instant" || t.text == "SystemTime")
            && path_sep(lexed, i + 1)
            && toks.get(i + 3).is_some_and(|m| m.text == "now")
        {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: t.line,
                rule: RULE_TIME_ENTROPY,
                message: format!(
                    "`{}::now()` reads the wall clock outside atom-telemetry; \
                     deterministic code measures in steps/ticks — justify \
                     observability-only reads with a lint allow",
                    t.text
                ),
            });
            continue;
        }
        if t.text == "UNIX_EPOCH" {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: t.line,
                rule: RULE_TIME_ENTROPY,
                message: "`UNIX_EPOCH` anchors wall-clock arithmetic outside atom-telemetry"
                    .into(),
            });
            continue;
        }
        // Ambient environment: `env::var` / `var_os` / `vars`.
        if (t.text == "var" || t.text == "var_os" || t.text == "vars")
            && i >= 3
            && toks[i - 3].text == "env"
            && path_sep(lexed, i - 2)
            && !env_audited
        {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: t.line,
                rule: RULE_TIME_ENTROPY,
                message: format!(
                    "`env::{}` reads ambient state outside the audited config entry \
                     points; thread explicit configuration instead",
                    t.text
                ),
            });
            continue;
        }
        // OS entropy.
        if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            findings.push(Finding {
                file: ctx.path.clone(),
                line: t.line,
                rule: RULE_TIME_ENTROPY,
                message: format!(
                    "`{}` constructs a non-seeded RNG; every random stream in this \
                     workspace must be seeded and replayable",
                    t.text
                ),
            });
        }
    }
}
