//! Rule `accumulator-width`: every `i32`/`i64` reduction and every `i16`
//! lane accumulation in a hot-path crate cites the compile-time proof that
//! it cannot overflow.
//!
//! The proof itself is a `const _: () = assert!(…);` item beside the
//! constant that caps the reduction (`MAX_ACC_K` and `I16_LANE_BOUND` in
//! `kernels/src/gemm.rs`): rustc evaluates it on every build, so it cannot
//! go stale. What rustc cannot see is *which* loops lean on it. This rule
//! is that link, a presence check over tokens. In hot-crate production code
//! each
//!
//! * `.sum::<i32|i64>()` / `.product::<i32|i64>()`,
//! * `let x: i32|i64 = … .sum()|.product();`,
//! * `x += …` or `x[…] += …` inside a `for`/`while`/`loop` body, for `x`
//!   ascribed `i16`/`i32`/`i64` (or an array of them) anywhere in the
//!   file, and
//! * `x.wrapping_add(…)` or `x.saturating_add(…)` anywhere (or on
//!   `x[…]`), for `x` ascribed `i16` (or `[i16; N]`) — a narrow lane wraps
//!   or clamps silently, so its bound matters most,
//!
//! must carry `// bound: NAME` on a line of the statement or in the comment
//! block directly above it, and `NAME` must be an identifier mentioned
//! inside a `const _: () = assert!(…);` item of the same file. The lint
//! checks that a proof is cited; rustc checks that it is true.

use crate::lexer::{in_ranges, type_bindings, Lexed, TokKind, Token, TypeBinding};
use crate::{FileCtx, Finding, RULE_ACCUMULATOR_WIDTH};

/// Crates whose production code is on the serving hot path.
pub const HOT_CRATES: &[&str] = &["atom-kernels", "atom", "atom-nn", "atom-tensor"];

/// The reduction types the rule audits.
const WIDE: &[&str] = &["i32", "i64"];

/// The lane types whose accumulation the rule audits too.
const LANE: &[&str] = &["i16"];

pub fn check(
    ctx: &FileCtx,
    lexed: &Lexed,
    test_ranges: &[(usize, usize)],
    findings: &mut Vec<Finding>,
) {
    if !ctx.kind.is_production() || !HOT_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let toks = &lexed.tokens;
    let asserted = asserted_names(toks);
    let accumulators = type_bindings(lexed, &[WIDE, LANE].concat());
    let lanes = type_bindings(lexed, LANE);
    let bound = |bindings: &[TypeBinding], at: Option<usize>| {
        at.is_some_and(|at| bindings.iter().any(|b| b.name == toks[at].text))
    };
    let in_loop = loop_body_mask(toks);
    for i in 0..toks.len() {
        let accumulates = in_loop[i] && bound(&accumulators, plus_assign_target(toks, i));
        let wraps = bound(&lanes, narrow_add_receiver(toks, i));
        if !accumulates && !wraps && !is_wide_reduction(toks, i) {
            continue;
        }
        let line = toks[stmt_start(toks, i)].line;
        if in_ranges(test_ranges, line) {
            continue;
        }
        let message = match cited_name(lexed, line, toks[i].line) {
            Some(name) if asserted.contains(&name) => continue,
            Some(name) => format!(
                "integer accumulation cites `// bound: {name}`, but no \
                 `const _: () = assert!(…);` in this file mentions `{name}`"
            ),
            None => "integer accumulation without a `// bound: NAME` comment citing the \
                     constant whose `const _: () = assert!(…);` proves it cannot overflow"
                .to_string(),
        };
        findings.push(Finding {
            file: ctx.path.clone(),
            line,
            rule: RULE_ACCUMULATOR_WIDTH,
            message,
        });
    }
}

fn text(toks: &[Token], i: usize) -> &str {
    toks.get(i).map_or("", |t| t.text.as_str())
}

/// `.sum` / `.product` at token `i`, typed `i32`/`i64` by a turbofish or
/// by the ascription of the `let` its statement opens with.
fn is_wide_reduction(toks: &[Token], i: usize) -> bool {
    if i == 0 || text(toks, i - 1) != "." || !matches!(text(toks, i), "sum" | "product") {
        return false;
    }
    let after = |at: usize, n: usize| (at + 1..=at + n).map(|k| text(toks, k)).collect::<Vec<_>>();
    let first = stmt_start(toks, i);
    let name = first + 1 + usize::from(text(toks, first + 1) == "mut");
    matches!(after(i, 5)[..], [":", ":", "<", ty, ">"] if WIDE.contains(&ty))
        || (text(toks, first) == "let"
            && matches!(after(name, 3)[..], [":", ty, "="] if WIDE.contains(&ty))
            && after(i, 3) == ["(", ")", ";"])
}

/// The binding `x` of an `x +=` or `x[…] +=` whose `+=` follows token
/// `i`, `x` a plain binding (not a field).
fn plus_assign_target(toks: &[Token], i: usize) -> Option<usize> {
    if text(toks, i + 1) != "+" || text(toks, i + 2) != "=" {
        return None;
    }
    place_binding(toks, i)
}

/// The receiver `x` of an `x.wrapping_add(` / `x.saturating_add(` or
/// `x[…].wrapping_add(` / `x[…].saturating_add(` at token `i`.
fn narrow_add_receiver(toks: &[Token], i: usize) -> Option<usize> {
    let add = matches!(text(toks, i), "wrapping_add" | "saturating_add");
    let call = add && text(toks, i + 1) == "(";
    let at = i.checked_sub(2).filter(|&at| call && text(toks, at + 1) == ".")?;
    place_binding(toks, at)
}

/// The binding `x` of a place `x` or `x[…]` that ends at token `at`, `x` a
/// plain binding (not a field).
fn place_binding(toks: &[Token], mut at: usize) -> Option<usize> {
    if text(toks, at) == "]" {
        // Walk back over the balanced index expression.
        let mut depth = 0usize;
        loop {
            match text(toks, at) {
                "]" => depth += 1,
                "[" => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                break;
            }
            at = at.checked_sub(1)?;
        }
        at = at.checked_sub(1)?;
    }
    let plain = toks[at].kind == TokKind::Ident && (at == 0 || text(toks, at - 1) != ".");
    plain.then_some(at)
}

/// Index of the first token of the statement holding token `i`: scan back
/// to the `;` or `}` that ends the previous statement, or to the opening
/// bracket of the enclosing block, skipping balanced groups on the way.
fn stmt_start(toks: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j > 0 {
        match text(toks, j - 1) {
            ";" | "}" if depth == 0 => break,
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" if depth == 0 => break,
            "(" | "[" | "{" => depth -= 1,
            _ => {}
        }
        j -= 1;
    }
    j
}

/// For each token, whether it sits inside a `for`/`while`/`loop` body
/// (closures and nested blocks inherit from the block around them).
fn loop_body_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = Vec::with_capacity(toks.len());
    // One entry per open `{`; `groups` counts open `(` and `[`.
    let mut blocks: Vec<bool> = Vec::new();
    let mut groups = 0usize;
    // A loop head was seen at this group depth: the next `{` there is its
    // body. `in` stands for `for`, which also spells `impl A for B`.
    let mut head: Option<usize> = None;
    for t in toks {
        let inside = blocks.last().copied().unwrap_or(false);
        mask.push(inside);
        match t.text.as_str() {
            "while" | "loop" | "in" if t.kind == TokKind::Ident => head = Some(groups),
            "(" | "[" => groups += 1,
            ")" | "]" => {
                groups = groups.saturating_sub(1);
                head = head.filter(|&at| at <= groups);
            }
            "{" => {
                let opens_loop = head.take_if(|at| *at == groups).is_some();
                blocks.push(inside || opens_loop);
            }
            "}" => drop(blocks.pop()),
            _ => {}
        }
    }
    mask
}

/// Identifiers inside the file's `const _: () = assert!(…);` items.
fn asserted_names(toks: &[Token]) -> Vec<&str> {
    const HEAD: [&str; 9] = ["const", "_", ":", "(", ")", "=", "assert", "!", "("];
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i..].iter().map(|t| t.text.as_str()))
            .take(HEAD.len())
            .eq(HEAD)
        {
            continue;
        }
        let mut depth = 1usize;
        for t in &toks[i + HEAD.len()..] {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                _ if t.kind == TokKind::Ident => names.push(t.text.as_str()),
                _ => {}
            }
            if depth == 0 {
                break;
            }
        }
    }
    names
}

/// The name a statement spanning lines `first..=last` cites: the word
/// after `bound:` in a comment on one of those lines, or in the unbroken
/// run of comment-only lines directly above. Closest wins.
fn cited_name(lexed: &Lexed, first: usize, last: usize) -> Option<&str> {
    let cited_on = |line: usize| {
        let on_line = lexed.comments.iter().filter(|c| c.line == line);
        let after = on_line.filter_map(|c| c.text.split_once("bound:")).next();
        after.map(|(_, rest)| rest.split_whitespace().next().unwrap_or(""))
    };
    if let Some(name) = (first..=last).find_map(cited_on) {
        return Some(name);
    }
    let mut line = first.checked_sub(1)?;
    while !lexed.has_code_on(line) && lexed.comments.iter().any(|c| c.line == line) {
        if let Some(name) = cited_on(line) {
            return Some(name);
        }
        line = line.checked_sub(1)?;
    }
    None
}
