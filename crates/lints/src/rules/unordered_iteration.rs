//! Rule `unordered-iteration`: iteration over `HashMap`/`HashSet` in the
//! deterministic-scope crates must not let hash order reach an output.
//!
//! Every headline gate in this repo — `slo_gate`, `prefix_gate`, the
//! serving benchmark's `streams digest` — asserts bit-identical token
//! streams and reports, and PR 5 shipped exactly this bug class: a
//! `HashMap`-ordered deadline sweep reordered same-step expiries. The
//! compiler cannot see the contract, because `HashMap` iteration is
//! perfectly well-typed; it is only *unordered*. This rule flags every
//! iteration-shaped use of a hash-typed binding (`.iter()`, `.keys()`,
//! `.values()`, `.drain()`, `.retain()`, `for _ in &map`, ...) inside the
//! deterministic-scope crates, unless the surrounding statement window
//! visibly restores an order:
//!
//! * the iteration's result is sorted in the same or the immediately
//!   following statement (`.collect()` + `sort_unstable()` is the
//!   canonical shape, as in the engine's deadline sweep before it moved
//!   to `BTreeMap`), or
//! * it is keyed into a `BTreeMap`/`BTreeSet`, or
//! * it collapses through an order-insensitive reduction (`count`, `len`,
//!   `is_empty`, `min`, `max`, `any`, `all`).
//!
//! Anything else needs a justified `// lint: allow(unordered-iteration)`.
//! Note `sum`/`fold` are *not* escapes: float addition is not associative,
//! and a fold's accumulator sees hash order.
//!
//! Hash-typed bindings come from the lexer's lightweight type tracking
//! ([`crate::lexer::type_bindings`]): ascriptions and constructor
//! inference, per file, without shadowing analysis. Point lookups
//! (`get`, `insert`, `remove`, `entry`, `contains_key`) are fine — hash
//! maps stay the right structure for keyed access; only traversal order
//! is the hazard.

use crate::lexer::{in_ranges, type_bindings, Lexed, TokKind};
use crate::{FileCtx, Finding, RULE_UNORDERED_ITERATION};

/// Crates whose outputs are gated bit-identical (serving stack, kernels,
/// model, quantizer): the deterministic scope.
const SCOPED_CRATES: &[&str] = &[
    "atom-serve",
    "atom-gateway",
    "atom-prefix",
    "atom-parallel",
    "atom-kernels",
    "atom-nn",
    "atom",
];

/// The hash-ordered collection types the rule tracks.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that traverse a collection in iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers whose presence in the statement window proves the order is
/// restored (sorting, ordered re-keying) or irrelevant (order-insensitive
/// reductions).
const ORDER_ESCAPES: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "count",
    "len",
    "is_empty",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "any",
    "all",
];

/// `(start, end)` token window: from the start of the statement holding
/// token `i` through the end of the *next* statement, so a
/// `collect()`-then-`sort()` pair is visible as one unit. Statement
/// boundaries are `;` at the current brace depth; `{`/`}` bound the
/// enclosing block.
fn stmt_window(lexed: &Lexed, i: usize) -> (usize, usize) {
    let toks = &lexed.tokens;
    let mut start = i;
    while start > 0 {
        match toks[start - 1].text.as_str() {
            ";" | "{" | "}" => break,
            _ => start -= 1,
        }
    }
    let mut end = i;
    let mut depth = 0usize;
    let mut semis = 0usize;
    while end + 1 < toks.len() {
        end += 1;
        match toks[end].text.as_str() {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => {
                semis += 1;
                if semis == 2 {
                    break;
                }
            }
            _ => {}
        }
    }
    (start, end)
}

fn window_has_escape(lexed: &Lexed, i: usize) -> bool {
    let (start, end) = stmt_window(lexed, i);
    lexed.tokens[start..=end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && ORDER_ESCAPES.contains(&t.text.as_str()))
}

pub fn check(
    ctx: &FileCtx,
    lexed: &Lexed,
    test_ranges: &[(usize, usize)],
    findings: &mut Vec<Finding>,
) {
    if !SCOPED_CRATES.contains(&ctx.crate_name.as_str()) || !ctx.kind.is_production() {
        return;
    }
    let bindings = type_bindings(lexed, HASH_TYPES);
    if bindings.is_empty() {
        return;
    }
    let is_hash = |name: &str| bindings.iter().any(|b| b.name == name);
    let toks = &lexed.tokens;

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_ranges(test_ranges, t.line) {
            continue;
        }

        // Method form: `<hash_binding> . iter ( ...` — the receiver is the
        // identifier directly before the dot, however long the field chain
        // before it (`self.prefix.planned.drain()` ends in `planned`).
        if ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].text == "."
            && toks[i - 2].kind == TokKind::Ident
            && is_hash(&toks[i - 2].text)
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if !window_has_escape(lexed, i) {
                findings.push(Finding {
                    file: ctx.path.clone(),
                    line: t.line,
                    rule: RULE_UNORDERED_ITERATION,
                    message: format!(
                        "`.{}()` on hash-typed `{}` observes nondeterministic order; \
                         sort the result, key into a BTreeMap, or justify with a \
                         lint allow",
                        t.text, toks[i - 2].text
                    ),
                });
            }
            continue;
        }

        // For-loop form: `for .. in [&][mut] <path.to.>hash_binding {`.
        // The iterable is everything between `in` and the body `{`; when
        // it is a bare (borrowed) binding with no method call, `IntoIterator`
        // hands back hash order directly.
        if t.text == "for" {
            let mut j = i + 1;
            let mut depth = 0usize;
            // Skip the pattern to the `in` keyword.
            while let Some(p) = toks.get(j) {
                match p.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "in" if depth == 0 && p.kind == TokKind::Ident => break,
                    _ => {}
                }
                j += 1;
            }
            let in_idx = j;
            // Collect the iterable tokens up to the body brace.
            let mut k = in_idx + 1;
            let mut iterable_end = None;
            while let Some(p) = toks.get(k) {
                if p.text == "{" {
                    iterable_end = Some(k);
                    break;
                }
                k += 1;
            }
            let Some(body) = iterable_end else { continue };
            let iterable = &toks[in_idx + 1..body];
            // Strip leading borrows; accept only `ident(.ident)*`.
            let mut idx = 0;
            while iterable
                .get(idx)
                .is_some_and(|p| p.text == "&" || p.text == "mut")
            {
                idx += 1;
            }
            let rest = &iterable[idx..];
            if rest.is_empty() || rest.len().is_multiple_of(2) {
                continue;
            }
            let shape_ok = rest.iter().enumerate().all(|(n, p)| {
                if n % 2 == 0 {
                    p.kind == TokKind::Ident
                } else {
                    p.text == "."
                }
            });
            let Some(last) = rest.last() else { continue };
            if shape_ok && is_hash(&last.text) {
                findings.push(Finding {
                    file: ctx.path.clone(),
                    line: t.line,
                    rule: RULE_UNORDERED_ITERATION,
                    message: format!(
                        "`for` over hash-typed `{}` observes nondeterministic order; \
                         iterate a sorted key list or a BTreeMap instead",
                        last.text
                    ),
                });
            }
        }
    }
}
