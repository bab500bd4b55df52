//! Rule `unsafe-containment`: every crate root carries
//! `#![forbid(unsafe_code)]`.
//!
//! The reproduction's results are only trustworthy if the numeric code is
//! memory-safe by construction. With the attribute in place rustc rejects
//! any `unsafe` in the crate, so the one thing left to check is that no
//! crate root drops it.

use crate::lexer::{Lexed, TokKind};
use crate::{FileCtx, Finding, RULE_UNSAFE_CONTAINMENT};

fn has_forbid_unsafe(lexed: &Lexed) -> bool {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].text != "forbid" || toks[i].kind != TokKind::Ident {
            continue;
        }
        // Must be the inner attribute `#![forbid(...)]`.
        let inner_attr = i >= 3
            && toks[i - 1].text == "["
            && toks[i - 2].text == "!"
            && toks[i - 3].text == "#";
        if !inner_attr {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        j += 1;
        while j < toks.len() && toks[j].text != ")" {
            if toks[j].text == "unsafe_code" {
                return true;
            }
            j += 1;
        }
    }
    false
}

pub fn check(ctx: &FileCtx, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if ctx.kind.is_crate_root() && !has_forbid_unsafe(lexed) {
        findings.push(Finding {
            file: ctx.path.clone(),
            line: 1,
            rule: RULE_UNSAFE_CONTAINMENT,
            message: "crate root must carry `#![forbid(unsafe_code)]`".into(),
        });
    }
}
