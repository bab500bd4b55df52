//! A minimal Rust lexer: just enough token structure for line-oriented
//! static checks.
//!
//! The lexer's one job is to make the rule passes immune to the classic
//! text-scan failure modes: patterns inside string literals, inside
//! comments, or split across lines. It produces a flat token stream (with
//! line numbers) plus the comment list, and deliberately does **not** build
//! a syntax tree — every rule in this crate is expressible over tokens,
//! and a real parser would be a maintenance liability in a zero-dependency
//! crate.

/// Token classes the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `as`, `let`, ...).
    Ident,
    /// String literal of any flavor (`"..."`, `r#"..."#`, `b"..."`),
    /// including the quotes.
    StrLit,
    /// Character or byte literal (`'a'`, `b'\n'`).
    CharLit,
    /// Numeric literal.
    NumLit,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Single punctuation character (`[`, `!`, `:`...). Multi-character
    /// operators arrive as consecutive tokens.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

/// One comment (line or block, doc or plain) with the 1-based line it
/// starts on and whether any code token shares that line.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: usize,
    pub text: String,
}

/// A lexed source file: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Whether any code token sits on `line`.
    pub fn has_code_on(&self, line: usize) -> bool {
        // Tokens are in line order; a binary search would work, but files
        // are small enough that the scan never shows up in profiles.
        self.tokens.iter().any(|t| t.line == line)
    }

    /// The first line at or after `line` that holds a code token.
    pub fn next_code_line(&self, line: usize) -> Option<usize> {
        self.tokens.iter().map(|t| t.line).find(|&l| l >= line)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and comments. Unterminated constructs are
/// tolerated (the remainder of the file is consumed) — the lint must never
/// crash on the code it is judging.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = chars.len();

    let bump_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count();

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers /// and //! doc comments).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            out.comments.push(Comment {
                line,
                text: chars[start..i].iter().collect(),
            });
            continue;
        }
        // Block comment, possibly nested (Rust nests them).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            line += bump_lines(&chars[start..i.min(n)]);
            out.comments.push(Comment {
                line: start_line,
                text: chars[start..i.min(n)].iter().collect(),
            });
            continue;
        }
        // Raw / byte string prefixes: r"..", r#".."#, br"..", b"..".
        if (c == 'r' || c == 'b') && i + 1 < n {
            let (prefix_len, is_raw) = match (c, chars[i + 1]) {
                ('r', '"') | ('r', '#') => (1, true),
                ('b', '"') => (1, false),
                ('b', 'r') if i + 2 < n && (chars[i + 2] == '"' || chars[i + 2] == '#') => {
                    (2, true)
                }
                ('b', '\'') => {
                    // Byte char literal b'x'.
                    let start = i;
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        if chars[i] == '\\' {
                            i += 1;
                        }
                        i += 1;
                    }
                    i = (i + 1).min(n);
                    out.tokens.push(Token {
                        kind: TokKind::CharLit,
                        text: chars[start..i.min(n)].iter().collect(),
                        line,
                    });
                    continue;
                }
                _ => (0, false),
            };
            if prefix_len > 0 {
                let start = i;
                let start_line = line;
                i += prefix_len;
                if is_raw {
                    let mut hashes = 0;
                    while i < n && chars[i] == '#' {
                        hashes += 1;
                        i += 1;
                    }
                    if i < n && chars[i] == '"' {
                        i += 1;
                        'raw: while i < n {
                            if chars[i] == '"' {
                                let mut j = i + 1;
                                let mut seen = 0;
                                while j < n && chars[j] == '#' && seen < hashes {
                                    seen += 1;
                                    j += 1;
                                }
                                if seen == hashes {
                                    i = j;
                                    break 'raw;
                                }
                            }
                            i += 1;
                        }
                        line += bump_lines(&chars[start..i.min(n)]);
                        out.tokens.push(Token {
                            kind: TokKind::StrLit,
                            text: chars[start..i.min(n)].iter().collect(),
                            line: start_line,
                        });
                        continue;
                    }
                    // `r#ident` raw identifier or lone r/b: rewind and fall
                    // through to the identifier path.
                    i = start;
                } else {
                    // b"..." cooked byte string.
                    i += 1; // opening quote
                    while i < n && chars[i] != '"' {
                        if chars[i] == '\\' {
                            i += 1;
                        }
                        i += 1;
                    }
                    i = (i + 1).min(n);
                    line += bump_lines(&chars[start..i.min(n)]);
                    out.tokens.push(Token {
                        kind: TokKind::StrLit,
                        text: chars[start..i.min(n)].iter().collect(),
                        line: start_line,
                    });
                    continue;
                }
            }
        }
        // Plain string literal.
        if c == '"' {
            let start = i;
            let start_line = line;
            i += 1;
            while i < n && chars[i] != '"' {
                if chars[i] == '\\' {
                    i += 1;
                }
                i += 1;
            }
            i = (i + 1).min(n);
            line += bump_lines(&chars[start..i.min(n)]);
            out.tokens.push(Token {
                kind: TokKind::StrLit,
                text: chars[start..i.min(n)].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Lifetime, loop label, or char literal.
        if c == '\'' {
            // 'a' is a char literal; 'a (no closing quote) is a lifetime.
            let is_char = if i + 1 < n && chars[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && is_ident_continue(chars[i + 1]) && {
                    // Scan the identifier; a closing quote right after makes
                    // it a char literal ('x'), otherwise it is a lifetime.
                    let mut j = i + 1;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    j < n && chars[j] == '\''
                }
            };
            let start = i;
            if is_char {
                i += 1;
                while i < n && chars[i] != '\'' {
                    if chars[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i = (i + 1).min(n);
                out.tokens.push(Token {
                    kind: TokKind::CharLit,
                    text: chars[start..i.min(n)].iter().collect(),
                    line,
                });
            } else {
                i += 1;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            continue;
        }
        // Identifier or keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Number. A `.` joins only when followed by a digit, so `0..n`
        // lexes as `0`, `.`, `.`, `n`.
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (is_ident_continue(chars[i])
                    || (chars[i] == '.' && i + 1 < n && chars[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::NumLit,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Everything else: one punctuation character per token.
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Line ranges (inclusive) covered by `#[cfg(test)]` items — test modules
/// and test-only items the rules must skip.
pub fn cfg_test_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut ranges = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "cfg" || toks[i].kind != TokKind::Ident {
            continue;
        }
        let prev_ok = i >= 2 && toks[i - 1].text == "[" && toks[i - 2].text == "#";
        let next_ok = i + 3 < toks.len()
            && toks[i + 1].text == "("
            && toks[i + 2].text == "test"
            && toks[i + 3].text == ")";
        if !prev_ok || !next_ok {
            continue;
        }
        let start_line = toks[i].line;
        // Scan past the attribute's `]`, then to the item's first `{` or a
        // terminating `;` (for brace-less items like `use`).
        let mut j = i + 4;
        while j < toks.len() && toks[j].text != "]" {
            j += 1;
        }
        let mut end_line = start_line;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    depth += 1;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end_line = toks[j].line;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end_line = toks[j].line;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            end_line = toks.last().map(|t| t.line).unwrap_or(start_line);
        }
        ranges.push((start_line, end_line));
    }
    ranges
}

/// Whether `line` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// A name bound to a type the rules track (`requests: HashMap<..>`,
/// `let seen = HashSet::new()`, `events: Mutex<Vec<..>>`...).
///
/// Scope tracking is deliberately lightweight: bindings are collected
/// per file without shadowing analysis, so a rule treats any later use of
/// the name as having the bound type. That over-approximation is the
/// right bias for an audit layer — a false positive costs one justified
/// `lint: allow`, a false negative costs a nondeterminism bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeBinding {
    /// The bound identifier (field, parameter, or `let` name).
    pub name: String,
    /// The tracked type it was bound with (last path segment, e.g.
    /// `HashMap` for `std::collections::HashMap<K, V>`).
    pub ty: String,
    /// 1-based line of the binding.
    pub line: usize,
}

/// Skips a `path :: to :: Type` chain starting at an identifier token and
/// returns `(last_segment_index, next_index)` — or `None` if `j` is not an
/// identifier.
fn skip_type_path(toks: &[Token], mut j: usize) -> Option<(usize, usize)> {
    if toks.get(j).map(|t| t.kind) != Some(TokKind::Ident) {
        return None;
    }
    let mut last = j;
    while toks.get(j + 1).is_some_and(|a| a.text == ":")
        && toks.get(j + 2).is_some_and(|b| b.text == ":")
        && toks.get(j + 3).map(|t| t.kind) == Some(TokKind::Ident)
    {
        j += 3;
        last = j;
    }
    Some((last, j + 1))
}

/// Collects bindings of the `tracked` type names from three declaration
/// shapes:
///
/// 1. ascription — `name: [&] [mut] [path::]Ty<...>` (struct fields, fn
///    parameters, typed `let`s), or an array of it, `name: [Ty; N]`;
/// 2. constructor inference — `let [mut] name = [path::]Ty::new(..)`
///    (also `with_capacity`, `default`, `from`);
/// 3. statics — covered by shape 1 (`static NAME: Mutex<..>`).
///
/// Types nested inside generic arguments (`Vec<HashMap<..>>`) are not
/// tracked; neither is shadowing — see [`TypeBinding`].
pub fn type_bindings(lexed: &Lexed, tracked: &[&str]) -> Vec<TypeBinding> {
    let toks = &lexed.tokens;
    let mut out: Vec<TypeBinding> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Shape 2: `let [mut] name = Path::Ty::ctor(`.
        if t.text == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else { continue };
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            if toks.get(j + 1).map(|t| t.text.as_str()) != Some("=") {
                continue;
            }
            // Walk the constructor path: every segment before the final
            // method call is a candidate type name.
            if let Some((_, next)) = skip_type_path(toks, j + 2) {
                let ctor_ok = toks.get(next).is_some_and(|t| t.text == "(")
                    || toks.get(next).is_some_and(|t| t.text == "<");
                if ctor_ok {
                    let segs: Vec<&str> = toks[j + 2..next]
                        .iter()
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.as_str())
                        .collect();
                    let is_ctor = segs
                        .last()
                        .is_some_and(|m| ["new", "with_capacity", "default", "from"].contains(m));
                    if is_ctor {
                        if let Some(ty) = segs.iter().rev().find(|s| tracked.contains(*s)) {
                            out.push(TypeBinding {
                                name: name_tok.text.clone(),
                                ty: (*ty).to_string(),
                                line: name_tok.line,
                            });
                        }
                    }
                }
            }
            continue;
        }
        // Shape 1: `name : Ty` where the `:` is not a path separator.
        if KEYWORD_NAMES.contains(&t.text.as_str()) {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some(":") {
            continue;
        }
        if toks.get(i + 2).is_some_and(|t| t.text == ":") {
            continue; // `name::...` path, not an ascription
        }
        // Also reject `path::name: Ty` receivers? A preceding `::` means
        // `name` is a path segment, not a binding.
        if i >= 2 && toks[i - 1].text == ":" && toks[i - 2].text == ":" {
            continue;
        }
        let mut j = i + 2;
        while toks.get(j).is_some_and(|t| {
            t.text == "&" || t.text == "mut" || t.kind == TokKind::Lifetime
        }) {
            j += 1;
        }
        // An array `[Ty; N]` binds its element type.
        if toks.get(j).is_some_and(|t| t.text == "[") {
            j += 1;
        }
        let Some((last, _)) = skip_type_path(toks, j) else {
            continue;
        };
        if tracked.contains(&toks[last].text.as_str()) {
            out.push(TypeBinding {
                name: t.text.clone(),
                ty: toks[last].text.clone(),
                line: t.line,
            });
        }
    }
    out
}

/// Keywords that can precede `:` without being a binding name (`if x == y
/// { .. }` has none; mostly defensive).
const KEYWORD_NAMES: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let lexed = lex(r#"let x = "unwrap() [0] // not code"; // real.unwrap()"#);
        assert!(!lexed.tokens.iter().any(|t| t.text == "unwrap"));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("real.unwrap()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lexed.tokens.iter().any(|t| t.kind == TokKind::CharLit));
    }

    #[test]
    fn ranges_lex_as_separate_numbers() {
        let lexed = lex("for i in 0..10 {}");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::NumLit)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["0", "10"]);
    }

    #[test]
    fn cfg_test_module_span_detected() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let lexed = lex(src);
        let ranges = cfg_test_ranges(&lexed);
        assert_eq!(ranges, vec![(2, 5)]);
        assert!(in_ranges(&ranges, 4));
        assert!(!in_ranges(&ranges, 6));
    }

    #[test]
    fn raw_strings_swallow_quotes() {
        let lexed = lex(r##"let s = r#"a "quoted" [x.unwrap()]"#;"##);
        assert!(!lexed.tokens.iter().any(|t| t.text == "unwrap"));
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::StrLit)
                .count(),
            1
        );
    }

    #[test]
    fn block_comments_nest() {
        let lexed = lex("/* outer /* inner */ still comment */ fn f() {}");
        assert!(lexed.tokens.iter().any(|t| t.text == "fn"));
        assert!(!lexed.tokens.iter().any(|t| t.text == "inner"));
    }

    const TRACKED: &[&str] = &["HashMap", "HashSet", "Mutex", "RwLock"];

    #[test]
    fn type_bindings_from_ascriptions() {
        let src = "struct S {\n    requests: HashMap<usize, R>,\n    names: Vec<String>,\n}\nfn f(seen: &mut HashSet<u32>, n: usize) {}\nstatic LOCK: std::sync::Mutex<()> = todo();\n";
        let lexed = lex(src);
        let got = type_bindings(&lexed, TRACKED);
        assert_eq!(
            got,
            vec![
                TypeBinding { name: "requests".into(), ty: "HashMap".into(), line: 2 },
                TypeBinding { name: "seen".into(), ty: "HashSet".into(), line: 5 },
                TypeBinding { name: "LOCK".into(), ty: "Mutex".into(), line: 6 },
            ]
        );
    }

    #[test]
    fn type_bindings_from_array_ascriptions() {
        let src = "fn f(cells: [Mutex<u8>; 4], all: &[HashSet<u32>], n: [usize; 2]) {}\n";
        let lexed = lex(src);
        let got = type_bindings(&lexed, TRACKED);
        let names: Vec<(&str, &str)> =
            got.iter().map(|b| (b.name.as_str(), b.ty.as_str())).collect();
        assert_eq!(names, vec![("cells", "Mutex"), ("all", "HashSet")]);
    }

    #[test]
    fn type_bindings_from_constructors() {
        let src = "fn f() {\n    let mut live = HashMap::new();\n    let lock = std::sync::RwLock::new(0);\n    let v = Vec::new();\n    let cap = HashSet::with_capacity(8);\n}\n";
        let lexed = lex(src);
        let got = type_bindings(&lexed, TRACKED);
        let names: Vec<(&str, &str)> =
            got.iter().map(|b| (b.name.as_str(), b.ty.as_str())).collect();
        assert_eq!(
            names,
            vec![("live", "HashMap"), ("lock", "RwLock"), ("cap", "HashSet")]
        );
    }

    #[test]
    fn type_bindings_ignore_paths_and_use_items() {
        // `use std::collections::HashMap;` and `collections::HashMap` in
        // expression position must not create bindings.
        let src = "use std::collections::HashMap;\nfn f() { let x = other::HashMap; }\n";
        let lexed = lex(src);
        assert!(type_bindings(&lexed, TRACKED).is_empty());
    }

    #[test]
    fn nested_cfg_test_modules_produce_overlapping_ranges() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod outer {\n    #[cfg(test)]\n    mod inner {\n        fn t() {}\n    }\n    fn u() {}\n}\nfn prod2() {}\n";
        let lexed = lex(src);
        let ranges = cfg_test_ranges(&lexed);
        assert_eq!(ranges, vec![(2, 9), (4, 7)]);
        // Every line of both modules is covered; production code is not.
        for line in 2..=9 {
            assert!(in_ranges(&ranges, line), "line {line} should be test");
        }
        assert!(!in_ranges(&ranges, 1));
        assert!(!in_ranges(&ranges, 10));
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() {}\n";
        let lexed = lex(src);
        let ranges = cfg_test_ranges(&lexed);
        assert_eq!(ranges, vec![(1, 2)]);
        assert!(!in_ranges(&ranges, 3));
    }
}
