//! The individual rule passes. Each rule is a pure function over the lexed
//! token stream; scoping (which crates, which file kinds, test exemptions)
//! lives inside the rule so the orchestrator stays trivial.

pub mod accumulator_width;
pub mod lock_order;
pub mod lossy_cast;
pub mod panic_freedom;
pub mod telemetry_names;
pub mod time_entropy;
pub mod unordered_iteration;
pub mod unsafe_containment;

/// Rust keywords that can directly precede `[` without forming an index
/// expression (`let [a, b] = ...`, `return [0; 4]`, `in [1, 2]`...).
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "yield",
];
