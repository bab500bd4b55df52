//! The individual rule passes. Each rule is a pure function over the lexed
//! token stream; scoping (which crates, which file kinds, test exemptions)
//! lives inside the rule so the orchestrator stays trivial.

pub mod accumulator_width;
pub mod lossy_cast;
