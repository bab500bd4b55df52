//! Known-bad fixture for the `unsafe-containment` rule: a crate root with
//! no `#![forbid(unsafe_code)]`. The expected finding is asserted in
//! `tests/golden.rs`.

pub fn f(x: u32) -> u32 {
    x
}
