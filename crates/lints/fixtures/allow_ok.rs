//! Fixture exercising well-formed `lint: allow` directives: every
//! violation below carries a justification, so the file must lint clean.

pub fn justified_trailing(n: usize) -> f32 {
    n as f32 // lint: allow(lossy-cast) — callers pass a loop counter under 1000 by construction
}

pub fn justified_preceding(x: i64) -> i8 {
    // lint: allow(lossy-cast) — invariant: x was clamped to the INT4 range by the state machine above
    x as i8
}

pub fn justified_two_rules(n: usize) -> u16 {
    // lint: allow(lossy-cast, lock-order) — n is a vocabulary id under 96; a directive may name several rules
    n as u16
}
