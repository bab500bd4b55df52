//! Known-bad fixture for the `lint-directive` meta-rule: directives that
//! are malformed, name unknown rules, or suppress nothing. Expected
//! findings are asserted line-by-line in `tests/golden.rs`.

pub fn missing_reason(n: usize) -> f32 {
    // lint: allow(lossy-cast)
    n as f32
}

pub fn retired_rule(v: &[u32]) -> u32 {
    // lint: allow(panic-freedom) — clippy holds this rule now: the directive is `#[expect(clippy::…, reason)]`
    v.first().copied().unwrap_or(0)
}

pub fn stale_directive(n: u8) -> u32 {
    // lint: allow(lossy-cast) — this conversion is lossless, so the directive is stale
    u32::from(n)
}

pub fn retired_names_rule(n: u64) -> u64 {
    // lint: allow(telemetry-names) — the metric-name types hold this now
    n
}
