//! Fixture: saturating `i16` lane accumulations that cite a `const`
//! assertion or cite nothing. Expected findings are asserted in
//! `tests/golden.rs` — keep line numbers stable.

pub const FIX_LANE_BOUND: usize = 32_767;
const _: () = assert!(16 * 64 <= FIX_LANE_BOUND);

/// A bare saturating lane sum: a finding.
pub fn bare(sum: i16, x: i16, w: i16) -> i16 {
    sum.saturating_add(x.wrapping_mul(w))
}

/// The same sum citing its bound: clean.
pub fn cited(sum: i16, x: i16, w: i16) -> i16 {
    // bound: FIX_LANE_BOUND
    sum.saturating_add(x.wrapping_mul(w))
}

/// Lanes of an `[i16; N]` summed in a loop, no citation: a finding.
pub fn lanes(x: &[i16], w: &[[i16; 16]]) -> [i16; 16] {
    let mut s: [i16; 16] = [0; 16];
    for (&x, w) in x.iter().zip(w) {
        for c in 0..16 {
            s[c] = s[c].saturating_add(x * w[c]);
        }
    }
    s
}

/// Wider than a lane: out of scope.
pub fn widened(total: i32, x: i32) -> i32 {
    total.saturating_add(x)
}
