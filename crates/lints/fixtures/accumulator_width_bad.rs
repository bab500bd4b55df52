//! Fixture: `i32`/`i64` reductions that cite a `const` assertion, cite
//! nothing, or cite a name no assertion mentions. Expected findings are
//! asserted in `tests/golden.rs` — keep line numbers stable.

pub const FIX_MAX_K: usize = 1 << 17;
const _: () = assert!((FIX_MAX_K as i64) << 14 <= 1 << 31);

pub const FIX_UNPROVEN_K: usize = 1 << 40;

/// Cited and asserted: clean.
pub fn cited(a: &[i8], b: &[i8]) -> i32 {
    // Each product is at most 2^14 in magnitude.
    // bound: FIX_MAX_K
    let dot: i32 = a.iter().zip(b).map(|(&x, &w)| i32::from(x) * i32::from(w)).sum();
    dot
}

pub fn missing(a: &[i8], b: &[i8]) -> i32 {
    let dot: i32 = a.iter().zip(b).map(|(&x, &w)| i32::from(x) * i32::from(w)).sum();
    dot
}

/// The cited constant exists, but rustc is never asked to prove anything
/// about it.
pub fn unasserted(a: &[i8]) -> i64 {
    // bound: FIX_UNPROVEN_K
    a.iter().map(|&x| i64::from(x)).sum::<i64>()
}

/// A blank line detaches the comment from the statement.
pub fn detached(a: &[i8]) -> i32 {
    // bound: FIX_MAX_K

    a.iter().map(|&x| i32::from(x)).product::<i32>()
}

/// Loop accumulation on an `i64` local, no citation.
pub fn loop_acc(a: &[i8]) -> i64 {
    let mut total: i64 = 0;
    for &x in a {
        if x > 0 {
            total += i64::from(x);
        }
    }
    total
}

/// Loop accumulation discharged by a trailing citation; the `+=` after the
/// loop is a single addition, not a reduction.
pub fn loop_acc_cited(a: &[i8]) -> i64 {
    let mut total: i64 = 0;
    let mut rest = a;
    while let Some((&x, tail)) = rest.split_first() {
        total += i64::from(x); // bound: FIX_MAX_K
        rest = tail;
    }
    total += 1;
    total
}

/// Float reductions are out of scope.
pub fn float_sum(a: &[f32]) -> f32 {
    let s: f32 = a.iter().sum();
    s + a.iter().sum::<f32>()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let n: i32 = [1i32, 2, 3].iter().sum();
        assert_eq!(n, 6);
    }
}
