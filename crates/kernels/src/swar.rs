//! Row decoders of the `swar` kernel path: packed INT4 / INT8 payload to
//! sign-extended `i8` codes.
//!
//! [`PackedMatrix`] stores the *biased* code `raw = v + 2^(bits-1)`, so a
//! decode is one mask or shift plus one subtract per code — no sign
//! handling. Both functions are plain byte-at-a-time loops with no
//! cross-iteration state, which is the shape the compiler's vectorizer
//! turns into 16-byte loads, mask/shift, interleave and a packed subtract
//! at the baseline x86-64 feature level. (The path is still called `swar`:
//! its first implementation decoded 16 lanes per `u64` word by hand; that
//! measured 3.4x slower than this loop on the model's rows and was deleted.) The decoded values
//! are bit-identical to the scalar reference decode in
//! [`PackedMatrix::unpack_row_with`] — the proptest oracle pins that down.
//!
//! [`PackedMatrix`]: crate::PackedMatrix
//! [`PackedMatrix::unpack_row_with`]: crate::PackedMatrix::unpack_row_with

/// Decodes a packed INT4 row (two biased codes per byte, low nibble first)
/// into `out.len()` sign-extended values.
///
/// `row` must carry at least `out.len().div_ceil(2)` payload bytes;
/// missing bytes leave their outputs untouched (an unreachable backstop,
/// kept total so the kernel hot path stays panic-free).
///
/// # Example
///
/// ```
/// use atom_kernels::swar::unpack_row_i4;
///
/// // Byte 0xA3 holds code 3 (low nibble, column 0) then 0xA (column 1);
/// // the third column is the low nibble of the next byte.
/// let mut out = [0i8; 3];
/// unpack_row_i4(&[0xA3, 0x0F], &mut out);
/// assert_eq!(out, [3 - 8, 0xA - 8, 0xF - 8]);
/// ```
pub fn unpack_row_i4(row: &[u8], out: &mut [i8]) {
    debug_assert!(row.len() >= out.len().div_ceil(2), "payload too short");
    // `raw <= 15`, so the subtract never wraps; `wrapping_sub` states the
    // (unreachable) overflow contract without a checked branch.
    let code = |raw: u8| i8::from_le_bytes([raw]).wrapping_sub(8);
    let (pairs, tail) = out.as_chunks_mut::<2>();
    let full_bytes = pairs.len();
    for ([lo, hi], &b) in pairs.iter_mut().zip(row) {
        *lo = code(b & 0x0F);
        *hi = code(b >> 4);
    }
    // Odd column count: the last code is the low nibble of the last byte.
    if let ([last], Some(&b)) = (tail, row.get(full_bytes)) {
        *last = code(b & 0x0F);
    }
}

/// Decodes a packed INT8 row (one biased code per byte) into `out.len()`
/// sign-extended values. Subtracting the `+128` storage bias modulo `2^8`
/// is exactly flipping bit 7, so the decode is one XOR per byte.
///
/// `row` must carry at least `out.len()` payload bytes; missing bytes
/// leave their outputs untouched (unreachable backstop, kept total).
pub fn unpack_row_i8(row: &[u8], out: &mut [i8]) {
    debug_assert!(row.len() >= out.len(), "payload too short");
    for (o, &b) in out.iter_mut().zip(row) {
        *o = i8::from_le_bytes([b ^ 0x80]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_unpack_i4_covers_all_codes() {
        // Every byte value: both nibbles of every (lo, hi) code pair.
        let packed: Vec<u8> = (0u8..=255).collect();
        let mut out = vec![0i8; 512];
        unpack_row_i4(&packed, &mut out);
        for (pair, &b) in out.chunks(2).zip(&packed) {
            let lo = i8::from_le_bytes([b & 0x0F]).wrapping_sub(8);
            let hi = i8::from_le_bytes([b >> 4]).wrapping_sub(8);
            assert_eq!(pair, [lo, hi], "byte {b:#04x}");
        }
    }

    #[test]
    fn row_unpack_i8_covers_all_codes() {
        let packed: Vec<u8> = (0u8..=255).collect();
        let mut out = vec![0i8; 256];
        unpack_row_i8(&packed, &mut out);
        for (&v, &b) in out.iter().zip(&packed) {
            let expect = i8::try_from(i16::from(b) - 128).expect("in i8 range");
            assert_eq!(v, expect, "raw {b}");
        }
    }

    #[test]
    fn row_unpack_interleaves_nibbles_low_first() {
        // Byte 0xA3 holds code 3 (low nibble, column 0) then 0xA (column 1).
        let mut out = [0i8; 16];
        unpack_row_i4(&[0xA3; 8], &mut out);
        for pair in out.chunks(2) {
            assert_eq!(pair, [3 - 8, 0xA - 8]);
        }
    }

    #[test]
    fn row_unpack_handles_ragged_tails() {
        // 37 columns: 18 full bytes + the low nibble of a 19th.
        let cols = 37usize;
        let codes: Vec<u8> = (0..cols).map(|c| u8::try_from(c % 16).expect("< 16")).collect();
        let mut packed = vec![0u8; cols.div_ceil(2)];
        for (c, &q) in codes.iter().enumerate() {
            packed[c / 2] |= q << (4 * (c % 2));
        }
        let mut out = vec![0i8; cols];
        unpack_row_i4(&packed, &mut out);
        let expect: Vec<i8> = codes
            .iter()
            .map(|&q| i8::from_le_bytes([q]).wrapping_sub(8))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn row_unpack_i8_matches_scalar() {
        let codes: Vec<u8> = (0..21u8).map(|c| c.wrapping_mul(37)).collect();
        let mut out = vec![0i8; codes.len()];
        unpack_row_i8(&codes, &mut out);
        let expect: Vec<i8> = codes
            .iter()
            .map(|&b| i8::try_from(i16::from(b) - 128).expect("in i8 range"))
            .collect();
        assert_eq!(out, expect);
    }
}
