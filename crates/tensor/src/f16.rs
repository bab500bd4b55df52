//! IEEE 754 binary16 (half precision) codec.
//!
//! The paper's FP16 baseline and the KV-cache's 16-bit storage path need a
//! faithful half-precision round trip. This is a self-contained software
//! implementation (round-to-nearest-even) — no `half` crate dependency.

/// Encodes an `f32` as IEEE 754 binary16 bits, rounding to nearest-even.
///
/// Values beyond the f16 range become signed infinity; NaN maps to a quiet
/// NaN.
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf or NaN.
        return if frac != 0 {
            sign | 0x7E00 // quiet NaN
        } else {
            sign | 0x7C00
        };
    }

    // Re-bias exponent: f32 bias 127, f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow to infinity
    }
    if unbiased >= -14 {
        // Normal f16. Keep 10 fraction bits, round to nearest even.
        let mut half_exp = (unbiased + 15) as u32;
        let mut half_frac = frac >> 13;
        let round_bits = frac & 0x1FFF;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half_frac & 1) == 1) {
            half_frac += 1;
            if half_frac == 0x400 {
                half_frac = 0;
                half_exp += 1;
                if half_exp >= 31 {
                    return sign | 0x7C00;
                }
            }
        }
        return sign | ((half_exp as u16) << 10) | (half_frac as u16);
    }

    // Subnormal f16 (or underflow to zero).
    if unbiased < -25 {
        return sign; // too small: signed zero
    }
    // Add the implicit leading 1 and shift into subnormal position.
    let full_frac = frac | 0x0080_0000;
    let shift = (-14 - unbiased) as u32 + 13;
    let mut half_frac = full_frac >> shift;
    let rem = full_frac & ((1u32 << shift) - 1);
    let halfway = 1u32 << (shift - 1);
    if rem > halfway || (rem == halfway && (half_frac & 1) == 1) {
        half_frac += 1; // may carry into the exponent, which is correct
    }
    sign | (half_frac as u16)
}

/// Decodes IEEE 754 binary16 bits to `f32`.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let frac = (bits & 0x03FF) as u32;

    let out = if exp == 0 {
        if frac == 0 {
            sign // signed zero
        } else {
            // Subnormal: value = frac * 2^-24. Normalize into f32: after k
            // left shifts the implicit leading 1 sits at bit 10 and the
            // value is 1.f x 2^(-14 - k).
            let mut e = -14i32;
            let mut f = frac;
            while f & 0x0400 == 0 {
                f <<= 1;
                e -= 1;
            }
            f &= 0x03FF;
            // e is in [-24, -14]: frac is a nonzero 10-bit value, so the
            // normalization loop shifts at most 10 times.
            let f32_exp = ((e + 127) as u32) << 23;
            sign | f32_exp | (f << 13)
        }
    } else if exp == 31 {
        if frac == 0 {
            sign | 0x7F80_0000 // infinity
        } else {
            sign | 0x7FC0_0000 // NaN
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(out)
}

/// Rounds an `f32` through f16 precision (encode + decode).
///
/// This is how the reproduction models "FP16" tensors: values are stored and
/// computed in f32 but snapped to the f16 grid wherever the paper keeps FP16
/// data (e.g. group scales, outlier channels before the INT8 refinement).
pub fn round_f16(v: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(round_f16(v), v, "integer {i} should be exact in f16");
        }
    }

    #[test]
    fn known_encodings() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // f16 max
        assert_eq!(f32_to_f16_bits(65536.0), 0x7C00); // overflow -> inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn subnormals() {
        // Smallest positive f16 subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(f16_bits_to_f32(0x0001), tiny);
        assert_eq!(f32_to_f16_bits(tiny), 0x0001);
        // Halfway below the smallest subnormal underflows to zero (ties-to-even).
        assert_eq!(f32_to_f16_bits(tiny / 2.0), 0x0000);
        // Largest subnormal.
        let max_sub = f16_bits_to_f32(0x03FF);
        assert_eq!(f32_to_f16_bits(max_sub), 0x03FF);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 (1 + 2^-10);
        // ties go to even (1.0).
        let halfway = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(round_f16(halfway), 1.0);
        // Slightly above the halfway point rounds up.
        let above = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-20);
        assert_eq!(round_f16(above), 1.0 + 2.0_f32.powi(-10));
    }

    #[test]
    fn roundtrip_error_bounded() {
        // Relative error of f16 rounding is at most 2^-11 for normal values.
        let mut v = 1e-3f32;
        while v < 1e4 {
            let r = round_f16(v);
            let rel = ((r - v) / v).abs();
            assert!(rel <= 2.0_f32.powi(-11) + 1e-9, "v={v} r={r} rel={rel}");
            v *= 1.37;
        }
    }

    #[test]
    fn all_f16_bit_patterns_roundtrip() {
        // Every finite f16 value must encode back to the same bits.
        for bits in 0..=0xFFFFu16 {
            let exp = (bits >> 10) & 0x1F;
            if exp == 31 {
                continue; // inf/NaN handled elsewhere
            }
            let v = f16_bits_to_f32(bits);
            let back = f32_to_f16_bits(v);
            // -0.0 and 0.0 keep their signs, so exact bit equality is expected.
            assert_eq!(back, bits, "bits {bits:#06x} -> {v} -> {back:#06x}");
        }
    }
}
