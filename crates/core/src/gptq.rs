//! GPTQ weight quantization with group-aware error compensation.
//!
//! Atom applies GPTQ (Frantar et al.) to weight matrices after reordering
//! (paper §4.3, §5.1): columns are quantized one at a time and the rounding
//! error of each column is propagated into the not-yet-quantized columns via
//! the inverse Hessian `H⁻¹ = (2 X^T X + λI)⁻¹`, so later columns absorb the
//! damage. This module implements the exact algorithm in f64 — Cholesky
//! factorization of `H⁻¹`, sequential column quantization, per-group scales
//! recomputed when entering each group — supporting Atom's two-region
//! layout: the leading `k - outliers` columns quantize at the normal bit
//! width, the trailing outlier columns at INT8, with error compensation
//! flowing across the boundary.

use atom_kernels::group::{code_levels, code_max, code_min};
use atom_kernels::{GroupQuantized, PackedMatrix, QuantSpec};
use atom_tensor::f16::round_f16;
use atom_tensor::Matrix;

/// Configuration of one GPTQ run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GptqConfig {
    /// Quantization of the normal (leading) region.
    pub normal: QuantSpec,
    /// Quantization of the outlier (trailing) region; `None` when the
    /// weight has no outlier region.
    pub outlier: Option<QuantSpec>,
    /// Number of trailing outlier columns.
    pub n_outliers: usize,
    /// Dampening fraction of the mean Hessian diagonal (GPTQ's `percdamp`,
    /// typically 0.01).
    pub damp: f64,
}

impl GptqConfig {
    /// Config with no outlier region.
    pub fn uniform(spec: QuantSpec) -> Self {
        GptqConfig {
            normal: spec,
            outlier: None,
            n_outliers: 0,
            damp: 0.01,
        }
    }
}

/// Result of quantizing one weight matrix: the normal-region container and,
/// if configured, the outlier-region container.
#[derive(Debug, Clone)]
pub struct QuantizedWeight {
    /// Leading `k - n_outliers` columns at the normal bit width.
    pub normal: GroupQuantized,
    /// Trailing outlier columns at the outlier bit width.
    pub outlier: Option<GroupQuantized>,
}

impl QuantizedWeight {
    /// Dequantizes and re-concatenates both regions (reordered layout).
    pub fn dequantize(&self) -> Matrix {
        let n = self.normal.dequantize();
        match &self.outlier {
            Some(o) => n.hstack(&o.dequantize()),
            None => n,
        }
    }
}

/// Quantizes `w` (`n x k`, already reordered) with GPTQ against the Gram
/// matrix `gram` (`k x k`, already reordered; pass `None` to fall back to
/// the identity, which degenerates GPTQ to plain RTN).
///
/// # Panics
///
/// Panics on shape mismatches or invalid specs.
pub fn gptq_quantize(w: &Matrix, gram: Option<&[f64]>, cfg: &GptqConfig) -> QuantizedWeight {
    let (n, k) = w.shape();
    cfg.normal.validate().expect("invalid normal spec");
    if let Some(o) = &cfg.outlier {
        o.validate().expect("invalid outlier spec");
    }
    assert!(cfg.n_outliers <= k, "outliers exceed columns");
    assert!(
        (cfg.outlier.is_some() && cfg.n_outliers > 0) || cfg.n_outliers == 0,
        "n_outliers > 0 requires an outlier spec"
    );
    let k_normal = k - cfg.n_outliers;

    // Build the damped Hessian (2 X^T X; the factor 2 cancels in the
    // algorithm so the Gram matrix itself works).
    let mut h = match gram {
        Some(g) => {
            assert_eq!(g.len(), k * k, "gram shape mismatch");
            g.to_vec()
        }
        None => {
            let mut id = vec![0.0f64; k * k];
            for i in 0..k {
                id[i * k + i] = 1.0;
            }
            id
        }
    };
    let mean_diag: f64 = (0..k).map(|i| h[i * k + i]).sum::<f64>() / k as f64;
    let lambda = (cfg.damp * mean_diag).max(1e-8);
    let mut w_work: Vec<f64> = w.as_slice().iter().map(|&v| v as f64).collect();
    for i in 0..k {
        if h[i * k + i] <= 0.0 {
            // Dead channel: never activated during calibration. Freeze the
            // column at zero and decouple it from the Hessian.
            for row in 0..n {
                w_work[row * k + i] = 0.0;
            }
            for j in 0..k {
                h[i * k + j] = 0.0;
                h[j * k + i] = 0.0;
            }
            h[i * k + i] = 1.0;
        }
        h[i * k + i] += lambda;
    }

    // U = upper Cholesky factor of H⁻¹ (the quantity GPTQ's updates use).
    let hinv = invert_spd(&h, k);
    let u = upper_cholesky(&hinv, k);

    // Sequential column quantization with group scales computed on entry.
    let mut codes = vec![0i8; n * k];
    let norm_groups = region_groups(k_normal, cfg.normal.group);
    let out_groups = cfg
        .outlier
        .map(|spec| region_groups(cfg.n_outliers, spec.group))
        .unwrap_or_default();
    let mut norm_scales = Matrix::zeros(n, norm_groups.len().max(1));
    let mut out_scales = Matrix::zeros(n, out_groups.len().max(1));
    let mut scales = vec![0.0f32; n]; // active scale per row
    let mut qlo = 0f64;
    let mut qhi = 0f64;

    for j in 0..k {
        // Entering a new group: recompute the scales from the *current*
        // (error-compensated) weights of the group's columns.
        let (spec, region_start, groups, scale_mat, group_idx) = if j < k_normal {
            let gi = find_group(&norm_groups, j);
            (
                cfg.normal,
                0usize,
                &norm_groups,
                &mut norm_scales,
                gi,
            )
        } else {
            let spec = cfg.outlier.expect("outlier spec present");
            let gi = find_group(&out_groups, j - k_normal);
            (spec, k_normal, &out_groups, &mut out_scales, gi)
        };
        let (g_start, g_end) = groups[group_idx];
        if j == region_start + g_start {
            let levels = f64::from(code_levels(spec.bits));
            for row in 0..n {
                let mut amax = 0.0f64;
                for c in g_start..g_end {
                    amax = amax.max(w_work[row * k + region_start + c].abs());
                }
                let mut s = 2.0 * amax * spec.clip as f64 / levels;
                if s <= 0.0 {
                    s = 1.0;
                }
                let s = round_f16(s as f32).max(f32::MIN_POSITIVE);
                scales[row] = s;
                scale_mat[(row, group_idx)] = s;
            }
            qlo = f64::from(code_min(spec.bits));
            qhi = f64::from(code_max(spec.bits));
        }

        let d = u[j * k + j];
        for row in 0..n {
            let wv = w_work[row * k + j];
            let s = scales[row] as f64;
            let q = (wv / s).round().clamp(qlo, qhi);
            codes[row * k + j] = q as i8;
            let dequant = q * s;
            let err = (wv - dequant) / d;
            // Propagate the rounding error into the remaining columns.
            let urow = &u[j * k..(j + 1) * k];
            let wrow = &mut w_work[row * k..(row + 1) * k];
            for l in (j + 1)..k {
                wrow[l] -= err * urow[l];
            }
        }
    }

    // Assemble containers.
    let mut norm_packed = PackedMatrix::zeros(n, k_normal, cfg.normal.bits);
    for row in 0..n {
        for c in 0..k_normal {
            norm_packed.set(row, c, codes[row * k + c]);
        }
    }
    let normal = GroupQuantized::from_parts(cfg.normal, norm_packed, norm_scales);
    let outlier = cfg.outlier.map(|spec| {
        let mut packed = PackedMatrix::zeros(n, cfg.n_outliers, spec.bits);
        for row in 0..n {
            for c in 0..cfg.n_outliers {
                packed.set(row, c, codes[row * k + k_normal + c]);
            }
        }
        GroupQuantized::from_parts(spec, packed, out_scales)
    });
    QuantizedWeight { normal, outlier }
}

/// RTN (round-to-nearest) region quantization: the non-GPTQ baseline with
/// the same two-region layout.
pub fn rtn_quantize(w: &Matrix, cfg: &GptqConfig) -> QuantizedWeight {
    let k = w.cols();
    let k_normal = k - cfg.n_outliers;
    let normal = GroupQuantized::quantize(&w.slice_cols(0, k_normal), cfg.normal);
    let outlier = cfg
        .outlier
        .map(|spec| GroupQuantized::quantize(&w.slice_cols(k_normal, k), spec));
    QuantizedWeight { normal, outlier }
}

/// Group boundaries `(start, end)` within a region of `len` columns.
fn region_groups(len: usize, group: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let group = group.min(len);
    let mut out = Vec::new();
    let mut start = 0;
    while start < len {
        out.push((start, (start + group).min(len)));
        start += group;
    }
    out
}

fn find_group(groups: &[(usize, usize)], col: usize) -> usize {
    groups
        .iter()
        .position(|&(s, e)| col >= s && col < e)
        .expect("column inside a group")
}

/// Lower Cholesky factorization of a symmetric positive-definite matrix.
///
/// # Panics
///
/// Panics if the matrix is not positive definite (after damping this
/// indicates corrupt calibration data).
fn lower_cholesky(a: &[f64], k: usize) -> Vec<f64> {
    let mut l = vec![0.0f64; k * k];
    for i in 0..k {
        for j in 0..=i {
            let mut sum = a[i * k + j];
            for p in 0..j {
                sum -= l[i * k + p] * l[j * k + p];
            }
            if i == j {
                assert!(sum > 0.0, "matrix not positive definite at {i} (sum {sum})");
                l[i * k + i] = sum.sqrt();
            } else {
                l[i * k + j] = sum / l[j * k + j];
            }
        }
    }
    l
}

/// Inverse of a symmetric positive-definite matrix via Cholesky.
fn invert_spd(a: &[f64], k: usize) -> Vec<f64> {
    let l = lower_cholesky(a, k);
    // Solve L y = e_i, then L^T x = y, column by column.
    let mut inv = vec![0.0f64; k * k];
    let mut y = vec![0.0f64; k];
    for col in 0..k {
        // Forward substitution.
        for i in 0..k {
            let mut sum = if i == col { 1.0 } else { 0.0 };
            for p in 0..i {
                sum -= l[i * k + p] * y[p];
            }
            y[i] = sum / l[i * k + i];
        }
        // Back substitution.
        for i in (0..k).rev() {
            let mut sum = y[i];
            for p in (i + 1)..k {
                sum -= l[p * k + i] * inv[p * k + col];
            }
            inv[i * k + col] = sum / l[i * k + i];
        }
    }
    inv
}

/// Upper Cholesky factor `U` with `A = U^T U` (the transpose of the lower
/// factor, matching `torch.linalg.cholesky(..., upper=True)` that GPTQ's
/// reference implementation uses).
fn upper_cholesky(a: &[f64], k: usize) -> Vec<f64> {
    let l = lower_cholesky(a, k);
    let mut u = vec![0.0f64; k * k];
    for i in 0..k {
        for j in 0..=i {
            u[j * k + i] = l[i * k + j];
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_tensor::SeededRng;

    fn gram_of(x: &Matrix) -> Vec<f64> {
        let k = x.cols();
        let mut g = vec![0.0f64; k * k];
        for r in 0..x.rows() {
            let row = x.row(r);
            for i in 0..k {
                for j in 0..k {
                    g[i * k + j] += row[i] as f64 * row[j] as f64;
                }
            }
        }
        g
    }

    #[test]
    fn cholesky_roundtrip() {
        let mut rng = SeededRng::new(1);
        let x = rng.normal_matrix(20, 6, 0.0, 1.0);
        let mut g = gram_of(&x);
        for i in 0..6 {
            g[i * 6 + i] += 0.5;
        }
        let l = lower_cholesky(&g, 6);
        // L L^T == G.
        for i in 0..6 {
            for j in 0..6 {
                let mut s = 0.0;
                for p in 0..6 {
                    s += l[i * 6 + p] * l[j * 6 + p];
                }
                assert!((s - g[i * 6 + j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn spd_inverse_correct() {
        let mut rng = SeededRng::new(2);
        let x = rng.normal_matrix(30, 5, 0.0, 1.0);
        let mut g = gram_of(&x);
        for i in 0..5 {
            g[i * 5 + i] += 1.0;
        }
        let inv = invert_spd(&g, 5);
        for i in 0..5 {
            for j in 0..5 {
                let mut s = 0.0;
                for p in 0..5 {
                    s += g[i * 5 + p] * inv[p * 5 + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-8, "({i},{j}) -> {s}");
            }
        }
    }

    #[test]
    fn upper_cholesky_factorizes() {
        let mut rng = SeededRng::new(3);
        let x = rng.normal_matrix(30, 5, 0.0, 1.0);
        let mut g = gram_of(&x);
        for i in 0..5 {
            g[i * 5 + i] += 1.0;
        }
        let u = upper_cholesky(&g, 5);
        // U must be upper triangular and U^T U == G.
        for i in 0..5 {
            for j in 0..i {
                assert_eq!(u[i * 5 + j], 0.0, "not upper triangular");
            }
        }
        for i in 0..5 {
            for j in 0..5 {
                let mut s = 0.0;
                for p in 0..5 {
                    s += u[p * 5 + i] * u[p * 5 + j];
                }
                assert!((s - g[i * 5 + j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gptq_with_identity_gram_matches_rtn() {
        let mut rng = SeededRng::new(4);
        let w = rng.normal_matrix(6, 32, 0.0, 1.0);
        let cfg = GptqConfig::uniform(QuantSpec::new(4, 8));
        let g = gptq_quantize(&w, None, &cfg);
        let r = rtn_quantize(&w, &cfg);
        // With H = I there is no error propagation, so GPTQ == RTN.
        let gd = g.dequantize();
        let rd = r.dequantize();
        for (a, b) in gd.as_slice().iter().zip(rd.as_slice()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn gptq_beats_rtn_on_correlated_inputs() {
        let mut rng = SeededRng::new(5);
        // Strongly correlated activations: X = base + small noise.
        let base = rng.normal_matrix(1, 48, 0.0, 1.0);
        let mut x = Matrix::zeros(200, 48);
        for r in 0..200 {
            let coeff = rng.normal_f32(1.0, 0.5);
            for c in 0..48 {
                x[(r, c)] = base[(0, c)] * coeff + rng.normal_f32(0.0, 0.2);
            }
        }
        let w = rng.normal_matrix(16, 48, 0.0, 1.0);
        let gram = gram_of(&x);
        let cfg = GptqConfig::uniform(QuantSpec::new(3, 16));
        let gq = gptq_quantize(&w, Some(&gram), &cfg);
        let rq = rtn_quantize(&w, &cfg);
        let exact = x.matmul_nt(&w);
        let err_g = x.matmul_nt(&gq.dequantize()).sub(&exact).frob_norm();
        let err_r = x.matmul_nt(&rq.dequantize()).sub(&exact).frob_norm();
        assert!(
            err_g < err_r * 0.9,
            "GPTQ {err_g} should beat RTN {err_r} on correlated data"
        );
    }

    #[test]
    fn two_region_layout_shapes() {
        let mut rng = SeededRng::new(6);
        let w = rng.normal_matrix(4, 40, 0.0, 1.0);
        let cfg = GptqConfig {
            normal: QuantSpec::new(4, 8),
            outlier: Some(QuantSpec::new(8, 8)),
            n_outliers: 8,
            damp: 0.01,
        };
        let q = gptq_quantize(&w, None, &cfg);
        assert_eq!(q.normal.cols(), 32);
        assert_eq!(q.normal.spec().bits, 4);
        let o = q.outlier.as_ref().unwrap();
        assert_eq!(o.cols(), 8);
        assert_eq!(o.spec().bits, 8);
        assert_eq!(q.dequantize().shape(), (4, 40));
    }

    #[test]
    fn outlier_region_gets_higher_fidelity() {
        let mut rng = SeededRng::new(7);
        // Outlier columns (trailing 8) have 50x magnitude.
        let mut w = rng.normal_matrix(8, 32, 0.0, 1.0);
        for r in 0..8 {
            for c in 24..32 {
                w[(r, c)] *= 50.0;
            }
        }
        let cfg = GptqConfig {
            normal: QuantSpec::new(4, 8),
            outlier: Some(QuantSpec::new(8, 8)),
            n_outliers: 8,
            damp: 0.01,
        };
        let q = gptq_quantize(&w, None, &cfg);
        let d = q.dequantize();
        // Outlier region relative error should be much smaller than the
        // normal region's (8-bit vs 4-bit grids).
        let rel = |lo: usize, hi: usize| {
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            for r in 0..8 {
                for c in lo..hi {
                    num += ((d[(r, c)] - w[(r, c)]) as f64).powi(2);
                    den += (w[(r, c)] as f64).powi(2);
                }
            }
            (num / den).sqrt()
        };
        assert!(rel(24, 32) < rel(0, 24) / 4.0);
    }

    #[test]
    fn dead_channels_are_frozen() {
        let mut rng = SeededRng::new(8);
        let w = rng.normal_matrix(4, 16, 0.0, 1.0);
        // Gram with two dead channels (rows/cols of zeros).
        let x = {
            let mut x = rng.normal_matrix(50, 16, 0.0, 1.0);
            for r in 0..50 {
                x[(r, 3)] = 0.0;
                x[(r, 10)] = 0.0;
            }
            x
        };
        let gram = gram_of(&x);
        let cfg = GptqConfig::uniform(QuantSpec::new(4, 16));
        let q = gptq_quantize(&w, Some(&gram), &cfg);
        let d = q.dequantize();
        for r in 0..4 {
            assert_eq!(d[(r, 3)], 0.0);
            assert_eq!(d[(r, 10)], 0.0);
        }
    }
}
