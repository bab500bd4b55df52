//! Atom's quantized linear layer: reorder → dynamic mixed-precision
//! quantization → fused low-bit GEMM.
//!
//! [`QuantizedLinear`] executes exactly the runtime workflow of paper
//! Fig. 6/7: the incoming activation is permuted so outlier channels sit at
//! the end (reorder indices fixed at calibration time), both regions are
//! quantized *dynamically* per token per group (§4.3) — the normal region to
//! the low-bit width, the outlier region to INT8 (§4.1) — and the product is
//! computed by the bit-exact fused group GEMM of `atom-kernels` against
//! statically quantized weights (GPTQ or RTN).
//!
//! The ablation variants of Table 3 are all expressible: no outliers,
//! FP16 outliers ([`OutlierMode::Fp16`]), INT8 outliers, per-channel instead
//! of per-group, clipping on or off.

use crate::calibrate::ReorderPlan;
use crate::gptq::{gptq_quantize, rtn_quantize, GptqConfig, QuantizedWeight};
use atom_kernels::gemm::mixed_gemm;
use atom_kernels::{GroupQuantized, QuantSpec};
use atom_nn::{DenseLinear, LinearLayer};
use atom_parallel::Pool;
use atom_telemetry::{names, span, Telemetry};
use atom_tensor::f16::round_f16;
use atom_tensor::Matrix;

/// How the outlier region is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutlierMode {
    /// No mixed precision: every channel goes through the low-bit path.
    None,
    /// Keep outlier channels in FP16 (the intermediate ablation step of
    /// Table 3).
    Fp16,
    /// Quantize outlier channels to INT8 (Atom's choice, §4.1).
    Int8,
}

/// Configuration of one Atom linear layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomLinearConfig {
    /// Weight quantization of the normal region (bits, group, clip).
    pub weight: QuantSpec,
    /// Dynamic activation quantization of the normal region.
    pub act: QuantSpec,
    /// Number of outlier channels kept in high precision.
    pub n_outliers: usize,
    /// Outlier handling mode.
    pub outlier_mode: OutlierMode,
    /// Whether weights go through GPTQ (needs a Gram matrix) or RTN.
    pub use_gptq: bool,
}

impl AtomLinearConfig {
    /// The paper's W4A4 recipe scaled to this reproduction's dimensions:
    /// group 16 (↙128 at 4096 channels), grid-searched clipping, INT8
    /// outliers, GPTQ. (Whole-model defaults live in
    /// `atom::pipeline::AtomScheme`; this helper mirrors them per layer.)
    pub fn w4a4(n_outliers: usize) -> Self {
        AtomLinearConfig {
            weight: QuantSpec::new(4, 16).with_clip(0.97),
            act: QuantSpec::new(4, 16),
            n_outliers,
            outlier_mode: OutlierMode::Int8,
            use_gptq: true,
        }
    }

    /// The W3A3 recipe.
    pub fn w3a3(n_outliers: usize) -> Self {
        AtomLinearConfig {
            weight: QuantSpec::new(3, 16).with_clip(0.97),
            act: QuantSpec::new(3, 16),
            n_outliers,
            outlier_mode: OutlierMode::Int8,
            use_gptq: true,
        }
    }
}

/// A linear layer executing Atom's quantized inference path.
///
/// # Example
///
/// Quantize a dense layer to W4A4 with two INT8 outlier channels and run a
/// forward pass; the quantized output stays close to the FP32 reference:
///
/// ```
/// use atom::{AtomLinearConfig, QuantizedLinear, ReorderPlan};
/// use atom_nn::{DenseLinear, LinearLayer};
/// use atom_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(1);
/// let dense = DenseLinear::new(rng.normal_matrix(24, 64, 0.0, 0.3));
/// let x = rng.normal_matrix(4, 64, 0.0, 1.0);
///
/// let plan = ReorderPlan::from_outlier_set(64, &[5, 40]);
/// let cfg = AtomLinearConfig {
///     use_gptq: false, // GPTQ needs a calibration Gram matrix
///     ..AtomLinearConfig::w4a4(2)
/// };
/// let q = QuantizedLinear::quantize(&dense, plan, None, &cfg);
///
/// let exact = dense.forward(&x);
/// let approx = q.forward(&x);
/// let rel = approx.sub(&exact).frob_norm() / exact.frob_norm();
/// assert!(rel < 0.15, "W4A4 forward error {rel}");
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    plan: ReorderPlan,
    weight: QuantizedWeight,
    /// FP16-rounded outlier weights when `outlier_mode == Fp16`.
    weight_fp_outlier: Option<Matrix>,
    act_normal: QuantSpec,
    act_outlier: QuantSpec,
    outlier_mode: OutlierMode,
    /// Static per-group activation scales (normal region, outlier region)
    /// computed at calibration time; `None` means dynamic quantization
    /// (Atom's choice, §4.3).
    act_static: Option<(Vec<f32>, Vec<f32>)>,
    in_features: usize,
    out_features: usize,
}

impl QuantizedLinear {
    /// Quantizes a dense layer.
    ///
    /// `plan` carries the calibration-derived channel permutation and
    /// outlier count; `gram` is the (un-reordered) Gram matrix for GPTQ, in
    /// the original channel order.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match the layer width, or GPTQ is
    /// requested without a Gram matrix.
    pub fn quantize(
        dense: &DenseLinear,
        plan: ReorderPlan,
        gram: Option<&[f64]>,
        cfg: &AtomLinearConfig,
    ) -> Self {
        let k = dense.in_features();
        assert_eq!(plan.channels(), k, "reorder plan width mismatch");
        assert_eq!(
            plan.n_outliers(),
            if cfg.outlier_mode == OutlierMode::None {
                0
            } else {
                cfg.n_outliers
            },
            "plan outlier count disagrees with config"
        );
        let w_reordered = plan.reorder_weight(dense.weight());
        let gram_reordered = gram.map(|g| plan.reorder_gram(g, k));

        let (quant_cols, fp_outlier) = match cfg.outlier_mode {
            OutlierMode::None => (k, None),
            OutlierMode::Int8 => (k, None),
            OutlierMode::Fp16 => {
                // The trailing outlier columns stay in FP16; only the
                // normal region is integer-quantized.
                let n_out = plan.n_outliers();
                let mut fp = w_reordered.slice_cols(k - n_out, k);
                fp.map_in_place(round_f16);
                (k - n_out, Some(fp))
            }
        };

        let gptq_cfg = GptqConfig {
            normal: cfg.weight,
            outlier: match cfg.outlier_mode {
                OutlierMode::Int8 if plan.n_outliers() > 0 => {
                    Some(QuantSpec::new(8, cfg.weight.group))
                }
                _ => None,
            },
            n_outliers: if cfg.outlier_mode == OutlierMode::Int8 {
                plan.n_outliers()
            } else {
                0
            },
            damp: 0.01,
        };
        let w_quant_region = w_reordered.slice_cols(0, quant_cols);
        let gram_region = gram_reordered
            .as_ref()
            .map(|g| slice_gram(g, k, quant_cols));
        let weight = if cfg.use_gptq {
            let g = gram_region
                .as_deref()
                .expect("GPTQ requested but no Gram matrix collected");
            gptq_quantize(&w_quant_region, Some(g), &gptq_cfg)
        } else {
            rtn_quantize(&w_quant_region, &gptq_cfg)
        };

        QuantizedLinear {
            plan,
            weight,
            weight_fp_outlier: fp_outlier,
            act_normal: cfg.act,
            act_outlier: QuantSpec::new(8, cfg.act.group),
            outlier_mode: cfg.outlier_mode,
            act_static: None,
            in_features: k,
            out_features: dense.out_features(),
        }
    }

    /// Switches the layer to *static* activation quantization: per-group
    /// scales are frozen from `calibration_sample` (rows of representative
    /// inputs in the original channel order) instead of being recomputed
    /// per token. This is the §4.3 counterfactual — the paper argues
    /// dynamic quantization is needed because "the actual input might have
    /// a different local distribution" — and exists for the ablation bench.
    ///
    /// # Panics
    ///
    /// Panics if the sample width disagrees with the layer.
    pub fn with_static_activations(mut self, calibration_sample: &Matrix) -> Self {
        assert_eq!(
            calibration_sample.cols(),
            self.in_features,
            "calibration sample width mismatch"
        );
        let xr = self.plan.reorder_activation(calibration_sample);
        let k_normal = self.in_features - self.plan.n_outliers();
        let normal = GroupQuantized::calibrate_shared_scales(
            &xr.slice_cols(0, k_normal),
            self.act_normal,
        );
        let outlier = if self.plan.n_outliers() > 0 {
            GroupQuantized::calibrate_shared_scales(
                &xr.slice_cols(k_normal, self.in_features),
                self.act_outlier,
            )
        } else {
            Vec::new()
        };
        self.act_static = Some((normal, outlier));
        self
    }

    /// Quantizes one region of `x` — its columns `cols`, a slice of the
    /// reorder plan's permutation — straight through the index list: the
    /// permuted activation is never materialized.
    fn quantize_act(&self, x: &Matrix, cols: &[usize], region: Region) -> GroupQuantized {
        let (spec, scales) = match region {
            Region::Normal => (self.act_normal, self.act_static.as_ref().map(|s| &s.0)),
            Region::Outlier => (self.act_outlier, self.act_static.as_ref().map(|s| &s.1)),
        };
        match scales {
            Some(shared) => {
                GroupQuantized::quantize_with_shared_scales(&x.gather_cols(cols), spec, shared)
            }
            // Dynamic per-token quantization is row-independent, so the
            // pool-parallel path packs the same bytes as the sequential one.
            None => GroupQuantized::quantize_gather_with(Pool::global(), x, cols, spec),
        }
    }

    /// The channel-reorder plan in use.
    pub fn plan(&self) -> &ReorderPlan {
        &self.plan
    }

    /// Real memory footprint of the stored weights, in bytes.
    pub fn weight_bytes(&self) -> usize {
        let mut bytes = self.weight.normal.packed_bytes();
        if let Some(o) = &self.weight.outlier {
            bytes += o.packed_bytes();
        }
        if let Some(fp) = &self.weight_fp_outlier {
            bytes += fp.len() * 2;
        }
        bytes
    }

    /// Effective bits per weight element including scales (paper §4.2).
    pub fn effective_weight_bits(&self) -> f64 {
        8.0 * self.weight_bytes() as f64 / (self.in_features * self.out_features) as f64
    }
}

#[derive(Clone, Copy)]
enum Region {
    Normal,
    Outlier,
}

/// Quantized outlier operand handed from the epilogue to the GEMM stage.
enum OutlierOperand {
    None,
    Int8(GroupQuantized),
    Fp16(Matrix),
}

fn slice_gram(g: &[f64], k: usize, take: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; take * take];
    for i in 0..take {
        out[i * take..(i + 1) * take].copy_from_slice(&g[i * k..i * k + take]);
    }
    out
}

impl LinearLayer for QuantizedLinear {
    fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_features, "input width mismatch");
        // Fused epilogue of the previous operator in the paper: each region
        // is dynamically quantized through the reorder permutation, in one
        // pass from `x` to packed codes + scales. The epilogue is timed
        // separately from the GEMM it feeds (Fig. 3's "dequant" slice), so
        // the quantization work finishes — and the timer stops — before the
        // fused GEMM starts.
        let t = Telemetry::global();
        let quant_timer = t.timer(names::OP_QUANT_WALL_NS);
        let quant_span = span!(names::SPAN_QUANT_EPILOGUE, rows = x.rows());
        t.counter_add(names::OP_QUANT_CALLS, 1);
        // Normal channels first, outlier channels last (§4.1).
        let (normal_cols, outlier_cols) = self.plan.perm().split_at(self.plan.n_normal());

        let qa_n = self.quantize_act(x, normal_cols, Region::Normal);
        let outlier = match self.outlier_mode {
            OutlierMode::Int8 if !outlier_cols.is_empty() => {
                OutlierOperand::Int8(self.quantize_act(x, outlier_cols, Region::Outlier))
            }
            OutlierMode::Fp16 => {
                let mut x_o = x.gather_cols(outlier_cols);
                x_o.map_in_place(round_f16);
                OutlierOperand::Fp16(x_o)
            }
            // No outlier channels: the plan's normal region is every channel.
            OutlierMode::None | OutlierMode::Int8 => OutlierOperand::None,
        };
        drop(quant_span);
        quant_timer.stop();

        match outlier {
            OutlierOperand::None => {
                mixed_gemm(&qa_n, &self.weight.normal, None).expect("shape-checked")
            }
            OutlierOperand::Int8(qa_o) => {
                let w_o = self.weight.outlier.as_ref().expect("outlier weights");
                mixed_gemm(&qa_n, &self.weight.normal, Some((&qa_o, w_o))).expect("shape-checked")
            }
            OutlierOperand::Fp16(x_o) => {
                let mut out =
                    mixed_gemm(&qa_n, &self.weight.normal, None).expect("shape-checked");
                let w_fp = self.weight_fp_outlier.as_ref().expect("fp outlier weights");
                out.add_scaled_in_place(&x_o.matmul_nt(w_fp), 1.0);
                out
            }
        }
    }

    fn in_features(&self) -> usize {
        self.in_features
    }

    fn out_features(&self) -> usize {
        self.out_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_tensor::SeededRng;

    /// Builds a dense layer plus activations with heavy outlier channels.
    fn outlier_scenario(seed: u64) -> (DenseLinear, Matrix, ReorderPlan) {
        let mut rng = SeededRng::new(seed);
        let (n, k) = (24, 64);
        let w = rng.normal_matrix(n, k, 0.0, 0.3);
        let mut x = rng.normal_matrix(12, k, 0.0, 1.0);
        // Channels 5 and 40 are outliers with 60x magnitude.
        for r in 0..x.rows() {
            x[(r, 5)] *= 60.0;
            x[(r, 40)] *= 60.0;
        }
        let plan = ReorderPlan::from_outlier_set(k, &[5, 40]);
        (DenseLinear::new(w), x, plan)
    }

    fn rel_err(a: &Matrix, b: &Matrix) -> f64 {
        (a.sub(b).frob_norm() / b.frob_norm()) as f64
    }

    #[test]
    fn mixed_precision_rescues_outliers() {
        let (dense, x, plan) = outlier_scenario(1);
        let exact = dense.forward(&x);

        // Atom with INT8 outliers.
        let cfg = AtomLinearConfig {
            n_outliers: 2,
            use_gptq: false,
            ..AtomLinearConfig::w4a4(2)
        };
        let atom = QuantizedLinear::quantize(&dense, plan.clone(), None, &cfg);
        let err_atom = rel_err(&atom.forward(&x), &exact);

        // Same bits with no outlier handling.
        let cfg_none = AtomLinearConfig {
            n_outliers: 0,
            outlier_mode: OutlierMode::None,
            use_gptq: false,
            ..AtomLinearConfig::w4a4(0)
        };
        let plain = QuantizedLinear::quantize(
            &dense,
            ReorderPlan::identity(64),
            None,
            &cfg_none,
        );
        let err_plain = rel_err(&plain.forward(&x), &exact);

        assert!(
            err_atom < err_plain / 2.0,
            "mixed precision should help: atom {err_atom} vs plain {err_plain}"
        );
        assert!(err_atom < 0.1, "atom error too large: {err_atom}");
    }

    #[test]
    fn fp16_and_int8_outliers_are_close() {
        // Table 3: quantizing outliers from FP16 to INT8 costs almost
        // nothing (0.05 ppl in the paper).
        let (dense, x, plan) = outlier_scenario(2);
        let exact = dense.forward(&x);
        let mk = |mode| {
            let cfg = AtomLinearConfig {
                n_outliers: 2,
                outlier_mode: mode,
                use_gptq: false,
                ..AtomLinearConfig::w4a4(2)
            };
            let q = QuantizedLinear::quantize(&dense, plan.clone(), None, &cfg);
            rel_err(&q.forward(&x), &exact)
        };
        let err_fp16 = mk(OutlierMode::Fp16);
        let err_int8 = mk(OutlierMode::Int8);
        assert!(
            (err_int8 - err_fp16).abs() < 0.25 * err_fp16.max(1e-3),
            "INT8 outliers should match FP16 closely: {err_int8} vs {err_fp16}"
        );
    }

    #[test]
    fn reorder_does_not_change_function_without_quantization_error() {
        // With 8-bit weights+activations and no clip the reordered path
        // must closely match the dense output even with no outliers.
        let mut rng = SeededRng::new(3);
        let dense = DenseLinear::new(rng.normal_matrix(8, 32, 0.0, 1.0));
        let x = rng.normal_matrix(4, 32, 0.0, 1.0);
        let plan = ReorderPlan::from_outlier_set(32, &[3, 17]);
        let cfg = AtomLinearConfig {
            weight: QuantSpec::new(8, 16),
            act: QuantSpec::new(8, 16),
            n_outliers: 2,
            outlier_mode: OutlierMode::Int8,
            use_gptq: false,
        };
        let q = QuantizedLinear::quantize(&dense, plan, None, &cfg);
        let err = rel_err(&q.forward(&x), &dense.forward(&x));
        assert!(err < 0.02, "8-bit path error {err}");
    }

    #[test]
    fn gptq_path_works_with_gram() {
        let (dense, x, plan) = outlier_scenario(4);
        // Gram from the activations themselves.
        let k = x.cols();
        let mut gram = vec![0.0f64; k * k];
        for r in 0..x.rows() {
            let row = x.row(r);
            for i in 0..k {
                for j in 0..k {
                    gram[i * k + j] += row[i] as f64 * row[j] as f64;
                }
            }
        }
        let cfg = AtomLinearConfig {
            n_outliers: 2,
            ..AtomLinearConfig::w4a4(2)
        };
        let q = QuantizedLinear::quantize(&dense, plan, Some(&gram), &cfg);
        let err = rel_err(&q.forward(&x), &dense.forward(&x));
        assert!(err < 0.12, "GPTQ path error {err}");
    }

    #[test]
    fn fused_epilogue_matches_the_copying_pipeline_bit_for_bit() {
        // forward() quantizes through the permutation; the definition it
        // replaces permutes, slices and quantizes copies. Same output bits,
        // at an odd width (37 = 32 normal + 5 outlier channels), for INT8
        // outliers, no outliers and static scales.
        let mut rng = SeededRng::new(7);
        let (n, k) = (9, 37);
        let dense = DenseLinear::new(rng.normal_matrix(n, k, 0.0, 0.3));
        let x = rng.normal_matrix(5, k, 0.0, 1.5);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let copying = |q: &QuantizedLinear| {
            let xp = q.plan.reorder_activation(&x);
            let k_normal = q.plan.n_normal();
            let quant = |m: &Matrix, spec, shared: Option<&Vec<f32>>| match shared {
                Some(s) => GroupQuantized::quantize_with_shared_scales(m, spec, s),
                None => GroupQuantized::quantize(m, spec),
            };
            let statics = q.act_static.as_ref();
            let qa_n = quant(&xp.slice_cols(0, k_normal), q.act_normal, statics.map(|s| &s.0));
            if q.plan.n_outliers() == 0 {
                return mixed_gemm(&qa_n, &q.weight.normal, None).expect("shapes agree");
            }
            let qa_o = quant(&xp.slice_cols(k_normal, k), q.act_outlier, statics.map(|s| &s.1));
            let w_o = q.weight.outlier.as_ref().expect("outlier weights");
            mixed_gemm(&qa_n, &q.weight.normal, Some((&qa_o, w_o))).expect("shapes agree")
        };

        let int8 = AtomLinearConfig {
            use_gptq: false,
            ..AtomLinearConfig::w4a4(5)
        };
        let plan = ReorderPlan::from_outlier_set(k, &[30, 2, 11, 36, 17]);
        let q = QuantizedLinear::quantize(&dense, plan.clone(), None, &int8);
        assert_eq!(bits(&q.forward(&x)), bits(&copying(&q)), "INT8 outliers");
        let q = q.with_static_activations(&x.scaled(0.7));
        assert_eq!(bits(&q.forward(&x)), bits(&copying(&q)), "static scales");

        let none = AtomLinearConfig {
            n_outliers: 0,
            outlier_mode: OutlierMode::None,
            ..int8
        };
        let q = QuantizedLinear::quantize(&dense, ReorderPlan::identity(k), None, &none);
        assert_eq!(bits(&q.forward(&x)), bits(&copying(&q)), "no outliers");
    }

    #[test]
    fn effective_bits_are_low() {
        let (dense, _, plan) = outlier_scenario(5);
        let cfg = AtomLinearConfig {
            n_outliers: 2,
            use_gptq: false,
            ..AtomLinearConfig::w4a4(2)
        };
        let q = QuantizedLinear::quantize(&dense, plan, None, &cfg);
        let eb = q.effective_weight_bits();
        // 4-bit body + 2/64 channels in INT8 + f16 scales per group of 16:
        // about 4 + 16/16 + small = ~5.2 bits.
        assert!(eb > 4.0 && eb < 6.0, "effective bits {eb}");
    }

    #[test]
    fn static_activations_work_but_lose_to_dynamic_on_shift() {
        // The §4.3 design point: static scales fit the calibration
        // distribution; dynamic scales adapt to the live input.
        let (dense, x, plan) = outlier_scenario(9);
        let exact = dense.forward(&x);
        let cfg = AtomLinearConfig {
            n_outliers: 2,
            use_gptq: false,
            ..AtomLinearConfig::w4a4(2)
        };
        let dynamic = QuantizedLinear::quantize(&dense, plan.clone(), None, &cfg);
        // Calibrate statics on a *scaled-down* sample to emulate
        // distribution shift between calibration and serving.
        let static_layer = QuantizedLinear::quantize(&dense, plan, None, &cfg)
            .with_static_activations(&x.scaled(0.2));
        let err_dyn = rel_err(&dynamic.forward(&x), &exact);
        let err_static = rel_err(&static_layer.forward(&x), &exact);
        assert!(
            err_static > err_dyn * 1.5,
            "static under shift should lose: {err_static} vs {err_dyn}"
        );
        // With a matching sample, static is usable (close to dynamic).
        let static_matched = QuantizedLinear::quantize(
            &dense,
            crate::calibrate::ReorderPlan::from_outlier_set(64, &[5, 40]),
            None,
            &cfg,
        )
        .with_static_activations(&x);
        let err_matched = rel_err(&static_matched.forward(&x), &exact);
        assert!(err_matched < err_dyn * 3.0, "{err_matched} vs {err_dyn}");
    }

    #[test]
    #[should_panic(expected = "reorder plan width mismatch")]
    fn plan_width_checked() {
        let mut rng = SeededRng::new(6);
        let dense = DenseLinear::new(rng.normal_matrix(4, 16, 0.0, 1.0));
        let plan = ReorderPlan::identity(8);
        let cfg = AtomLinearConfig {
            n_outliers: 0,
            outlier_mode: OutlierMode::None,
            use_gptq: false,
            ..AtomLinearConfig::w4a4(0)
        };
        QuantizedLinear::quantize(&dense, plan, None, &cfg);
    }
}
