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
//! The ablation variants of Table 3 are all points of one
//! [`AtomScheme`]: no outliers (an identity [`ReorderPlan`]), FP16 outliers
//! (`outlier_bits: None`), INT8 outliers, per-channel instead of per-group
//! (`group: usize::MAX`), clipping on or off.

use crate::calibrate::ReorderPlan;
use crate::gptq::{gptq_quantize_with, rtn_quantize, GptqConfig, GptqHessian};
use crate::pipeline::AtomScheme;
use atom_kernels::gemm::{lane_gemm, GemmRegion};
use atom_kernels::{ActivationLanes, GroupQuantized, QuantSpec, WeightPanels};
use atom_nn::linear::forward_each;
use atom_nn::{DenseLinear, LinearLayer};
use atom_telemetry::{names, span, Telemetry};
use atom_tensor::f16::round_f16;
use atom_tensor::Matrix;
use std::borrow::Cow;

/// A linear layer executing Atom's quantized inference path.
///
/// # Example
///
/// Quantize a dense layer to W4A4 with two INT8 outlier channels and run a
/// forward pass; the quantized output stays close to the FP32 reference:
///
/// ```
/// use atom::{AtomScheme, QuantizedLinear, ReorderPlan};
/// use atom_nn::{DenseLinear, LinearLayer};
/// use atom_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(1);
/// let dense = DenseLinear::new(rng.normal_matrix(24, 64, 0.0, 0.3));
/// let x = rng.normal_matrix(4, 64, 0.0, 1.0);
///
/// let plan = ReorderPlan::from_outlier_set(64, &[5, 40]);
/// let scheme = AtomScheme {
///     use_gptq: false, // GPTQ needs a calibration Gram matrix
///     ..AtomScheme::w4a4()
/// };
/// let q = QuantizedLinear::quantize(&dense, plan, None, &scheme);
///
/// let exact = dense.forward(&x);
/// let approx = q.forward(&x);
/// let rel = approx.sub(&exact).frob_norm() / exact.frob_norm();
/// assert!(rel < 0.15, "W4A4 forward error {rel}");
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    plan: ReorderPlan,
    /// The integer weights (normal region, INT8 outlier region), laid out
    /// panel-major as the GEMM reads them: the only copy kept of GPTQ's or
    /// RTN's output.
    panels: (WeightPanels, Option<WeightPanels>),
    /// FP16-rounded outlier weights when the outliers stay FP16.
    weight_fp_outlier: Option<Matrix>,
    act_normal: QuantSpec,
    /// Integer spec of the outlier region; `None` keeps it FP16.
    act_outlier: Option<QuantSpec>,
    /// Static per-group activation scales (normal region, outlier region)
    /// computed at calibration time; `None` means dynamic quantization
    /// (Atom's choice, §4.3).
    act_static: Option<(Vec<f32>, Vec<f32>)>,
    in_features: usize,
    out_features: usize,
}

/// What quantizing a linear takes from its input's calibration: the
/// reorder plan and, for GPTQ, the factorised Hessian over the channels
/// that quantize to integers. Both depend on the input alone, so the
/// linears that read one input — Q/K/V, gate/up — share one (see
/// [`QuantizedLinear::quantize_with`]).
#[derive(Debug, Clone)]
pub struct InputQuantization {
    plan: ReorderPlan,
    hessian: Option<GptqHessian>,
}

impl InputQuantization {
    /// The plan, and under GPTQ the factorised Hessian of `gram` (the
    /// un-reordered Gram matrix, in the original channel order).
    ///
    /// # Panics
    ///
    /// Panics if GPTQ is requested without a Gram matrix.
    pub fn new(plan: ReorderPlan, gram: Option<&[f64]>, scheme: &AtomScheme) -> Self {
        let hessian = scheme.use_gptq.then(|| {
            let gram = gram.expect("GPTQ requested but no Gram matrix collected");
            let k = plan.channels();
            let quant_cols = quantized_channels(&plan, scheme);
            let region = slice_gram(&plan.reorder_gram(gram, k), k, quant_cols);
            GptqHessian::new(Some(&region), quant_cols, GPTQ_DAMP)
        });
        InputQuantization { plan, hessian }
    }
}

/// GPTQ's dampening fraction for every Atom linear.
const GPTQ_DAMP: f64 = 0.01;

/// How GPTQ or RTN rounds a linear's integer-quantized weight channels
/// under `scheme`, reordered by `plan`.
fn weight_config(plan: &ReorderPlan, scheme: &AtomScheme) -> GptqConfig {
    let n_out = plan.n_outliers();
    let outlier = scheme.outlier_bits.map(|bits| QuantSpec::new(bits, scheme.group));
    GptqConfig {
        normal: QuantSpec::new(scheme.bits, scheme.group).with_clip(scheme.clip_w),
        outlier: outlier.filter(|_| n_out > 0),
        n_outliers: if outlier.is_some() { n_out } else { 0 },
        damp: GPTQ_DAMP,
    }
}

/// Leading channels of the reordered input that quantize to integers:
/// all of them, unless the outliers stay FP16.
fn quantized_channels(plan: &ReorderPlan, scheme: &AtomScheme) -> usize {
    match scheme.outlier_bits {
        None => plan.n_normal(),
        Some(_) => plan.channels(),
    }
}

impl QuantizedLinear {
    /// Quantizes a dense layer under `scheme`'s bit widths, group, clipping
    /// and weight rounding (GPTQ or RTN).
    ///
    /// `plan` carries the calibration-derived channel permutation and the
    /// outlier count (an identity plan means no mixed precision); `gram` is
    /// the (un-reordered) Gram matrix for GPTQ, in the original channel
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match the layer width, or GPTQ is
    /// requested without a Gram matrix.
    pub fn quantize(
        dense: &DenseLinear,
        plan: ReorderPlan,
        gram: Option<&[f64]>,
        scheme: &AtomScheme,
    ) -> Self {
        Self::quantize_with(dense, &InputQuantization::new(plan, gram, scheme), scheme)
    }

    /// [`quantize`](Self::quantize) with the plan and factorised Hessian of
    /// the layer's input already built (`scheme` must be the one `input`
    /// was built under): the same layer.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match the layer width, or `input` was
    /// built for another weight rounding than `scheme`'s.
    pub fn quantize_with(dense: &DenseLinear, input: &InputQuantization, scheme: &AtomScheme) -> Self {
        let plan = input.plan.clone();
        let k = dense.in_features();
        assert_eq!(plan.channels(), k, "reorder plan width mismatch");
        assert_eq!(input.hessian.is_some(), scheme.use_gptq, "input built under another scheme");
        let w_reordered = plan.reorder_weight(dense.weight());
        let outlier = scheme
            .outlier_bits
            .map(|bits| QuantSpec::new(bits, scheme.group));
        let quant_cols = quantized_channels(&plan, scheme);
        // The trailing outlier columns stay in FP16 when they are not
        // integer-quantized.
        let fp_outlier = (quant_cols < k).then(|| {
            let mut fp = w_reordered.slice_cols(quant_cols, k);
            fp.map_in_place(round_f16);
            fp
        });

        let gptq_cfg = weight_config(&plan, scheme);
        let w_quant_region = w_reordered.slice_cols(0, quant_cols);
        let weight = match &input.hessian {
            Some(hessian) => gptq_quantize_with(&w_quant_region, hessian, &gptq_cfg),
            None => rtn_quantize(&w_quant_region, &gptq_cfg),
        };

        QuantizedLinear {
            plan,
            panels: (
                WeightPanels::new(&weight.normal),
                weight.outlier.as_ref().map(WeightPanels::new),
            ),
            weight_fp_outlier: fp_outlier,
            act_normal: QuantSpec::new(scheme.act_bits, scheme.group).with_clip(scheme.clip_a),
            act_outlier: outlier,
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
        let outlier = match self.act_outlier {
            Some(spec) if self.plan.n_outliers() > 0 => GroupQuantized::calibrate_shared_scales(
                &xr.slice_cols(k_normal, self.in_features),
                spec,
            ),
            _ => Vec::new(),
        };
        self.act_static = Some((normal, outlier));
        self
    }

    /// The channel-reorder plan in use.
    pub fn plan(&self) -> &ReorderPlan {
        &self.plan
    }

    /// Packed footprint of the weights, in bytes: the integer regions as
    /// bit-packed codes with f16 scales, and the FP16 outliers.
    pub fn weight_bytes(&self) -> usize {
        let mut bytes = self.panels.0.packed_bytes();
        if let Some(o) = &self.panels.1 {
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

/// Quantizes one region of `x` — its columns `cols`, a slice of the reorder
/// plan's permutation — straight through the index list into the GEMM's
/// lanes: the permuted activation is never materialized, nor packed.
/// `shared` holds static scales, if any.
fn quantize_act(
    x: &Matrix,
    cols: &[usize],
    spec: QuantSpec,
    shared: Option<&Vec<f32>>,
) -> ActivationLanes {
    match shared {
        Some(shared) => ActivationLanes::decode(&GroupQuantized::quantize_with_shared_scales(
            &x.gather_cols(cols),
            spec,
            shared,
        )),
        // Dynamic per-token quantization is row-independent, so the
        // pool-parallel path writes the same lanes as the sequential one.
        None => ActivationLanes::quantize_gather(x, cols, spec),
    }
}

/// A quantized linear input, as the epilogue hands it to the GEMM: the
/// normal region in lanes, and the outlier region.
#[derive(Clone)]
struct Operand {
    normal: ActivationLanes,
    outlier: OutlierOperand,
}

/// Quantized outlier operand handed from the epilogue to the GEMM stage.
#[derive(Clone)]
enum OutlierOperand {
    None,
    Int(ActivationLanes),
    Fp16(Matrix),
}

impl Operand {
    /// The operand of rows `rows` of the input (rows quantize
    /// independently), or all of it without a row list.
    fn rows(&self, rows: Option<&[usize]>) -> Cow<'_, Operand> {
        let Some(rows) = rows else {
            return Cow::Borrowed(self);
        };
        Cow::Owned(Operand {
            normal: self.normal.gather_rows(rows),
            outlier: match &self.outlier {
                OutlierOperand::None => OutlierOperand::None,
                OutlierOperand::Int(a) => OutlierOperand::Int(a.gather_rows(rows)),
                OutlierOperand::Fp16(x) => OutlierOperand::Fp16(x.gather_rows(rows)),
            },
        })
    }
}

fn slice_gram(g: &[f64], k: usize, take: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; take * take];
    for i in 0..take {
        out[i * take..(i + 1) * take].copy_from_slice(&g[i * k..i * k + take]);
    }
    out
}

impl QuantizedLinear {
    /// Whether `self` and `other` quantize an input identically — equal
    /// reorder plans, activation specs and outlier treatment, and dynamic
    /// scales — so one quantization of it serves both.
    fn shares_input_with(&self, other: &QuantizedLinear) -> bool {
        let dynamic = |l: &QuantizedLinear| l.act_static.is_none();
        let integer = |l: &QuantizedLinear| l.act_outlier.is_some() || l.plan.n_outliers() == 0;
        dynamic(self)
            && dynamic(other)
            && integer(self)
            && integer(other)
            && self.plan == other.plan
            && self.act_normal == other.act_normal
            && self.act_outlier == other.act_outlier
    }

    /// The fused epilogue of the previous operator in the paper: each
    /// region of `x` is dynamically quantized through the reorder
    /// permutation, in one pass from `x` to the GEMM's lanes. The epilogue
    /// is timed separately from the GEMM it feeds (Fig. 3's "dequant"
    /// slice), so the quantization work finishes — and the timer stops —
    /// before the fused GEMM starts.
    fn quantize_input(&self, x: &Matrix) -> Operand {
        assert_eq!(x.cols(), self.in_features, "input width mismatch");
        let t = Telemetry::global();
        let quant_timer = t.timer(names::OP_QUANT_WALL_NS);
        let quant_span = span!(names::SPAN_QUANT_EPILOGUE, rows = x.rows());
        t.counter_add(names::OP_QUANT_CALLS, 1);
        // Normal channels first, outlier channels last (§4.1).
        let (normal_cols, outlier_cols) = self.plan.perm().split_at(self.plan.n_normal());

        let statics = self.act_static.as_ref();
        let normal = quantize_act(x, normal_cols, self.act_normal, statics.map(|s| &s.0));
        let outlier = match self.act_outlier {
            // No outlier channels: the plan's normal region is every channel.
            _ if outlier_cols.is_empty() => OutlierOperand::None,
            Some(spec) => {
                OutlierOperand::Int(quantize_act(x, outlier_cols, spec, statics.map(|s| &s.1)))
            }
            None => {
                let mut x_o = x.gather_cols(outlier_cols);
                x_o.map_in_place(round_f16);
                OutlierOperand::Fp16(x_o)
            }
        };
        drop(quant_span);
        quant_timer.stop();
        Operand { normal, outlier }
    }

    /// The fused GEMM of a quantized input against this layer's weights.
    fn gemm(&self, input: &Operand) -> Matrix {
        let normal = GemmRegion {
            act: &input.normal,
            panels: &self.panels.0,
        };
        match &input.outlier {
            OutlierOperand::None => lane_gemm(normal, None).expect("shape-checked"),
            OutlierOperand::Int(act) => {
                let outlier = GemmRegion {
                    act,
                    panels: self.panels.1.as_ref().expect("outlier weights"),
                };
                lane_gemm(normal, Some(outlier)).expect("shape-checked")
            }
            OutlierOperand::Fp16(x_o) => {
                let mut out = lane_gemm(normal, None).expect("shape-checked");
                let w_fp = self.weight_fp_outlier.as_ref().expect("fp outlier weights");
                out.add_scaled_in_place(&x_o.matmul_nt(w_fp), 1.0);
                out
            }
        }
    }
}

impl LinearLayer for QuantizedLinear {
    fn forward(&self, x: &Matrix) -> Matrix {
        self.gemm(&self.quantize_input(x))
    }

    /// Quantizes `x` once for every layer when they all quantize it alike
    /// (see `shares_input_with`: no static scales, no FP16 outliers); a
    /// layer with a row list takes those rows of the shared operand.
    /// Otherwise each layer runs its own forward.
    fn forward_shared(layers: &[(&Self, Option<&[usize]>)], x: &Matrix) -> Vec<Matrix> {
        let Some(&(first, _)) = layers.first() else {
            return Vec::new();
        };
        if !layers.iter().all(|(l, _)| first.shares_input_with(l)) {
            return forward_each(layers, x);
        }
        let input = first.quantize_input(x);
        layers.iter().map(|&(layer, rows)| layer.gemm(&input.rows(rows))).collect()
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
    use atom_kernels::gemm::mixed_gemm;
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

    /// The W4A4 recipe with RTN weights (GPTQ needs a Gram matrix).
    fn rtn() -> AtomScheme {
        AtomScheme {
            use_gptq: false,
            ..AtomScheme::w4a4()
        }
    }

    #[test]
    fn mixed_precision_rescues_outliers() {
        let (dense, x, plan) = outlier_scenario(1);
        let exact = dense.forward(&x);

        // Atom with INT8 outliers.
        let atom = QuantizedLinear::quantize(&dense, plan, None, &rtn());
        let err_atom = rel_err(&atom.forward(&x), &exact);

        // Same bits with no outlier handling.
        let plain = QuantizedLinear::quantize(&dense, ReorderPlan::identity(64), None, &rtn());
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
        let mk = |outlier_bits| {
            let scheme = AtomScheme {
                outlier_bits,
                ..rtn()
            };
            let q = QuantizedLinear::quantize(&dense, plan.clone(), None, &scheme);
            rel_err(&q.forward(&x), &exact)
        };
        let err_fp16 = mk(None);
        let err_int8 = mk(Some(8));
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
        let scheme = AtomScheme {
            bits: 8,
            act_bits: 8,
            clip_w: 1.0,
            ..rtn()
        };
        let q = QuantizedLinear::quantize(&dense, plan, None, &scheme);
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
        let q = QuantizedLinear::quantize(&dense, plan, Some(&gram), &AtomScheme::w4a4());
        let err = rel_err(&q.forward(&x), &dense.forward(&x));
        assert!(err < 0.12, "GPTQ path error {err}");
    }

    #[test]
    fn fused_epilogue_matches_the_copying_pipeline_bit_for_bit() {
        // forward() quantizes through the permutation; the definition it
        // replaces permutes, slices and quantizes copies, and multiplies
        // them against the row-major weights RTN rounds. Same output bits,
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
            let w = q.plan.reorder_weight(dense.weight()).slice_cols(0, quantized_channels(&q.plan, &rtn()));
            let w = rtn_quantize(&w, &weight_config(&q.plan, &rtn()));
            let statics = q.act_static.as_ref();
            let qa_n = quant(&xp.slice_cols(0, k_normal), q.act_normal, statics.map(|s| &s.0));
            if q.plan.n_outliers() == 0 {
                return mixed_gemm(&qa_n, &w.normal, None).expect("shapes agree");
            }
            let spec_o = q.act_outlier.expect("INT8 outliers");
            let qa_o = quant(&xp.slice_cols(k_normal, k), spec_o, statics.map(|s| &s.1));
            let w_o = w.outlier.as_ref().expect("outlier weights");
            mixed_gemm(&qa_n, &w.normal, Some((&qa_o, w_o))).expect("shapes agree")
        };

        let plan = ReorderPlan::from_outlier_set(k, &[30, 2, 11, 36, 17]);
        let q = QuantizedLinear::quantize(&dense, plan, None, &rtn());
        assert_eq!(bits(&q.forward(&x)), bits(&copying(&q)), "INT8 outliers");
        let q = q.with_static_activations(&x.scaled(0.7));
        assert_eq!(bits(&q.forward(&x)), bits(&copying(&q)), "static scales");

        let q = QuantizedLinear::quantize(&dense, ReorderPlan::identity(k), None, &rtn());
        assert_eq!(bits(&q.forward(&x)), bits(&copying(&q)), "no outliers");
    }

    #[test]
    fn forward_shared_equals_separate_forwards_bit_for_bit() {
        // One quantization of the input serves Q/K/V (the last block's Q
        // on the tail rows alone); layers that quantize it differently —
        // FP16 outliers, static scales, another plan — fall back to their
        // own forwards. Either way each output is that layer's forward of
        // its rows, bit for bit, at an odd width and at row counts whose
        // last GEMM row block holds 1, 3 and 4 rows.
        let mut rng = SeededRng::new(11);
        let k = 37;
        let plan = ReorderPlan::from_outlier_set(k, &[30, 2, 11, 36, 17]);
        let mut dense = |n| DenseLinear::new(rng.normal_matrix(n, k, 0.0, 0.3));
        let (dq, dk, dv) = (dense(24), dense(9), dense(9));
        let quantize = |d: &DenseLinear, plan: &ReorderPlan, scheme: &AtomScheme| {
            QuantizedLinear::quantize(d, plan.clone(), None, scheme)
        };
        let [q, kk, v] = [&dq, &dk, &dv].map(|d| quantize(d, &plan, &rtn()));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let check = |layers: &[(&QuantizedLinear, Option<&[usize]>)], x: &Matrix, what: &str| {
            let shared = QuantizedLinear::forward_shared(layers, x);
            assert_eq!(shared.len(), layers.len(), "{what}");
            for (out, &(layer, rows)) in shared.iter().zip(layers) {
                let alone = match rows {
                    Some(rows) => layer.forward(&x.gather_rows(rows)),
                    None => layer.forward(x),
                };
                assert_eq!(bits(out), bits(&alone), "{what}");
            }
        };
        for m in [1, 3, 4, 7, 13] {
            let x = rng.normal_matrix(m, k, 0.0, 1.5);
            check(&[(&q, None), (&kk, None), (&v, None)], &x, "Q/K/V");
            let tail: Vec<usize> = (0..m).step_by(3).collect();
            check(&[(&q, Some(&tail)), (&kk, None), (&v, None)], &x, "tail-gathered Q");

            let fp16 = AtomScheme { outlier_bits: None, ..rtn() };
            let (fq, fk) = (quantize(&dq, &plan, &fp16), quantize(&dk, &plan, &fp16));
            check(&[(&fq, None), (&fk, None)], &x, "FP16 outliers");
            let statics = kk.clone().with_static_activations(&x.scaled(0.7));
            check(&[(&q, None), (&statics, None)], &x, "static scales");
            let other = quantize(&dk, &ReorderPlan::from_outlier_set(k, &[1, 2, 3, 4, 5]), &rtn());
            check(&[(&q, None), (&other, Some(&tail))], &x, "unequal plans");
            let none = quantize(&dk, &ReorderPlan::identity(k), &rtn());
            check(&[(&none, None), (&none, Some(&tail))], &x, "no outliers");
        }
    }

    #[test]
    fn effective_bits_are_low() {
        let (dense, _, plan) = outlier_scenario(5);
        let q = QuantizedLinear::quantize(&dense, plan, None, &rtn());
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
        let dynamic = QuantizedLinear::quantize(&dense, plan.clone(), None, &rtn());
        // Calibrate statics on a *scaled-down* sample to emulate
        // distribution shift between calibration and serving.
        let static_layer = QuantizedLinear::quantize(&dense, plan, None, &rtn())
            .with_static_activations(&x.scaled(0.2));
        let err_dyn = rel_err(&dynamic.forward(&x), &exact);
        let err_static = rel_err(&static_layer.forward(&x), &exact);
        assert!(
            err_static > err_dyn * 1.5,
            "static under shift should lose: {err_static} vs {err_dyn}"
        );
        // With a matching sample, static is usable (close to dynamic).
        let plan = ReorderPlan::from_outlier_set(64, &[5, 40]);
        let static_matched =
            QuantizedLinear::quantize(&dense, plan, None, &rtn()).with_static_activations(&x);
        let err_matched = rel_err(&static_matched.forward(&x), &exact);
        assert!(err_matched < err_dyn * 3.0, "{err_matched} vs {err_dyn}");
    }

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins the offline pass to the bits it produced before its loops were
    /// restructured for speed: every linear's calibration Gram (the
    /// calibration forward and the Gram, as `f64` bits), then every
    /// quantized linear's codes and f16 scales (what is served, read back
    /// row-major from its panels), in the model's linear order. GPTQ's factorisations reach the codes only
    /// where a rounding flips; `gptq`'s oracle tests pin their bits directly.
    #[test]
    fn w4a4_quantization_of_a_zoo_model_is_pinned() {
        use crate::pipeline::{AnyLinear, AtomScheme, Scheme};
        use crate::Calibration;
        use atom_nn::zoo::ZooId;
        let mut dense = atom_nn::LlamaModel::random_init(ZooId::Tiny.config(), 0xA70);
        atom_nn::transform::inject_outliers(&mut dense, &ZooId::Tiny.outlier_spec());
        let sequences: Vec<Vec<u16>> = (0..8)
            .map(|s| (0..32).map(|i| ((s * 37 + i * 11 + i * i) % 96) as u16).collect())
            .collect();
        let calibration = Calibration::collect(&dense, &sequences, true, 2);
        let quantized = Scheme::Atom(AtomScheme::w4a4()).quantize(&dense, &calibration);
        let mut grams = Vec::new();
        dense.visit_linears(|id, _| {
            let gram = calibration.linear(id).and_then(|c| c.gram.as_ref());
            let gram = gram.expect("every linear has a Gram");
            grams.extend(gram.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        });
        let mut weights = Vec::new();
        quantized.model.visit_linears(|_, l| {
            let AnyLinear::Atom(q) = l else {
                panic!("W4A4 quantizes every linear");
            };
            for region in std::iter::once(&q.panels.0).chain(&q.panels.1) {
                let region = region.row_major();
                weights.extend(region.values().unpack().iter().map(|&c| c.to_le_bytes()[0]));
                let scales = region.scales().as_slice().iter();
                weights.extend(scales.flat_map(|s| s.to_bits().to_le_bytes()));
            }
        });
        assert_eq!(
            (fnv1a(grams), fnv1a(weights)),
            (0x2218_5f7c_9419_d605, 0x45e4_bed1_f333_b515)
        );
    }

    #[test]
    #[should_panic(expected = "reorder plan width mismatch")]
    fn plan_width_checked() {
        let mut rng = SeededRng::new(6);
        let dense = DenseLinear::new(rng.normal_matrix(4, 16, 0.0, 1.0));
        let plan = ReorderPlan::identity(8);
        QuantizedLinear::quantize(&dense, plan, None, &rtn());
    }
}
