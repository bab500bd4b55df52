//! Whole-model quantization pipeline and scheme registry.
//!
//! This module turns a trained FP32 `LlamaModel<DenseLinear>` into a
//! runnable quantized model under any of the paper's schemes — Atom itself
//! (INT or FP4 format, W4A4/W3A3), and the baselines it is compared against
//! (RTN, SmoothQuant, OmniQuant-like clipped RTN, AWQ-style W4A16) — plus
//! the Table 3 ablation ladder. Every accuracy number in the reproduction's
//! tables comes through [`Scheme::quantize`] followed by the evaluation
//! helpers on [`QuantizedModel`].

use crate::baselines::FakeQuantLinear;
use crate::calibrate::{Calibration, ReorderPlan};
use crate::fp4::Fp4AtomLinear;
use crate::kv::QuantizedKvCache;
use crate::qlinear::{AtomLinearConfig, OutlierMode, QuantizedLinear};
use atom_data::{TaskSuite, Tokenizer};
use atom_kernels::QuantSpec;
use atom_nn::kv::Fp32KvCache;
use atom_nn::model::LinearId;
use atom_nn::{eval, DenseLinear, KvStore, LinearLayer, LlamaModel};
use atom_tensor::Matrix;

/// Numeric format of Atom's normal (low-bit) region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFormat {
    /// Signed integers (INT4/INT3) on the bit-exact kernel path.
    Int,
    /// FP4 E2M1 through fake quantization (Table 4 "Atom (FP)").
    Fp4,
}

/// Full Atom scheme configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomScheme {
    /// Bit width of the normal region (4 or 3 in the paper).
    pub bits: u8,
    /// Activation bit width of the normal region; usually equal to `bits`
    /// (the paper's W4A4/W3A3), but e.g. 8 gives the W4A8 operating point
    /// later systems (QServe) build on.
    pub act_bits: u8,
    /// Group size (128 in the paper at 4096 channels; 16 here, the same
    /// 1/256 fraction of the channel dimension — see DESIGN.md).
    pub group: usize,
    /// Fraction of channels kept as outliers (128/4096 = 3.1% in the
    /// paper).
    pub outlier_frac: f64,
    /// Lower bound on outlier channels per linear.
    pub min_outliers: usize,
    /// Outlier handling.
    pub outlier_mode: OutlierMode,
    /// Clipping factor for weights (paper's grid search found 0.85 at
    /// group 128 / 4096 channels; ours finds 0.97 at group 16 — smaller
    /// groups track local ranges already, leaving almost no tail to clip).
    pub clip_w: f32,
    /// Clipping factor for activations (paper: 0.9; our grid search finds
    /// clipping activations does not pay at group 16, so 1.0).
    pub clip_a: f32,
    /// Whether weights go through GPTQ.
    pub use_gptq: bool,
    /// KV-cache quantization bits (`None` keeps the FP16 cache).
    pub kv_bits: Option<u8>,
    /// Normal-region number format.
    pub format: DataFormat,
}

impl AtomScheme {
    /// The paper's full W4A4 recipe.
    pub fn w4a4() -> Self {
        AtomScheme {
            bits: 4,
            act_bits: 4,
            group: 16,
            outlier_frac: 1.0 / 12.0,
            min_outliers: 6,
            outlier_mode: OutlierMode::Int8,
            clip_w: 0.97,
            clip_a: 1.0,
            use_gptq: true,
            kv_bits: Some(4),
            format: DataFormat::Int,
        }
    }

    /// The paper's W3A3 recipe (KV stays INT4, as 3-bit KV is not
    /// evaluated in the paper).
    pub fn w3a3() -> Self {
        AtomScheme {
            bits: 3,
            act_bits: 3,
            ..AtomScheme::w4a4()
        }
    }

    /// W4A8: 4-bit weights with 8-bit activations — the operating point the
    /// paper's INT8-activation related work (and follow-on systems) target.
    /// KV stays INT8 to match the activation precision.
    pub fn w4a8() -> Self {
        AtomScheme {
            bits: 4,
            act_bits: 8,
            kv_bits: Some(8),
            ..AtomScheme::w4a4()
        }
    }

    /// W4A4 in the FP4 data format (Table 4 "Atom (FP)").
    pub fn fp4() -> Self {
        AtomScheme {
            format: DataFormat::Fp4,
            ..AtomScheme::w4a4()
        }
    }

    /// Outlier count for a linear with `k` input channels.
    pub fn outliers_for(&self, k: usize) -> usize {
        if self.outlier_mode == OutlierMode::None {
            return 0;
        }
        ((k as f64 * self.outlier_frac) as usize)
            .max(self.min_outliers)
            .min(k / 2)
    }
}

/// A quantization scheme: Atom or one of the paper's baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Unquantized baseline (FP16 in the paper; FP32 weights here with the
    /// same role).
    Fp16,
    /// Round-to-nearest: per-channel weights, per-token activations.
    Rtn {
        /// Weight bits.
        w_bits: u8,
        /// Activation bits.
        a_bits: u8,
    },
    /// SmoothQuant with per-linear alpha grid search.
    SmoothQuant {
        /// Weight bits.
        w_bits: u8,
        /// Activation bits.
        a_bits: u8,
    },
    /// OmniQuant-like: RTN with tuned clipping factors.
    OmniQuantLike {
        /// Weight bits.
        w_bits: u8,
        /// Activation bits.
        a_bits: u8,
    },
    /// AWQ-style weight-only quantization (activations FP16).
    WeightOnly {
        /// Weight bits.
        w_bits: u8,
        /// Weight group size.
        group: usize,
    },
    /// Atom.
    Atom(AtomScheme),
}

impl Scheme {
    /// Display label used in table output.
    pub fn label(&self) -> String {
        match self {
            Scheme::Fp16 => "FP16".into(),
            Scheme::Rtn { w_bits, a_bits } => format!("RTN W{w_bits}A{a_bits}"),
            Scheme::SmoothQuant { w_bits, a_bits } => format!("SmoothQuant W{w_bits}A{a_bits}"),
            Scheme::OmniQuantLike { w_bits, a_bits } => format!("OmniQuant* W{w_bits}A{a_bits}"),
            Scheme::WeightOnly { w_bits, .. } => format!("AWQ* W{w_bits}A16"),
            Scheme::Atom(a) => match a.format {
                DataFormat::Int => format!("Atom W{}A{}", a.bits, a.act_bits),
                DataFormat::Fp4 => "Atom (FP4)".into(),
            },
        }
    }

    /// Quantizes a dense model under this scheme.
    ///
    /// # Panics
    ///
    /// Panics if the calibration is missing data the scheme requires (e.g.
    /// Gram matrices for GPTQ).
    pub fn quantize(&self, model: &LlamaModel<DenseLinear>, calib: &Calibration) -> QuantizedModel {
        let scheme = *self;
        let kv_bits = match scheme {
            Scheme::Atom(a) => a.kv_bits,
            _ => None,
        };
        let quantized = model.clone().map_linears(|id, dense| {
            quantize_one(&scheme, id, dense, calib)
        });
        QuantizedModel {
            model: quantized,
            kv_bits,
        }
    }
}

fn quantize_one(
    scheme: &Scheme,
    id: LinearId,
    dense: DenseLinear,
    calib: &Calibration,
) -> AnyLinear {
    match scheme {
        Scheme::Fp16 => AnyLinear::Dense(dense),
        Scheme::Rtn { w_bits, a_bits } => {
            AnyLinear::Fake(FakeQuantLinear::rtn(&dense, *w_bits, *a_bits))
        }
        Scheme::OmniQuantLike { w_bits, a_bits } => {
            let lc = calib
                .linear(id)
                .unwrap_or_else(|| panic!("no calibration for {id}"));
            AnyLinear::Fake(FakeQuantLinear::omniquant_like(&dense, lc, *w_bits, *a_bits))
        }
        Scheme::SmoothQuant { w_bits, a_bits } => {
            let lc = calib
                .linear(id)
                .unwrap_or_else(|| panic!("no calibration for {id}"));
            let (layer, _) = FakeQuantLinear::smoothquant_search(&dense, lc, *w_bits, *a_bits);
            AnyLinear::Fake(layer)
        }
        Scheme::WeightOnly { w_bits, group } => {
            let lc = calib
                .linear(id)
                .unwrap_or_else(|| panic!("no calibration for {id}"));
            AnyLinear::Fake(FakeQuantLinear::weight_only_awq(
                &dense, lc, 0.3, *w_bits, *group,
            ))
        }
        Scheme::Atom(a) => {
            let lc = calib
                .linear(id)
                .unwrap_or_else(|| panic!("no calibration for {id}"));
            let k = dense.in_features();
            let n_outliers = a.outliers_for(k);
            let plan = if a.outlier_mode == OutlierMode::None {
                ReorderPlan::identity(k)
            } else {
                ReorderPlan::from_stats(&lc.stats, n_outliers)
            };
            match a.format {
                DataFormat::Fp4 => AnyLinear::Fp4(Fp4AtomLinear::quantize(
                    &dense, plan, a.group, a.clip_w, a.clip_a,
                )),
                DataFormat::Int => {
                    let cfg = AtomLinearConfig {
                        weight: QuantSpec::new(a.bits, a.group).with_clip(a.clip_w),
                        act: QuantSpec::new(a.act_bits, a.group).with_clip(a.clip_a),
                        n_outliers,
                        outlier_mode: a.outlier_mode,
                        use_gptq: a.use_gptq,
                    };
                    AnyLinear::Atom(QuantizedLinear::quantize(
                        &dense,
                        plan,
                        lc.gram.as_deref(),
                        &cfg,
                    ))
                }
            }
        }
    }
}

/// Linear-layer sum type produced by the pipeline.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // a model holds few of these; boxing would
                                     // complicate the hot forward path
pub enum AnyLinear {
    /// Unquantized dense layer.
    Dense(DenseLinear),
    /// Atom's bit-exact integer path.
    Atom(QuantizedLinear),
    /// Fake-quantized baseline path.
    Fake(FakeQuantLinear),
    /// Atom's FP4 path.
    Fp4(Fp4AtomLinear),
}

impl LinearLayer for AnyLinear {
    fn forward(&self, x: &Matrix) -> Matrix {
        match self {
            AnyLinear::Dense(l) => l.forward(x),
            AnyLinear::Atom(l) => l.forward(x),
            AnyLinear::Fake(l) => l.forward(x),
            AnyLinear::Fp4(l) => l.forward(x),
        }
    }

    fn in_features(&self) -> usize {
        match self {
            AnyLinear::Dense(l) => l.in_features(),
            AnyLinear::Atom(l) => l.in_features(),
            AnyLinear::Fake(l) => l.in_features(),
            AnyLinear::Fp4(l) => l.in_features(),
        }
    }

    fn out_features(&self) -> usize {
        match self {
            AnyLinear::Dense(l) => l.out_features(),
            AnyLinear::Atom(l) => l.out_features(),
            AnyLinear::Fake(l) => l.out_features(),
            AnyLinear::Fp4(l) => l.out_features(),
        }
    }
}

/// A quantized model together with its KV-cache precision.
#[derive(Debug)]
pub struct QuantizedModel {
    /// The model with quantized linears.
    pub model: LlamaModel<AnyLinear>,
    /// KV-cache bits; `None` keeps the full-precision cache.
    pub kv_bits: Option<u8>,
}

impl QuantizedModel {
    /// Creates a KV cache of the configured precision.
    pub fn new_cache(&self) -> Box<dyn KvStore> {
        let c = self.model.config();
        match self.kv_bits {
            Some(bits) => Box::new(QuantizedKvCache::new(
                c.layers,
                c.kv_dim(),
                c.head_dim(),
                bits,
            )),
            None => Box::new(Fp32KvCache::new(c.layers, c.kv_dim())),
        }
    }

    /// Perplexity of a token stream under this model (KV precision
    /// included).
    pub fn perplexity(&self, tokens: &[u16], window: usize) -> f64 {
        eval::perplexity_with_cache(&self.model, tokens, window, &mut || self.new_cache())
    }

    /// Zero-shot accuracy row (per-kind accuracies and average).
    pub fn zero_shot(&self, suite: &TaskSuite, tokenizer: &Tokenizer) -> (Vec<f64>, f64) {
        eval::zero_shot_row_with_cache(&self.model, suite, tokenizer, &mut || self.new_cache())
    }
}

/// One rung of the Table 3 ablation ladder.
#[derive(Debug, Clone)]
pub struct AblationStage {
    /// Row label matching the paper's Table 3.
    pub label: &'static str,
    /// Scheme for this rung.
    pub scheme: Scheme,
}

/// The Table 3 ablation ladder: start from W4A4 RTN and add Atom's
/// techniques one at a time.
pub fn ablation_stages() -> Vec<AblationStage> {
    let coarse = |mode, group, clip_w: f32, clip_a: f32, gptq, kv| {
        Scheme::Atom(AtomScheme {
            bits: 4,
            act_bits: 4,
            group,
            outlier_frac: 1.0 / 12.0,
            min_outliers: 6,
            outlier_mode: mode,
            clip_w,
            clip_a,
            use_gptq: gptq,
            kv_bits: kv,
            format: DataFormat::Int,
        })
    };
    vec![
        AblationStage {
            label: "W4A4 RTN",
            scheme: Scheme::Rtn {
                w_bits: 4,
                a_bits: 4,
            },
        },
        AblationStage {
            label: "+ Keeping outliers in FP16",
            scheme: coarse(OutlierMode::Fp16, usize::MAX, 1.0, 1.0, false, None),
        },
        AblationStage {
            label: "+ Quantizing outliers to INT8",
            scheme: coarse(OutlierMode::Int8, usize::MAX, 1.0, 1.0, false, None),
        },
        AblationStage {
            label: "+ Group size 16",
            scheme: coarse(OutlierMode::Int8, 16, 1.0, 1.0, false, None),
        },
        AblationStage {
            label: "+ Clipping",
            scheme: coarse(OutlierMode::Int8, 16, 0.97, 1.0, false, None),
        },
        AblationStage {
            label: "+ GPTQ",
            scheme: coarse(OutlierMode::Int8, 16, 0.97, 1.0, true, None),
        },
        AblationStage {
            label: "+ Quantizing KV-cache to INT4",
            scheme: coarse(OutlierMode::Int8, 16, 0.97, 1.0, true, Some(4)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_nn::ModelConfig;

    /// A *trained* micro model (repeating-motif language) with injected
    /// outliers: quantization quality is only observable against weights
    /// that encode real structure, so the tests train for a couple of
    /// seconds rather than using random weights whose perplexity is chance
    /// either way.
    fn tiny_setup() -> (LlamaModel<DenseLinear>, Calibration, Vec<u16>) {
        use std::sync::OnceLock;
        static SETUP: OnceLock<(LlamaModel<DenseLinear>, Vec<u16>)> = OnceLock::new();
        let (model, tokens) = SETUP.get_or_init(|| {
            let config = ModelConfig {
                dim: 32,
                layers: 1,
                heads: 4,
                kv_heads: 4,
                ffn_dim: 48,
                max_seq_len: 64,
                ..ModelConfig::default()
            };
            let motif = [1u16, 7, 3, 9, 42, 5, 11, 2, 30, 77];
            let tokens: Vec<u16> = (0..800).map(|i| motif[i % motif.len()]).collect();
            let spec = atom_nn::train::TrainSpec {
                steps: 50,
                batch: 2,
                seq_len: 40,
                lr: 5e-3,
                warmup: 5,
                ..atom_nn::train::TrainSpec::default()
            };
            let (mut model, _) = atom_nn::train::train(config, &tokens, spec);
            atom_nn::transform::inject_outliers(
                &mut model,
                &atom_nn::transform::OutlierSpec {
                    channels_per_site: 2,
                    magnitude: 30.0,
                    value_magnitude: 4.0,
                    spread: 0.2,
                    seed: 1,
                },
            );
            (model, tokens)
        });
        let seqs: Vec<Vec<u16>> = (0..6)
            .map(|s| tokens[s * 40..s * 40 + 32].to_vec())
            .collect();
        let calib = Calibration::collect(model, &seqs, true, 1);
        (model.clone(), calib, tokens[..200].to_vec())
    }

    #[test]
    fn every_scheme_quantizes_and_runs() {
        let (model, calib, tokens) = tiny_setup();
        let schemes = [
            Scheme::Fp16,
            Scheme::Rtn {
                w_bits: 4,
                a_bits: 4,
            },
            Scheme::SmoothQuant {
                w_bits: 8,
                a_bits: 8,
            },
            Scheme::OmniQuantLike {
                w_bits: 4,
                a_bits: 4,
            },
            Scheme::WeightOnly { w_bits: 4, group: 16 },
            Scheme::Atom(AtomScheme::w4a4()),
            Scheme::Atom(AtomScheme::w3a3()),
            Scheme::Atom(AtomScheme::fp4()),
        ];
        for scheme in schemes {
            let q = scheme.quantize(&model, &calib);
            let ppl = q.perplexity(&tokens, 40);
            assert!(
                ppl.is_finite() && ppl > 1.0,
                "{} produced ppl {ppl}",
                scheme.label()
            );
        }
    }

    #[test]
    fn fp16_scheme_is_identity() {
        let (model, calib, tokens) = tiny_setup();
        let q = Scheme::Fp16.quantize(&model, &calib);
        let ppl_q = q.perplexity(&tokens, 40);
        let ppl_ref = eval::perplexity(&model, &tokens, 40);
        assert!((ppl_q - ppl_ref).abs() < 1e-9);
    }

    #[test]
    fn atom_beats_rtn_on_outlier_model() {
        let (model, calib, tokens) = tiny_setup();
        let ppl_ref = eval::perplexity(&model, &tokens, 40);
        let ppl_rtn = Scheme::Rtn {
            w_bits: 4,
            a_bits: 4,
        }
        .quantize(&model, &calib)
        .perplexity(&tokens, 40);
        let ppl_atom = Scheme::Atom(AtomScheme::w4a4())
            .quantize(&model, &calib)
            .perplexity(&tokens, 40);
        assert!(
            ppl_atom < ppl_rtn / 2.0,
            "Atom ({ppl_atom}) should beat RTN ({ppl_rtn}); ref {ppl_ref}"
        );
        // Atom stays within a modest factor of the trained reference.
        assert!(ppl_atom < ppl_ref * 2.0, "atom {ppl_atom} vs ref {ppl_ref}");
    }

    #[test]
    fn ablation_ladder_has_paper_rows() {
        let stages = ablation_stages();
        assert_eq!(stages.len(), 7);
        assert_eq!(stages[0].label, "W4A4 RTN");
        assert!(stages[6].label.contains("KV-cache"));
        // Last stage is the full recipe with KV quant.
        match stages[6].scheme {
            Scheme::Atom(a) => {
                assert_eq!(a.kv_bits, Some(4));
                assert!(a.use_gptq);
            }
            _ => panic!("last stage must be Atom"),
        }
    }

    #[test]
    fn ablation_stages_all_run() {
        let (model, calib, tokens) = tiny_setup();
        let mut ppls = Vec::new();
        for stage in ablation_stages() {
            let ppl = stage.scheme.quantize(&model, &calib).perplexity(&tokens, 40);
            assert!(ppl.is_finite(), "{} diverged", stage.label);
            ppls.push(ppl);
        }
        // The headline shape: adding outlier handling to RTN helps hugely,
        // and the full recipe lands far below plain RTN.
        assert!(ppls[1] < ppls[0] / 2.0, "outliers should help: {ppls:?}");
        assert!(ppls[6] < ppls[0] / 2.0, "full recipe should help: {ppls:?}");
    }

    #[test]
    fn kv_bits_selects_cache_type() {
        let (model, calib, _) = tiny_setup();
        let atom = Scheme::Atom(AtomScheme::w4a4()).quantize(&model, &calib);
        assert_eq!(atom.kv_bits, Some(4));
        let rtn = Scheme::Rtn {
            w_bits: 8,
            a_bits: 8,
        }
        .quantize(&model, &calib);
        assert_eq!(rtn.kv_bits, None);
    }

    #[test]
    fn w4a8_scheme_runs_and_labels() {
        let (model, calib, tokens) = tiny_setup();
        let scheme = Scheme::Atom(AtomScheme::w4a8());
        assert_eq!(scheme.label(), "Atom W4A8");
        let q = scheme.quantize(&model, &calib);
        assert_eq!(q.kv_bits, Some(8));
        let p48 = q.perplexity(&tokens, 40);
        let p44 = Scheme::Atom(AtomScheme::w4a4())
            .quantize(&model, &calib)
            .perplexity(&tokens, 40);
        assert!(p48.is_finite());
        // 8-bit activations cannot be (meaningfully) worse than 4-bit.
        assert!(p48 <= p44 * 1.1, "W4A8 {p48} vs W4A4 {p44}");
    }

    #[test]
    fn outlier_count_scaling() {
        let a = AtomScheme::w4a4();
        assert_eq!(a.outliers_for(48), 6);
        assert_eq!(a.outliers_for(96), 8);
        assert_eq!(a.outliers_for(384), 32);
        assert_eq!(AtomScheme { outlier_mode: OutlierMode::None, ..a }.outliers_for(96), 0);
    }
}
