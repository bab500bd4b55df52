//! **Atom: low-bit weight-activation quantization for efficient and
//! accurate LLM serving** — the core algorithms of the MLSys 2024 paper,
//! reproduced from scratch.
//!
//! Atom quantizes both weights and activations to 4 bits while keeping
//! accuracy, by combining four techniques (paper §4):
//!
//! 1. **Mixed-precision with channel reordering** ([`calibrate`],
//!    [`qlinear`]) — a small set of outlier activation channels, identified
//!    offline by calibration square sums, is kept in INT8 while everything
//!    else goes to INT4; reordering moves the outliers to the end of the
//!    matrix so memory access stays regular.
//! 2. **Fine-grained group quantization** (`atom-kernels`) — every group of
//!    channels gets its own FP16 scale, fused into the GEMM pipeline.
//! 3. **Dynamic activation quantization** ([`qlinear`]) — activation scales
//!    are computed per token at run time, fused into the preceding
//!    operator; weights are quantized offline with clipping and GPTQ
//!    ([`gptq`]).
//! 4. **KV-cache quantization** ([`kv`]) — asymmetric low-bit storage at
//!    attention-head granularity with dequantize-on-load.
//!
//! The baselines of the paper's evaluation (RTN, SmoothQuant,
//! OmniQuant-like, AWQ-style weight-only) live in [`baselines`]; the FP4
//! data format of Table 4 in [`fp4`]; and [`pipeline`] assembles any of
//! these into a runnable quantized model.
//!
//! # Quickstart
//!
//! ```
//! use atom::calibrate::Calibration;
//! use atom::pipeline::{AtomScheme, Scheme};
//! use atom_nn::{LlamaModel, ModelConfig};
//!
//! // A small random model (real experiments use the trained zoo).
//! let config = ModelConfig { dim: 32, layers: 1, heads: 4, kv_heads: 4,
//!                            ffn_dim: 48, ..ModelConfig::default() };
//! let model = LlamaModel::random_init(config, 0);
//!
//! // Calibrate on sample sequences (collecting GPTQ Hessians), then
//! // quantize W4A4 and evaluate.
//! let seqs: Vec<Vec<u16>> = vec![(0..32).collect(); 4];
//! let calib = Calibration::collect(&model, &seqs, true, 1);
//! let quantized = Scheme::Atom(AtomScheme::w4a4()).quantize(&model, &calib);
//! let tokens: Vec<u16> = (0..80).map(|i| (i % 96) as u16).collect();
//! let ppl = quantized.perplexity(&tokens, 40);
//! assert!(ppl.is_finite());
//! ```

pub mod baselines;
pub mod calibrate;
pub mod clip;
pub mod fp4;
pub mod gptq;
pub mod kv;
pub mod mx;
pub mod pipeline;
pub mod qlinear;

pub use calibrate::{Calibration, ReorderPlan};
pub use kv::QuantizedKvCache;
pub use pipeline::{ablation_stages, AnyLinear, AtomScheme, QuantizedModel, Scheme};
pub use qlinear::{InputQuantization, QuantizedLinear};
