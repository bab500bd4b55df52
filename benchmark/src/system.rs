//! The system under test, built through public functions only.
//!
//! Everything here is a constant, not a flag: the model, its seed, the
//! calibration set, the quantization scheme and the KV precision define
//! *which program* is being measured; `--seed` only chooses its inputs.

use std::time::Instant;

use atom::pipeline::{AnyLinear, AtomScheme, Scheme};
use atom::{Calibration, QuantizedKvCache};
use atom_gateway::{Gateway, GatewayConfig};
use atom_nn::transform::inject_outliers;
use atom_nn::zoo::ZooId;
use atom_nn::{KvStore, LinearLayer, LlamaModel, ModelConfig};
use atom_serve::{CpuEngine, PrefixConfig};

use crate::rng::SplitMix64;
use crate::workload::Workload;

/// dim 128, 4 layers, 8 heads, ffn 384 — the largest zoo architecture,
/// random-initialised (no trained checkpoint, no model cache, no file I/O).
pub const ZOO: ZooId = ZooId::Large;
const MODEL_SEED: u64 = 0xA70;
const CALIBRATION_SEED: u64 = 0xCA11;
const CALIBRATION_SEQUENCES: usize = 32;
const CALIBRATION_TOKENS: usize = 64;
const GRAM_STRIDE: usize = 2;
pub const KV_BITS: u8 = 4;

pub fn model_config() -> ModelConfig {
    ZOO.config()
}

/// Seconds spent in each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub init_s: f64,
    pub calibrate_s: f64,
    pub quantize_s: f64,
    pub construct_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.init_s + self.calibrate_s + self.quantize_s + self.construct_s
    }

    /// Stage by stage, the faster of the two.
    pub fn min(self, other: SetupTimes) -> SetupTimes {
        SetupTimes {
            init_s: self.init_s.min(other.init_s),
            calibrate_s: self.calibrate_s.min(other.calibrate_s),
            quantize_s: self.quantize_s.min(other.quantize_s),
            construct_s: self.construct_s.min(other.construct_s),
        }
    }
}

/// Random init + outlier injection, calibration (Gram on), W4A4 GPTQ
/// quantization with INT8 outliers. Returns the quantized model and the
/// time of the three stages (`construct_s` is left 0 for [`gateway`]'s
/// caller to fill).
pub fn build_model() -> (LlamaModel<AnyLinear>, SetupTimes) {
    let config = model_config();
    let t0 = Instant::now();
    let mut dense = LlamaModel::random_init(config, MODEL_SEED);
    inject_outliers(&mut dense, &ZOO.outlier_spec());
    let t1 = Instant::now();
    let mut rng = SplitMix64::new(CALIBRATION_SEED);
    let sequences: Vec<Vec<u16>> = (0..CALIBRATION_SEQUENCES)
        .map(|_| {
            (0..CALIBRATION_TOKENS)
                .map(|_| rng.below(config.vocab as u64) as u16)
                .collect()
        })
        .collect();
    let calibration = Calibration::collect(&dense, &sequences, true, GRAM_STRIDE);
    let t2 = Instant::now();
    let quantized = Scheme::Atom(AtomScheme::w4a4()).quantize(&dense, &calibration);
    let t3 = Instant::now();
    assert_eq!(
        quantized.kv_bits,
        Some(KV_BITS),
        "w4a4 serves from a 4-bit KV cache"
    );
    let times = SetupTimes {
        init_s: (t1 - t0).as_secs_f64(),
        calibrate_s: (t2 - t1).as_secs_f64(),
        quantize_s: (t3 - t2).as_secs_f64(),
        construct_s: 0.0,
    };
    (quantized.model, times)
}

pub fn new_kv_cache() -> QuantizedKvCache {
    let c = model_config();
    QuantizedKvCache::new(c.layers, c.kv_dim(), c.head_dim(), KV_BITS)
}

/// Engine + gateway in the workload's shape, prefix cache on (production
/// shape) in every workload. `kv` makes each admitted sequence's cache; the
/// traced pass passes a decorating factory.
pub fn gateway<L: LinearLayer>(
    model: LlamaModel<L>,
    workload: &Workload,
    kv: impl Fn() -> Box<dyn KvStore> + 'static,
) -> Gateway<L> {
    let engine = CpuEngine::new(
        model,
        Box::new(kv),
        workload.max_batch,
        workload.kv_pool_tokens,
    )
    .expect("workload engine shape is valid")
    .with_prefix_cache(PrefixConfig {
        max_cached_blocks: Some(workload.prefix_cap_blocks),
    });
    Gateway::new(engine, GatewayConfig::new(workload.tenants.clone()))
        .expect("workload gateway shape is valid")
}

pub fn plain_gateway(model: LlamaModel<AnyLinear>, workload: &Workload) -> Gateway<AnyLinear> {
    gateway(model, workload, || Box::new(new_kv_cache()))
}
