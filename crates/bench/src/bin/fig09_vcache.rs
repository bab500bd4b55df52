//! Fig. 9: sampled values of the V cache within a single attention head,
//! compared with the activation matrix of Fig. 5.
//!
//! Paper shape: the V cache shows a much smaller dynamic range with far
//! fewer outlier channels than activations — which is why asymmetric
//! per-head quantization suffices for the KV cache (§4.4).

use atom_nn::kv::{Fp32KvCache, KvStore};
use atom_nn::model::{LinearId, Proj};
use atom_nn::zoo;
use atom_tensor::stats::ChannelStats;
use std::fmt::Write as _;

fn main() {
    let model = zoo::trained(zoo::ZooId::Tiny);
    let config = *model.config();
    let seqs = zoo::calibration_sequences(64);

    // Activation stats at the attention input (the Fig. 5 comparison point).
    let calib = atom::Calibration::collect(&model, &seqs, false, 1);
    let act_ratio = calib
        .linear(LinearId::new(0, Proj::Q))
        .expect("calibrated")
        .stats
        .outlier_ratio();

    // V-cache stats: run sequences, collect layer-0 values per head.
    let head_dim = config.head_dim();
    let mut head_stats: Vec<ChannelStats> =
        (0..config.kv_heads).map(|_| ChannelStats::new(head_dim)).collect();
    for seq in &seqs {
        let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
        let take = seq.len().min(config.max_seq_len);
        model.forward(&seq[..take], &mut cache);
        let values = cache.values(0);
        for (h, stats) in head_stats.iter_mut().enumerate() {
            stats.update(&values.slice_cols(h * head_dim, (h + 1) * head_dim));
        }
    }

    let mut content = String::new();
    let _ = writeln!(
        content,
        "Fig. 9 — V-cache value distribution vs activations (7B*, layer 0)\n\
         (paper: the V cache has far fewer outlier channels than activations,\n\
          making it amenable to low-bit asymmetric quantization)\n"
    );
    let _ = writeln!(content, "activation outlier ratio (attention input): {act_ratio:.0}x");
    for (h, stats) in head_stats.iter().enumerate() {
        let _ = writeln!(
            content,
            "v-cache head {h}: outlier ratio {:>6.1}x, abs-max {:.3}",
            stats.outlier_ratio(),
            stats.abs_maxes().iter().cloned().fold(0.0f32, f32::max),
        );
    }
    let worst = head_stats
        .iter()
        .map(|s| s.outlier_ratio())
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        content,
        "\nworst V-cache head ratio ({worst:.1}x) vs activation ratio ({act_ratio:.0}x): {}",
        if worst * 4.0 < act_ratio {
            "V cache is far milder — matches the paper's observation"
        } else {
            "WARNING: V cache unexpectedly spiky"
        }
    );
    atom_bench::emit("fig09_vcache", &content);
}
