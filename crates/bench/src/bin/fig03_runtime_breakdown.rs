//! Fig. 3: runtime breakdown of Llama-7B inference across batch sizes
//! (dense vs. self-attention vs. other), on the simulated RTX 4090.
//!
//! Paper shape: dense + self-attention together consume over 90% of the
//! time at every batch size; the attention share grows with batch.

use atom_gpu_sim::graph::iteration_breakdown;
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, Phase, SimScheme};

fn main() {
    let hw = HardwareProfile::rtx4090();
    let cfg = LlamaGpuConfig::llama7b();
    let mut rows = Vec::new();
    for batch in [8usize, 16, 32, 64, 128, 256] {
        let b = iteration_breakdown(&cfg, SimScheme::Fp16, batch, 1024, Phase::Decode, &hw);
        let total = b.total_s();
        rows.push(vec![
            batch.to_string(),
            format!("{:.2}", total * 1e3),
            format!("{:.1}", 100.0 * b.dense_s / total),
            format!("{:.1}", 100.0 * b.attention_s / total),
            format!("{:.1}", 100.0 * b.other_s / total),
            format!("{:.1}", 100.0 * b.bottleneck_fraction()),
        ]);
    }
    let body = atom_bench::table(
        &["batch", "iter ms", "dense %", "attn %", "other %", "dense+attn %"],
        &rows,
    );
    let content = format!(
        "Fig. 3 — FP16 Llama-7B decode runtime breakdown vs batch (seq 1024, RTX 4090 model)\n\
         (paper: dense + self-attention account for >90% at every batch size)\n\n{body}"
    );
    atom_bench::emit("fig03_runtime_breakdown", &content);
}
