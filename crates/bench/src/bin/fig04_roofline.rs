//! Fig. 4: roofline model of different quantization approaches — (a)
//! weight-activation quantization, (b) weight-only quantization — on the
//! A100 profile the paper's §2 numbers come from.
//!
//! Paper shape: weight-activation quantization raises both the dense
//! compute roof (INT8/INT4 tensor cores) and the attention attainable
//! throughput (smaller KV); weight-only quantization leaves the FP16 roof
//! and the attention line untouched.

use atom_gpu_sim::roofline::roofline_points;
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, SimScheme};

fn main() {
    let hw = HardwareProfile::a100();
    let cfg = LlamaGpuConfig::llama7b();
    let mut rows = Vec::new();
    for scheme in SimScheme::all() {
        for batch in [1usize, 16, 128, 512] {
            for p in roofline_points(&cfg, scheme, batch, 1024, &hw) {
                rows.push(vec![
                    p.scheme.to_string(),
                    p.operator.to_string(),
                    p.batch.to_string(),
                    format!("{:.1}", p.intensity),
                    format!("{:.1}", p.attainable_tops),
                    format!("{:.1}", p.peak_tops),
                    if p.compute_bound { "compute" } else { "memory" }.to_string(),
                ]);
            }
        }
    }
    let body = atom_bench::table(
        &["scheme", "operator", "batch", "ops/byte", "attainable TOPS", "roof TOPS", "bound"],
        &rows,
    );
    let content = format!(
        "Fig. 4 — roofline of quantization approaches (A100, Llama-7B shapes, seq 1024)\n\
         (paper: dense becomes compute-bound at large batch and its roof rises with\n\
          lower-bit arithmetic; attention stays memory-bound and only KV quantization\n\
          lifts it; W4A16 changes neither roof)\n\n{body}"
    );
    atom_bench::emit("fig04_roofline", &content);
}
