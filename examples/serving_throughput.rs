//! Serving demo: (1) simulate GPU-scale end-to-end throughput across
//! schemes and batch sizes (the Fig. 10 experiment), and (2) actually serve
//! real requests through the CPU engine with an Atom-quantized model and a
//! quantized, paged KV cache.
//!
//! ```sh
//! cargo run --release -p atom-serve --example serving_throughput
//! ```

#![expect(clippy::disallowed_methods, reason = "a demo prints how long it took; nothing it computes reads the clock")]

use atom::pipeline::{AtomScheme, Scheme};
use atom::{Calibration, QuantizedKvCache};
use atom_data::{Tokenizer, WorkloadSpec};
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, MemoryModel, SimScheme};
use atom_nn::zoo;
use atom_serve::engine::CpuEngine;
use atom_serve::ServingSimulator;

fn main() {
    // Part 1: GPU-scale simulation (Fig. 10 regime).
    let hw = HardwareProfile::rtx4090();
    let cfg = LlamaGpuConfig::llama7b();
    let trace = WorkloadSpec::default().generate(96, 11);
    println!("simulated Llama-7B serving on {} ({} requests):", hw.name, trace.len());
    for scheme in SimScheme::all() {
        let mem = MemoryModel::new(cfg, scheme, hw.mem_bytes);
        let batch = mem.max_batch(700).clamp(1, 256);
        let report = ServingSimulator::with_device_memory(cfg, hw, scheme, batch)
            .run(&trace)
            .expect("non-empty trace");
        println!(
            "  {:10}  max batch {:>3}  {:>6.0} tok/s  {:>6.1} ms/token",
            scheme.label(),
            batch,
            report.throughput_tps,
            report.avg_decode_latency_s * 1e3
        );
    }

    // Part 2: real CPU serving with the quantized model.
    println!("\nreal CPU serving with Atom-quantized 7B* and INT4 paged KV:");
    let model = zoo::trained(zoo::ZooId::Tiny);
    let calib = Calibration::collect(&model, &zoo::calibration_sequences(64), true, 2);
    let quantized = Scheme::Atom(AtomScheme::w4a4()).quantize(&model, &calib);
    let config = *quantized.model.config();
    let mut engine = CpuEngine::new(
        quantized.model,
        Box::new(move || {
            Box::new(QuantizedKvCache::new(
                config.layers,
                config.kv_dim(),
                config.head_dim(),
                4,
            ))
        }),
        4,    // max batch
        4096, // KV pool tokens
    )
    .expect("valid engine config");

    let tok = Tokenizer::new();
    let prompts = [
        "the robin is a ",
        "to strike a nail , use the ",
        "is the salmon a fish ? ",
        "the lighthouse ",
        "one wolf howls while two wolf",
    ];
    for p in prompts {
        engine.submit(tok.encode(p), 20).expect("prompt fits the pool");
    }
    let start = std::time::Instant::now();
    let completions = engine.run_to_completion().to_vec();
    let elapsed = start.elapsed().as_secs_f64();
    let total_tokens: usize = completions.iter().map(|c| c.tokens.len()).sum();
    for c in &completions {
        println!("  [{}] {:?} -> {:?}", c.id, prompts[c.id], tok.decode(&c.tokens));
    }
    println!(
        "\nserved {} requests / {} tokens in {:.2}s ({:.1} tok/s on one CPU core)",
        completions.len(),
        total_tokens,
        elapsed,
        total_tokens as f64 / elapsed
    );
}
