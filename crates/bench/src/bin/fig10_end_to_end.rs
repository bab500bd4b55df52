//! Fig. 10: end-to-end serving evaluation — (a) throughput vs batch,
//! (b) average decode latency per token vs batch, (c) throughput under a
//! fixed memory budget with each scheme at its own maximum batch.
//!
//! Paper shape: Atom dominates at every batch; at fixed memory it reaches
//! up to 7.73x FP16 and 2.53x W8A8 throughput while staying under the
//! 100 ms/token latency target even at batch 256.

use atom_data::WorkloadSpec;
use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, MemoryModel, SimScheme};
use atom_serve::ServingSimulator;
use std::fmt::Write as _;

fn main() {
    let hw = HardwareProfile::rtx4090();
    let cfg = LlamaGpuConfig::llama7b();
    let seed = atom_bench::arg_u64("seed", 0x51E9);
    let trace = WorkloadSpec::default().generate(192, seed);
    let avg_ctx: usize = trace
        .iter()
        .map(|r| r.prefill_tokens + r.decode_tokens / 2)
        .sum::<usize>()
        / trace.len();

    // (a) + (b): sweep batch size with unconstrained memory (the paper's
    // dashed lines simulate beyond-capacity points the same way).
    let batches = [8usize, 16, 32, 64, 128, 256];
    let mut rows_a = Vec::new();
    for &batch in &batches {
        let mut row = vec![batch.to_string()];
        for scheme in SimScheme::all() {
            let sim = ServingSimulator::with_device_memory(cfg, hw, scheme, batch);
            let (tput, lat) = sim.steady_state(batch, avg_ctx);
            row.push(format!("{:.0} tok/s / {:.1} ms", tput, lat * 1e3));
        }
        rows_a.push(row);
    }
    let mut headers = vec!["batch"];
    let labels: Vec<&str> = SimScheme::all().iter().map(|s| s.label()).collect();
    headers.extend(labels.iter());
    let table_ab = atom_bench::table(&headers, &rows_a);

    // (c): fixed memory — each scheme runs a full trace simulation at its
    // own maximum batch under the 24 GB budget.
    let mut rows_c = Vec::new();
    let mut tputs = std::collections::BTreeMap::new();
    for scheme in SimScheme::all() {
        let mem = MemoryModel::new(cfg, scheme, hw.mem_bytes);
        let max_batch = mem.max_batch(avg_ctx).clamp(1, 256);
        let sim = ServingSimulator::with_device_memory(cfg, hw, scheme, max_batch);
        let report = sim.run(&trace).expect("non-empty trace");
        tputs.insert(scheme.label(), report.throughput_tps);
        rows_c.push(vec![
            scheme.label().to_string(),
            max_batch.to_string(),
            format!("{:.0}", report.throughput_tps),
            format!("{:.1}", report.avg_decode_latency_s * 1e3),
            format!("{:.1}", report.p99_decode_latency_s * 1e3),
            format!("{:.1}", mem.weight_bytes() / 1e9),
            report.peak_kv_blocks.to_string(),
        ]);
        eprintln!("[fig10] simulated {}", scheme.label());
    }
    let table_c = atom_bench::table(
        &["scheme", "max batch", "tok/s", "avg ms/tok", "p99 ms/tok", "weights GB", "peak KV blocks"],
        &rows_c,
    );

    let atom = tputs["Atom W4A4"];
    let mut content = String::new();
    let _ = writeln!(
        content,
        "Fig. 10 — end-to-end serving (Llama-7B, RTX 4090 model, ShareGPT-like trace,\n\
         seed {seed:#x}, mean context ~{avg_ctx} tokens)\n\n(a)+(b) throughput and decode latency vs batch size:\n\n{table_ab}"
    );
    let _ = writeln!(
        content,
        "(c) fixed 24 GB memory, each scheme at its own max batch (full trace simulation):\n\n{table_c}"
    );
    let _ = writeln!(
        content,
        "speedups at fixed memory: Atom vs FP16 = {:.2}x (paper 7.73x), vs W8A8 = {:.2}x (paper 2.53x), vs W4A16 = {:.2}x (paper ~5.5x)",
        atom / tputs["FP16"],
        atom / tputs["W8A8"],
        atom / tputs["W4A16"],
    );
    atom_bench::emit("fig10_end_to_end", &content);
}
