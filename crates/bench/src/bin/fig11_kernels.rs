//! Fig. 11: kernel-level evaluation on the simulated RTX 4090 — (a) dense
//! GEMM latency across batch sizes for FP16 / W4A16 / W8A8 / Atom W4A4 and
//! (b) self-attention throughput across batch sizes for KV bits 16 / 8 / 4.
//!
//! Paper shape (RTX 4090, Llama-7B shapes, seq 1024): weight-only wins at
//! small batch and fades; at batch 512 Atom's GEMM is 3.4x FP16 and 1.9x
//! INT8; attention throughput scales ~linearly with KV compression, 3.5x
//! FP16 and 1.8x INT8 at batch 128.
//!
//! The CPU kernels themselves are timed by `benchmark/` only (`kernels.*`
//! rows of a `--trace 1` run) and checked against their references in
//! `crates/kernels/tests/kernel_vs_reference.rs`.

use atom_gpu_sim::cost::{op_time, ComputeKind, Op};
use atom_gpu_sim::{HardwareProfile, SimScheme};
use std::fmt::Write as _;

fn main() {
    let hw = HardwareProfile::rtx4090();
    let (n, k) = (4096usize, 4096usize);

    // (a) GEMM latency sweep.
    let mut rows_a = Vec::new();
    for batch in [1usize, 4, 16, 64, 128, 256, 512] {
        let lat = |wbits: f64, abits: f64, compute| {
            op_time(
                &Op::Gemm {
                    m: batch,
                    n,
                    k,
                    weight_bits: wbits,
                    act_bits: abits,
                    compute,
                },
                &hw,
            )
            .seconds()
        };
        let fp16 = lat(16.0, 16.0, ComputeKind::Fp16Tensor);
        let w4a16 = lat(4.25, 16.0, ComputeKind::Fp16Tensor);
        let w8a8 = lat(8.0, 8.0, ComputeKind::Int8Fused);
        let atom = lat(4.25, 4.25, ComputeKind::Int4Atom);
        rows_a.push(vec![
            batch.to_string(),
            format!("{:.1}", fp16 * 1e6),
            format!("{:.1}", w4a16 * 1e6),
            format!("{:.1}", w8a8 * 1e6),
            format!("{:.1}", atom * 1e6),
            format!("{:.2}x", fp16 / atom),
            format!("{:.2}x", w8a8 / atom),
        ]);
    }
    let table_a = atom_bench::table(
        &["batch", "FP16 us", "W4A16 us", "W8A8 us", "Atom us", "vs FP16", "vs INT8"],
        &rows_a,
    );

    // (b) Self-attention throughput sweep over KV bits.
    let mut rows_b = Vec::new();
    for batch in [1usize, 8, 32, 128, 256] {
        let att = |bits: f64| {
            op_time(
                &Op::Attention {
                    batch,
                    heads: 32,
                    head_dim: 128,
                    kv_len: 1024,
                    q_len: 1,
                    kv_bits: bits,
                },
                &hw,
            )
            .seconds()
        };
        let t16 = att(16.0);
        let t8 = att(8.0);
        let t4 = att(4.0);
        rows_b.push(vec![
            batch.to_string(),
            format!("{:.1}", t16 * 1e6),
            format!("{:.1}", t8 * 1e6),
            format!("{:.1}", t4 * 1e6),
            format!("{:.2}x", t16 / t4),
            format!("{:.2}x", t8 / t4),
        ]);
    }
    let table_b = atom_bench::table(
        &["batch", "KV16 us", "KV8 us", "KV4 us", "KV4 vs 16", "KV4 vs 8"],
        &rows_b,
    );

    let mut content = String::new();
    let _ = writeln!(
        content,
        "Fig. 11 — kernel evaluation on the RTX 4090 model (Llama-7B shapes, seq 1024)\n\n\
         (a) dense GEMM (4096x4096) latency vs batch\n\
         (paper anchors at batch 512: Atom 3.4x FP16, 1.9x INT8)\n\n{table_a}"
    );
    let _ = writeln!(
        content,
        "(b) decode self-attention latency vs batch by KV precision\n\
         (paper anchors at batch 128: INT4 KV 3.5x FP16, 1.8x INT8)\n\n{table_b}"
    );
    let _ = writeln!(
        content,
        "\nnote: scheme memory footprints use effective bits (4.25 = INT4 + group scales);\n\
         labels match {:?}",
        SimScheme::all().map(|s| s.label())
    );
    atom_bench::emit("fig11_kernels", &content);
}
