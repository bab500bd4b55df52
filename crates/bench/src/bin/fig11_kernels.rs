//! Fig. 11: kernel-level evaluation — (a) dense GEMM latency across batch
//! sizes for FP16 / W4A16 / W8A8 / Atom W4A4, (b) self-attention
//! throughput across batch sizes for KV bits 16 / 8 / 4, and (c) the
//! *measured* CPU speedup of this repo's kernels over their references:
//! the packed INT4 GEMM vs `gemm::reference`, and quantized-KV attention
//! vs dequantizing K/V whole and running `attention_reference`.
//!
//! Paper shape (RTX 4090, Llama-7B shapes, seq 1024): weight-only wins at
//! small batch and fades; at batch 512 Atom's GEMM is 3.4x FP16 and 1.9x
//! INT8; attention throughput scales ~linearly with KV compression, 3.5x
//! FP16 and 1.8x INT8 at batch 128.
//!
//! Section (c) is a hard gate, not a report: the GEMM kernel must measure
//! at least 2.0x over `gemm::reference` on the decode-shape (m=1) packed
//! INT4 GEMM or the bin exits non-zero. The two are also asserted
//! bit-identical on every measured shape (attention within FP32
//! summation-order tolerance). A JSON twin lands at
//! `results/fig11_kernels.json`; CI uploads it.
//!
//! Flags: `--seed <u64>` (default 7) seeds all matrix initialization.

#![forbid(unsafe_code)]
use atom_gpu_sim::cost::{op_time, ComputeKind, Op};
use atom_gpu_sim::{HardwareProfile, SimScheme};
use atom_kernels::attention::{attention_reference, QuantizedKvHead};
use atom_kernels::gemm::{fused_group_gemm_with, reference};
use atom_kernels::{attention_quant_kv, GroupQuantized, QuantSpec};
use atom_parallel::Pool;
use atom_tensor::SeededRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Batch (activation-row) sweep for the measured CPU GEMM; m=1 is the
/// decode shape the speedup gate is anchored on.
const CPU_MS: [usize; 4] = [1, 4, 16, 64];
/// Measured CPU GEMM shape: Llama-ish projection scaled so the full sweep
/// stays in CI budget (weights 2048x2048 INT4, quant group 128).
const CPU_N: usize = 2048;
const CPU_K: usize = 2048;
const CPU_GROUP: usize = 128;
/// The acceptance threshold for kernel over reference at the decode shape.
const SPEEDUP_GATE: f64 = 2.0;

/// Best-of-`reps` wall time for `f`, returning (seconds, last output).
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now(); // lint: allow(time-entropy) — the kernel-vs-reference speedup measurement is the point of this report; correctness is gated on bit-identity, not time
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

/// More reps at small shapes where a single run is microseconds.
fn reps_for(m: usize) -> usize {
    if m <= 4 {
        5
    } else {
        3
    }
}

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

    // (c) Measured CPU kernel-vs-reference on the real kernels. One weight
    // matrix is shared across the batch sweep (exactly how serving reuses
    // packed weights across decode steps); activations are quantized per
    // batch size up front so timing loops measure only the GEMM.
    let seed = atom_bench::arg_u64("seed", 7);
    let mut rng = SeededRng::new(seed);
    let pool = Pool::global();

    let w = rng.normal_matrix(CPU_N, CPU_K, 0.0, 0.5);
    let qw = GroupQuantized::quantize(&w, QuantSpec::new(4, CPU_GROUP));
    let qas: Vec<GroupQuantized> = CPU_MS
        .iter()
        .map(|&m| {
            let a = rng.normal_matrix(m, CPU_K, 0.0, 1.0);
            GroupQuantized::quantize(&a, QuantSpec::new(4, CPU_GROUP))
        })
        .collect();

    let mut reference_secs = Vec::new();
    let mut reference_outs = Vec::new();
    for (i, qa) in qas.iter().enumerate() {
        let (s, out) = time_best(reps_for(CPU_MS[i]), || {
            reference::fused_group_gemm(pool, qa, &qw).expect("shapes validated")
        });
        reference_secs.push(s);
        reference_outs.push(out);
    }

    let mut kernel_secs = Vec::new();
    for (i, qa) in qas.iter().enumerate() {
        let (s, out) = time_best(reps_for(CPU_MS[i]), || {
            fused_group_gemm_with(pool, qa, &qw).expect("shapes validated")
        });
        assert_eq!(
            reference_outs[i].as_slice(),
            out.as_slice(),
            "GEMM kernel and gemm::reference disagree at m={}",
            CPU_MS[i]
        );
        kernel_secs.push(s);
    }

    // Quantized-KV decode attention, paper decode shape (q_len 1, kv 1024,
    // head_dim 128, INT4 KV), one head. The reference materializes K and V
    // in FP32 and runs dense attention — the unfused pipeline the
    // dequantize-on-load kernel replaces.
    let (hd, kv_len) = (128usize, 1024);
    let mut kvh = QuantizedKvHead::new(hd, 4);
    kvh.append(
        &rng.normal_matrix(kv_len, hd, 0.0, 1.0),
        &rng.normal_matrix(kv_len, hd, 0.0, 1.0),
    );
    let q = rng.normal_matrix(1, hd, 0.0, 1.0);
    let scale = 1.0 / atom_tensor::cast::usize_to_f32(hd).sqrt();
    let (att_reference_secs, att_reference) = time_best(5, || {
        attention_reference(&q, &kvh.keys.dequantize(), &kvh.values.dequantize(), scale)
    });
    let (att_kernel_secs, att_kernel) = time_best(5, || attention_quant_kv(&q, &kvh, scale));
    let att_err = att_kernel.sub(&att_reference).frob_norm() / att_reference.frob_norm();
    assert!(att_err < 1e-5, "attention kernel is {att_err} off its reference");

    let mut rows_c = Vec::new();
    for (i, &m) in CPU_MS.iter().enumerate() {
        rows_c.push(vec![
            m.to_string(),
            format!("{:.3}", reference_secs[i] * 1e3),
            format!("{:.3}", kernel_secs[i] * 1e3),
            format!("{:.2}x", reference_secs[i] / kernel_secs[i]),
        ]);
    }
    rows_c.push(vec![
        format!("attention kv{kv_len}"),
        format!("{:.3}", att_reference_secs * 1e3),
        format!("{:.3}", att_kernel_secs * 1e3),
        format!("{:.2}x", att_reference_secs / att_kernel_secs),
    ]);
    let table_c = atom_bench::table(&["m", "reference ms", "kernel ms", "speedup"], &rows_c);

    let decode_speedup = reference_secs[0] / kernel_secs[0];
    let att_speedup = att_reference_secs / att_kernel_secs;

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
        "(c) measured CPU kernels vs their references\n\
         (packed INT4 GEMM {CPU_N}x{CPU_K}, group {CPU_GROUP}, against gemm::reference, every row\n\
         asserted bit-identical; attention q_len 1, head_dim {hd}, INT4 KV, against dequantize +\n\
         attention_reference, relative error {att_err:.1e}; seed {seed:#x}, best-of-reps)\n\n{table_c}"
    );
    let _ = writeln!(
        content,
        "gate: kernel >= {SPEEDUP_GATE:.1}x gemm::reference at the m=1 decode shape — measured {decode_speedup:.2}x"
    );
    let _ = writeln!(
        content,
        "\nnote: scheme memory footprints use effective bits (4.25 = INT4 + group scales);\n\
         labels match {:?}",
        SimScheme::all().map(|s| s.label())
    );
    atom_bench::emit("fig11_kernels", &content);

    // JSON twin (hand-rolled: the workspace deliberately has no JSON dep).
    let fmt_secs = |v: &[f64]| {
        v.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>().join(", ")
    };
    let speedups: Vec<String> = reference_secs
        .iter()
        .zip(&kernel_secs)
        .map(|(r, k)| format!("{:.3}", r / k))
        .collect();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"gemm\": {{");
    let _ = writeln!(
        json,
        "    \"n\": {CPU_N}, \"k\": {CPU_K}, \"group\": {CPU_GROUP}, \"bits\": 4,"
    );
    let _ = writeln!(json, "    \"m\": [1, 4, 16, 64],");
    let _ = writeln!(json, "    \"reference_seconds\": [{}],", fmt_secs(&reference_secs));
    let _ = writeln!(json, "    \"kernel_seconds\": [{}],", fmt_secs(&kernel_secs));
    let _ = writeln!(json, "    \"speedup\": [{}]", speedups.join(", "));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"attention\": {{");
    let _ = writeln!(
        json,
        "    \"kv_len\": {kv_len}, \"head_dim\": {hd}, \"kv_bits\": 4, \"q_len\": 1,"
    );
    let _ = writeln!(json, "    \"reference_seconds\": {att_reference_secs:.6},");
    let _ = writeln!(json, "    \"kernel_seconds\": {att_kernel_secs:.6},");
    let _ = writeln!(json, "    \"speedup\": {att_speedup:.3},");
    let _ = writeln!(json, "    \"relative_error\": {att_err:.3e}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"gemm_bit_identical_to_reference\": true,");
    let _ = writeln!(
        json,
        "  \"gate\": {{ \"min_speedup\": {SPEEDUP_GATE:.1}, \"measured_decode_speedup\": {decode_speedup:.3}, \"pass\": {} }}",
        decode_speedup >= SPEEDUP_GATE
    );
    let _ = writeln!(json, "}}");
    let path = atom_bench::results_dir().join("fig11_kernels.json");
    std::fs::write(&path, json).expect("write json report");
    eprintln!("[written to results/fig11_kernels.json]");

    if decode_speedup < SPEEDUP_GATE {
        eprintln!(
            "FAIL: kernel speedup over gemm::reference at the m=1 decode shape is {decode_speedup:.2}x, \
             below the {SPEEDUP_GATE:.1}x gate"
        );
        std::process::exit(1);
    }
}
