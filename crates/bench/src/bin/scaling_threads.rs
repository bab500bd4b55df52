//! Thread-scaling sweep for the deterministic pool (`atom-parallel`).
//!
//! Runs the Fig. 11 CPU kernel suite — fused W4A4 group GEMM, multi-head
//! quantized-KV attention — plus the engine's batched decode loop at pool
//! widths 1/2/4/8, reporting wall time and speedup vs the sequential pool.
//! Every parallel run is also checked bit-identical to the 1-thread run,
//! and the GEMM to `gemm::reference` at every width: the pool's
//! determinism contract means thread count buys wall-clock only, never a
//! different answer.
//!
//! Writes `results/scaling_threads.txt` and a JSON twin at
//! `results/scaling_threads.json` (includes `host_threads` — speedups are
//! only physically possible up to the host's parallelism; on a single-CPU
//! container every width measures ~1x and that is reported honestly).
//!
//! Flags: `--seed <u64>` (default 7) seeds all matrix/model initialization.

#![forbid(unsafe_code)]
use atom::QuantizedKvCache;
use atom_kernels::attention::QuantizedKvHead;
use atom_kernels::gemm::{fused_group_gemm_with, reference};
use atom_kernels::{attention_quant_kv_heads_with, GroupQuantized, QuantSpec};
use atom_nn::{LlamaModel, ModelConfig};
use atom_parallel::Pool;
use atom_tensor::{Matrix, SeededRng};
use std::fmt::Write as _;
use std::time::Instant;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

/// Best-of-`REPS` wall time for `f`, returning (seconds, last output).
fn time_best<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now(); // lint: allow(time-entropy) — throughput measurement for the report; the identity gate compares token bytes, not time
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("REPS >= 1"))
}

fn main() {
    let seed = atom_bench::arg_u64("seed", 7);
    let host_threads = atom_bench::host_threads();
    let mut rng = SeededRng::new(seed);

    // (a) Fused W4A4 group GEMM, Llama-ish projection shape scaled to CPU.
    let (m, n, k) = (64usize, 256, 256);
    let a = rng.normal_matrix(m, k, 0.0, 1.0);
    let w = rng.normal_matrix(n, k, 0.0, 0.5);
    let qa = GroupQuantized::quantize(&a, QuantSpec::new(4, 32));
    let qw = GroupQuantized::quantize(&w, QuantSpec::new(4, 32));
    let gemm = |pool: &Pool| fused_group_gemm_with(pool, &qa, &qw).expect("shapes validated");

    // (b) Multi-head INT4-KV decode attention.
    let (heads, head_dim, kv_len, q_len) = (16usize, 64, 256, 4);
    let mut kv_heads = Vec::new();
    let mut q_heads = Vec::new();
    for _ in 0..heads {
        let mut h = QuantizedKvHead::new(head_dim, 4);
        h.append(
            &rng.normal_matrix(kv_len, head_dim, 0.0, 1.0),
            &rng.normal_matrix(kv_len, head_dim, 0.0, 1.0),
        );
        kv_heads.push(h);
        q_heads.push(rng.normal_matrix(q_len, head_dim, 0.0, 1.0));
    }
    let scale = 1.0 / atom_tensor::cast::usize_to_f32(head_dim).sqrt();
    let attn = |pool: &Pool| {
        attention_quant_kv_heads_with(pool, &q_heads, &kv_heads, scale).expect("head counts match")
    };

    // (c) Engine batched decode: 6 concurrent requests on a small model
    // with INT8 KV caches, generated tokens returned for identity checks.
    let config = ModelConfig {
        dim: 64,
        layers: 2,
        heads: 8,
        kv_heads: 8,
        ffn_dim: 128,
        ..ModelConfig::default()
    };
    let decode = |pool: Pool| {
        let model = LlamaModel::random_init(config, seed);
        let mut engine = atom_serve::CpuEngine::new(
            model,
            Box::new(move || {
                Box::new(QuantizedKvCache::new(config.layers, config.kv_dim(), config.head_dim(), 8))
            }),
            6,
            4096,
        )
        .expect("valid engine config")
        .with_pool(pool);
        for r in 0..6usize {
            engine
                .submit(
                    vec![atom_tensor::cast::usize_to_u16_saturating(r * 7 + 1), 3, 5],
                    16,
                )
                .expect("valid submission");
        }
        let mut done = engine.run_to_completion().to_vec();
        done.sort_by_key(|c| c.id);
        done.iter().flat_map(|c| c.tokens.clone()).collect::<Vec<u16>>()
    };

    struct Suite {
        name: &'static str,
        secs: Vec<f64>,
    }
    let mut suites = vec![
        Suite { name: "fused_w4a4_gemm_kernel", secs: Vec::new() },
        Suite { name: "attention_quant_kv_kernel", secs: Vec::new() },
        Suite { name: "engine_decode_loop", secs: Vec::new() },
    ];
    let mut baselines: Option<(Matrix, Vec<Matrix>, Vec<u16>)> = None;

    for &t in &WIDTHS {
        let pool = Pool::new(t);
        let (g_s, g_out) = time_best(|| gemm(&pool));
        let (a_s, a_out) = time_best(|| attn(&pool));
        // The kernel must agree with the oracle bit for bit at every
        // thread count (the oracle's own width included).
        let oracle = reference::fused_group_gemm(&pool, &qa, &qw).expect("shapes validated");
        let (d_s, d_out) = time_best(|| decode(pool));
        assert_eq!(
            oracle.as_slice(),
            g_out.as_slice(),
            "GEMM kernel disagrees with gemm::reference at {t} threads"
        );
        match &baselines {
            None => baselines = Some((g_out, a_out, d_out)),
            Some((g0, a0, d0)) => {
                assert_eq!(g0.as_slice(), g_out.as_slice(), "GEMM not bit-identical at {t} threads");
                assert!(
                    a0.iter().zip(&a_out).all(|(x, y)| x.as_slice() == y.as_slice()),
                    "attention not bit-identical at {t} threads"
                );
                assert_eq!(d0, &d_out, "decode tokens not bit-identical at {t} threads");
            }
        }
        for (suite, s) in suites.iter_mut().zip([g_s, a_s, d_s]) {
            suite.secs.push(s);
        }
    }

    let mut rows = Vec::new();
    for suite in &suites {
        let base = suite.secs.first().copied().unwrap_or(f64::NAN);
        let mut row = vec![suite.name.to_string()];
        for s in &suite.secs {
            row.push(format!("{:.2}", s * 1e3));
        }
        for s in &suite.secs {
            row.push(format!("{:.2}x", base / s));
        }
        rows.push(row);
    }
    let table = atom_bench::table(
        &[
            "suite", "1t ms", "2t ms", "4t ms", "8t ms", "x@1", "x@2", "x@4", "x@8",
        ],
        &rows,
    );

    let mut content = String::new();
    let _ = writeln!(
        content,
        "Thread scaling — deterministic pool over the Fig. 11 CPU kernel suite + engine decode\n\
         (seed {seed:#x}, best of {REPS}, host parallelism {host_threads}; all widths verified\n\
         bit-identical to the 1-thread run, and the GEMM kernel to gemm::reference at\n\
         every width)\n\n{table}"
    );
    let _ = writeln!(
        content,
        "note: speedup is bounded by host parallelism ({host_threads} on this machine);\n\
         widths beyond it time-slice one core and can only measure ~1x."
    );
    atom_bench::emit("scaling_threads", &content);

    // JSON twin (hand-rolled: the workspace deliberately has no JSON dep).
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"thread_widths\": [1, 2, 4, 8],");
    let _ = writeln!(json, "  \"bit_identical_across_widths\": true,");
    let _ = writeln!(json, "  \"gemm_bit_identical_to_reference\": true,");
    let _ = writeln!(json, "  \"suites\": {{");
    for (i, suite) in suites.iter().enumerate() {
        let secs: Vec<String> = suite.secs.iter().map(|s| format!("{s:.6}")).collect();
        let base = suite.secs.first().copied().unwrap_or(f64::NAN);
        let speedups: Vec<String> = suite.secs.iter().map(|s| format!("{:.3}", base / s)).collect();
        let comma = if i + 1 < suites.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{}\": {{ \"seconds\": [{}], \"speedup\": [{}] }}{comma}",
            suite.name,
            secs.join(", "),
            speedups.join(", ")
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    let path = atom_bench::results_dir().join("scaling_threads.json");
    std::fs::write(&path, json).expect("write json report");
    eprintln!("[written to results/scaling_threads.json]");
}
