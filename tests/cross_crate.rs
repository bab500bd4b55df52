//! Cross-crate consistency tests: the quantized execution paths must agree
//! with their references, and the performance models must be consistent
//! with the kernels' byte accounting.

use atom::calibrate::ReorderPlan;
use atom::pipeline::AtomScheme;
use atom::qlinear::QuantizedLinear;
use atom_kernels::attention::{attention_quant_kv, attention_reference, QuantizedKvHead};
use atom_kernels::gemm::{mixed_gemm, reference_gemm};
use atom_kernels::{GroupQuantized, QuantSpec};
use atom_nn::{DenseLinear, LinearLayer};
use atom_tensor::{Matrix, SeededRng};

#[test]
fn quantized_linear_agrees_with_manual_kernel_composition() {
    // QuantizedLinear (reorder + dynamic quant + mixed GEMM) must equal the
    // hand-assembled pipeline built from the kernel crate directly.
    let mut rng = SeededRng::new(1);
    let (n, k, outliers) = (12usize, 48usize, 4usize);
    let w = rng.normal_matrix(n, k, 0.0, 0.5);
    let mut x = rng.normal_matrix(6, k, 0.0, 1.0);
    for r in 0..x.rows() {
        x[(r, 3)] *= 40.0;
        x[(r, 30)] *= 35.0;
    }
    let plan = ReorderPlan::from_outlier_set(k, &[3, 30, 9, 21]);
    let scheme = AtomScheme {
        clip_w: 1.0,
        use_gptq: false,
        ..AtomScheme::w4a4()
    };
    let layer = QuantizedLinear::quantize(&DenseLinear::new(w.clone()), plan.clone(), None, &scheme);
    let got = layer.forward(&x);

    // Manual composition.
    let k_norm = k - outliers;
    let wr = plan.reorder_weight(&w);
    let xr = plan.reorder_activation(&x);
    let qw_n = GroupQuantized::quantize(&wr.slice_cols(0, k_norm), QuantSpec::new(4, 16));
    let qw_o = GroupQuantized::quantize(&wr.slice_cols(k_norm, k), QuantSpec::new(8, 16));
    let qa_n = GroupQuantized::quantize(&xr.slice_cols(0, k_norm), QuantSpec::new(4, 16));
    let qa_o = GroupQuantized::quantize(&xr.slice_cols(k_norm, k), QuantSpec::new(8, 16));
    let manual = atom_kernels::gemm::mixed_gemm(&qa_n, &qw_n, Some((&qa_o, &qw_o))).unwrap();

    for (a, b) in got.as_slice().iter().zip(manual.as_slice()) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
}

#[test]
fn fused_gemm_matches_dequantized_reference_across_shapes() {
    let mut rng = SeededRng::new(2);
    for (m, n, k, g) in [(1usize, 8usize, 32usize, 8usize), (5, 12, 48, 16), (3, 7, 20, 6)] {
        let a = rng.normal_matrix(m, k, 0.0, 1.0);
        let w = rng.normal_matrix(n, k, 0.0, 1.0);
        let qa = GroupQuantized::quantize(&a, QuantSpec::new(4, g));
        let qw = GroupQuantized::quantize(&w, QuantSpec::new(4, g));
        let fused = mixed_gemm(&qa, &qw, None).unwrap();
        let reference = reference_gemm(&qa, &qw);
        for (x, y) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-3, "shape ({m},{n},{k},{g}): {x} vs {y}");
        }
    }
}

#[test]
fn quantized_kv_cache_matches_head_kernel() {
    // The model-facing QuantizedKvCache and the kernel-level attention must
    // be built from the same containers: materialized K/V equal per-head
    // dequantization.
    use atom::QuantizedKvCache;
    use atom_nn::KvStore;

    let mut rng = SeededRng::new(3);
    let (kv_dim, head_dim) = (16usize, 8usize);
    let k = rng.normal_matrix(10, kv_dim, 0.0, 1.0);
    let v = rng.normal_matrix(10, kv_dim, 0.0, 1.0);
    let mut cache = QuantizedKvCache::new(1, kv_dim, head_dim, 8);
    cache.append(0, &k, &v);

    for h in 0..2 {
        let mut head = QuantizedKvHead::new(head_dim, 8);
        head.append(
            &k.slice_cols(h * head_dim, (h + 1) * head_dim),
            &v.slice_cols(h * head_dim, (h + 1) * head_dim),
        );
        let from_cache = cache.keys(0).slice_cols(h * head_dim, (h + 1) * head_dim);
        let mut buf = vec![0.0f32; head_dim];
        for t in 0..10 {
            head.keys.dequantize_row_into(t, &mut buf);
            assert_eq!(from_cache.row(t), &buf[..], "head {h} token {t}");
        }
    }
}

#[test]
fn quant_kv_attention_error_scales_with_bits() {
    let mut rng = SeededRng::new(4);
    let hd = 16;
    let k = rng.normal_matrix(40, hd, 0.0, 1.0);
    let v = rng.normal_matrix(40, hd, 0.0, 1.0);
    let q = rng.normal_matrix(3, hd, 0.0, 1.0);
    let scale = 1.0 / (hd as f32).sqrt();
    let reference = attention_reference(&q, &k, &v, scale);
    let mut last_err = 0.0f32;
    for bits in [8u8, 6, 4, 3, 2] {
        let mut kv = QuantizedKvHead::new(hd, bits);
        kv.append(&k, &v);
        let out = attention_quant_kv(&q, &kv, scale);
        let err = out.sub(&reference).frob_norm() / reference.frob_norm();
        assert!(
            err >= last_err * 0.5,
            "error should broadly grow as bits shrink: int{bits} err {err} vs prev {last_err}"
        );
        last_err = err;
    }
    assert!(last_err > 0.05, "2-bit KV should visibly distort");
}

#[test]
fn memory_model_consistent_with_container_bytes() {
    // gpu-sim's KV byte accounting must match what the kernel containers
    // actually store (up to per-row scale/min overhead).
    use atom_gpu_sim::{LlamaGpuConfig, MemoryModel, SimScheme};

    let config = LlamaGpuConfig {
        dim: 64,
        layers: 2,
        heads: 4,
        ffn_dim: 128,
        vocab: 96,
    };
    let model = MemoryModel::new(config, SimScheme::AtomW4A4, 1 << 30);
    let per_token_model = model.kv_bytes_per_token();

    // Build the real thing: 2 layers x 4 heads of head_dim 16 at INT4.
    let tokens = 128;
    let mut cache = atom::QuantizedKvCache::new(2, 64, 16, 4);
    let k = Matrix::zeros(tokens, 64);
    for layer in 0..2 {
        use atom_nn::KvStore;
        cache.append(layer, &k, &k);
    }
    let per_token_real = cache.packed_bytes() as f64 / tokens as f64;
    // The container adds f16 scale+min per (token, head): 2 layers x 2 (K
    // and V) x 4 heads x 4 bytes = 64 bytes/token of overhead.
    let overhead = per_token_real - per_token_model;
    assert!(
        (0.0..=80.0).contains(&overhead),
        "model {per_token_model} vs real {per_token_real}"
    );
}

#[test]
fn workload_trace_feeds_scheduler_and_simulator_consistently() {
    use atom_data::WorkloadSpec;
    use atom_gpu_sim::{HardwareProfile, LlamaGpuConfig, SimScheme};
    use atom_serve::roofline::{serve, RooflineModel};

    let trace = WorkloadSpec::default().generate(24, 5);
    let model = RooflineModel::new(
        LlamaGpuConfig::llama7b(),
        HardwareProfile::rtx4090(),
        SimScheme::AtomW4A4,
    );
    let mut engine = model.engine(8).expect("valid engine config");
    let report = serve(&mut engine, &trace);
    assert_eq!(report.finished, trace.len());
    assert_eq!(report.preemptions, 0, "no decode token was spent twice");
    // Total decode tokens must equal the trace's decode budget.
    let decode_total: usize = trace.iter().map(|r| r.decode_tokens).sum();
    let implied = report.throughput_tps * report.busy_s;
    assert!(
        (implied - decode_total as f64).abs() < 1.0,
        "throughput accounting drifted: {implied} vs {decode_total}"
    );
}
