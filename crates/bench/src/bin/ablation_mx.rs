//! §6 outlook ablation: the MX (microscaling) data format on
//! Blackwell-like hardware.
//!
//! Two halves: (1) accuracy — MXFP4 (FP4 payload, shared power-of-two E8M0
//! scale per 32) vs Atom's FP16-scaled FP4 and INT4 on a real model;
//! (2) efficiency — the paper "expects \[MX\] can mitigate the group
//! quantization overhead of Atom": with the scale applied as an exponent
//! add inside the tensor-core pipe, the fused GEMM recovers from the
//! group-fusion efficiency (770 TOPS) back to the mixed-precision-only
//! level (900).

use atom::mx::{fake_quantize_mxfp4, mxfp4_effective_bits};
use atom::pipeline::{AtomScheme, Scheme};
use atom_data::CorpusStyle;
use atom_gpu_sim::cost::ComputeKind;
use atom_gpu_sim::HardwareProfile;
use atom_nn::{eval, zoo};
use atom_tensor::SeededRng;
use std::fmt::Write as _;

fn main() {
    // Accuracy half: tensor-level roundtrip error plus model perplexity.
    let mut rng = SeededRng::new(7);
    let x = rng.normal_matrix(64, 256, 0.0, 1.0);
    let mse_mx = fake_quantize_mxfp4(&x).mse(&x);
    let mse_fp4 = atom::fp4::fake_quantize_fp4(&x, 32, 1.0).mse(&x);
    let mse_int4 = atom_kernels::group::fake_quantize(
        &x,
        atom_kernels::QuantSpec::new(4, 32),
    )
    .mse(&x);

    let (model, calib) = atom_bench::calibrated(zoo::ZooId::Tiny);
    let tokens = zoo::validation_tokens(CorpusStyle::Wiki);
    let tokens = &tokens[..tokens.len().min(2500)];
    let fp = eval::perplexity(&model, tokens, 96);
    let int4 = Scheme::Atom(AtomScheme::w4a4())
        .quantize(&model, &calib)
        .perplexity(tokens, 96);
    let fp4 = Scheme::Atom(AtomScheme::fp4())
        .quantize(&model, &calib)
        .perplexity(tokens, 96);

    // Efficiency half.
    let hw = HardwareProfile::rtx4090();
    let current = ComputeKind::Int4Atom.effective_tops(&hw);
    let mx_native = ComputeKind::Int4Mixed.effective_tops(&hw);

    let mut content = String::new();
    let _ = writeln!(
        content,
        "§6 outlook — MX (microscaling) format\n\n\
         tensor roundtrip MSE on N(0,1), group 32:\n\
         \n  INT4 + f16 scales : {mse_int4:.5}\n  FP4  + f16 scales : {mse_fp4:.5}\n  MXFP4 (E8M0 scale): {mse_mx:.5}\n\
         \nMXFP4 effective bits: {:.3} (matching Atom's 4-bit + scales accounting)\n",
        mxfp4_effective_bits()
    );
    let _ = writeln!(
        content,
        "model perplexity (7B*, FP16 ref {fp:.2}): Atom INT4 {int4:.2}, Atom FP4 {fp4:.2}\n\
         (MXFP4's E8M0 scale costs at most one binade vs the f16 scale; the FP4 row\n\
          bounds its model-level accuracy from above)\n"
    );
    let _ = writeln!(
        content,
        "fused GEMM throughput at the §5.4.2 shape (RTX 4090 constants):\n\
         \n  today (fused group dequant on CUDA cores): {current:.0} TOPS\n\
         \n  MX-native (scale folded into tensor-core pipe): {mx_native:.0} TOPS\n\
         \nrecovered fusion overhead: +{:.0}% — the mitigation §6 anticipates from Blackwell.",
        (mx_native / current - 1.0) * 100.0
    );
    atom_bench::emit("ablation_mx", &content);
}
