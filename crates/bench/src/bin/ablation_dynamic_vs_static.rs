//! §4.3 design ablation: dynamic vs static activation quantization.
//!
//! The paper *argues* for dynamic quantization ("tailoring quantization
//! parameters for each activation matrix during inference... the advantage
//! [of fine-grained quantization] would diminish if we statically calculated
//! the quantization parameters based on calibration data") but does not
//! table the counterfactual. This binary runs it: the identical Atom W4A4
//! pipeline with per-token dynamic scales vs calibration-frozen static
//! scales.

use atom::pipeline::{AnyLinear, AtomScheme, QuantizedModel, Scheme};
use atom::qlinear::{AtomLinearConfig, OutlierMode, QuantizedLinear};
use atom::ReorderPlan;
use atom_data::CorpusStyle;
use atom_kernels::QuantSpec;
use atom_nn::{eval, zoo, LinearLayer};

fn main() {
    let mut rows = Vec::new();
    for id in [zoo::ZooId::Tiny, zoo::ZooId::Small] {
        let (model, calib) = atom_bench::calibrated(id);
        let tokens = zoo::validation_tokens(CorpusStyle::Wiki);
        let tokens = &tokens[..tokens.len().min(2500)];
        let scheme = AtomScheme::w4a4();

        let fp = eval::perplexity(&model, tokens, 96);
        let dynamic = Scheme::Atom(scheme)
            .quantize(&model, &calib)
            .perplexity(tokens, 96);

        // Same pipeline, static activation scales frozen from calibration.
        let static_model = model.clone().map_linears(|lid, dense| {
            let lc = calib.linear(lid).expect("calibrated");
            let k = dense.in_features();
            let n_outliers = scheme.outliers_for(k);
            let plan = ReorderPlan::from_stats(&lc.stats, n_outliers);
            let cfg = AtomLinearConfig {
                weight: QuantSpec::new(scheme.bits, scheme.group).with_clip(scheme.clip_w),
                act: QuantSpec::new(scheme.bits, scheme.group).with_clip(scheme.clip_a),
                n_outliers,
                outlier_mode: OutlierMode::Int8,
                use_gptq: true,
            };
            AnyLinear::Atom(
                QuantizedLinear::quantize(&dense, plan, lc.gram.as_deref(), &cfg)
                    .with_static_activations(&lc.sample),
            )
        });
        let static_ppl = QuantizedModel {
            model: static_model,
            kv_bits: scheme.kv_bits,
        }
        .perplexity(tokens, 96);

        rows.push(vec![
            id.label().to_string(),
            atom_bench::fmt_ppl(fp),
            atom_bench::fmt_ppl(dynamic),
            atom_bench::fmt_ppl(static_ppl),
            format!("{:+.2}", static_ppl - dynamic),
        ]);
        eprintln!("[ablation_dyn_static] finished {}", id.label());
    }
    let body = atom_bench::table(
        &["model", "FP16", "Atom dynamic", "Atom static", "static penalty"],
        &rows,
    );
    let content = format!(
        "§4.3 ablation — dynamic vs static activation quantization (Atom W4A4, wiki ppl)\n\
         (paper's design argument: static scales miss each input's local distribution,\n\
          so dynamic per-token quantization should win)\n\n{body}"
    );
    atom_bench::emit("ablation_dynamic_vs_static", &content);
}
