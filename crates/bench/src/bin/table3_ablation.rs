//! Table 3: ablation of the quantization techniques in Atom, starting
//! from W4A4 RTN and adding mixed-precision outliers (FP16, then INT8),
//! group quantization, clipping, GPTQ, and KV-cache quantization.
//!
//! Paper shape (Llama-7B): RTN 2315.52 -> outliers FP16 11.34 -> INT8
//! 11.39 -> group 6.22 -> clip 6.13 -> GPTQ 6.04 -> KV4 6.16.

use atom::pipeline::ablation_stages;
use atom_data::CorpusStyle;
use atom_nn::{eval, zoo};

fn main() {
    let (model, calib) = atom_bench::calibrated(zoo::ZooId::Tiny);
    let tokens = zoo::validation_tokens(CorpusStyle::Wiki);
    let tokens = &tokens[..tokens.len().min(2500)];

    let fp_ppl = eval::perplexity(&model, tokens, 96);
    let mut rows = vec![vec!["FP16 baseline".to_string(), atom_bench::fmt_ppl(fp_ppl), String::new()]];
    let mut prev = f64::NAN;
    for stage in ablation_stages() {
        let ppl = stage.scheme.quantize(&model, &calib).perplexity(tokens, 96);
        let delta = if prev.is_nan() {
            String::new()
        } else if ppl <= prev {
            format!("({:.2}↓)", prev - ppl)
        } else {
            format!("({:.2}↑)", ppl - prev)
        };
        rows.push(vec![stage.label.to_string(), atom_bench::fmt_ppl(ppl), delta]);
        prev = ppl;
        eprintln!("[table3] {}", stage.label);
    }
    let body = atom_bench::table(&["quantization method", "wiki PPL", "step"], &rows);
    let content = format!(
        "Table 3 — ablation of Atom's techniques on the 7B* model\n\
         (paper: outlier handling gives the huge drop; INT8 outliers cost ~nothing;\n\
          group quantization gives the second major drop; clip/GPTQ small gains;\n\
          KV4 costs ~0.1)\n\n{body}"
    );
    atom_bench::emit("table3_ablation", &content);
}
