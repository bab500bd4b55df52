//! Fig. 2: WikiText2 perplexity across model sizes for 4-bit
//! weight-activation quantization mechanisms.
//!
//! Paper shape: SmoothQuant and OmniQuant blow up or sit far above FP16;
//! Atom stays close to the FP16 baseline at every size, and the gap shrinks
//! with model size.

use atom::pipeline::{AtomScheme, Scheme};
use atom_data::CorpusStyle;
use atom_nn::{eval, zoo};

fn main() {
    let tokens = zoo::validation_tokens(CorpusStyle::Wiki);
    let tokens = &tokens[..tokens.len().min(2500)];
    let schemes = [
        Scheme::Fp16,
        Scheme::SmoothQuant { w_bits: 4, a_bits: 4 },
        Scheme::OmniQuantLike { w_bits: 4, a_bits: 4 },
        Scheme::Atom(AtomScheme::w4a4()),
    ];
    let mut rows = Vec::new();
    for id in zoo::ZooId::sizes() {
        let (model, calib) = atom_bench::calibrated(id);
        let mut row = vec![id.label().to_string()];
        for scheme in &schemes {
            let ppl = if matches!(scheme, Scheme::Fp16) {
                eval::perplexity(&model, tokens, 96)
            } else {
                scheme.quantize(&model, &calib).perplexity(tokens, 96)
            };
            row.push(atom_bench::fmt_ppl(ppl));
        }
        rows.push(row);
        eprintln!("[fig02] finished {}", id.label());
    }
    let headers: Vec<String> = std::iter::once("size".to_string())
        .chain(schemes.iter().map(|s| s.label()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let body = atom_bench::table(&headers_ref, &rows);
    let content = format!(
        "Fig. 2 — wiki perplexity (down is better) across model sizes, W4A4 mechanisms\n\
         (paper: Atom tracks FP16 closely at every size; baselines degrade)\n\n{body}"
    );
    atom_bench::emit("fig02_ppl_vs_size", &content);
}
