//! Table 4: generality of Atom across newer architectures and data
//! formats — a GQA model ("Llama-2-like"), a soft-MoE model
//! ("Mixtral-like"), and the FP4 number format.
//!
//! Paper shape: Atom (INT4) stays close to FP16 on Llama-2 and Mixtral
//! while the baselines degrade; Atom (FP4) lands within ~0.1 of Atom
//! (INT4).

use atom::pipeline::{AtomScheme, Scheme};
use atom_data::CorpusStyle;
use atom_nn::{eval, zoo};

fn main() {
    let tokens = zoo::validation_tokens(CorpusStyle::Wiki);
    let tokens = &tokens[..tokens.len().min(2500)];

    let models = [zoo::ZooId::Tiny, zoo::ZooId::Small, zoo::ZooId::Gqa, zoo::ZooId::Moe];
    let schemes: Vec<(&str, Option<Scheme>)> = vec![
        ("FP16", None),
        ("SmoothQuant", Some(Scheme::SmoothQuant { w_bits: 4, a_bits: 4 })),
        ("OmniQuant*", Some(Scheme::OmniQuantLike { w_bits: 4, a_bits: 4 })),
        ("Atom (INT)", Some(Scheme::Atom(AtomScheme::w4a4()))),
        ("Atom (FP)", Some(Scheme::Atom(AtomScheme::fp4()))),
    ];

    // Rows are schemes, columns are models (matching the paper's layout).
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for &id in &models {
        let (model, calib) = atom_bench::calibrated(id);
        let mut col = Vec::new();
        for (_, scheme) in &schemes {
            let ppl = match scheme {
                None => eval::perplexity(&model, tokens, 96),
                Some(s) => s.quantize(&model, &calib).perplexity(tokens, 96),
            };
            col.push(ppl);
        }
        columns.push(col);
        eprintln!("[table4] finished {}", id.label());
    }

    let mut rows = Vec::new();
    for (i, (label, _)) in schemes.iter().enumerate() {
        let mut row = vec![label.to_string()];
        for col in &columns {
            row.push(atom_bench::fmt_ppl(col[i]));
        }
        rows.push(row);
    }
    let mut headers = vec!["method (W4A4)"];
    let labels: Vec<&str> = models.iter().map(|m| m.label()).collect();
    headers.extend(labels.iter());
    let body = atom_bench::table(&headers, &rows);
    let content = format!(
        "Table 4 — wiki perplexity on newer architectures and data formats\n\
         (L2-7B* is the GQA 'Llama-2-like' model, 8x7B* the soft-MoE 'Mixtral-like';\n\
          paper: Atom INT and FP4 both stay near FP16, FP4 within ~0.1 of INT4)\n\n{body}"
    );
    atom_bench::emit("table4_generality", &content);
}
