//! Table 2: perplexity of quantized models on the three corpora
//! (wiki / ptb / c4 standing in for WikiText2 / PTB / C4), at W4A4 and
//! W3A3, across the four model sizes.

use atom::pipeline::{AtomScheme, Scheme};
use atom_data::CorpusStyle;
use atom_nn::{eval, zoo};

fn main() {
    let corpora: Vec<(CorpusStyle, Vec<u16>)> = CorpusStyle::all()
        .into_iter()
        .map(|style| {
            let toks = zoo::validation_tokens(style);
            let take = toks.len().min(2500);
            (style, toks[..take].to_vec())
        })
        .collect();

    let mut rows = Vec::new();
    for id in zoo::ZooId::sizes() {
        let (model, calib) = atom_bench::calibrated(id);
        let mut push_row = |label: String, ppls: Vec<f64>| {
            let mut row = vec![label];
            row.extend(ppls.into_iter().map(atom_bench::fmt_ppl));
            rows.push(row);
        };
        // FP16 reference.
        push_row(
            format!("{} FP16", id.label()),
            corpora
                .iter()
                .map(|(_, toks)| eval::perplexity(&model, toks, 96))
                .collect(),
        );
        for (bits, schemes) in [
            (
                4u8,
                vec![
                    Scheme::SmoothQuant { w_bits: 4, a_bits: 4 },
                    Scheme::OmniQuantLike { w_bits: 4, a_bits: 4 },
                    Scheme::Atom(AtomScheme::w4a4()),
                ],
            ),
            (
                3u8,
                vec![
                    Scheme::SmoothQuant { w_bits: 3, a_bits: 3 },
                    Scheme::OmniQuantLike { w_bits: 3, a_bits: 3 },
                    Scheme::Atom(AtomScheme::w3a3()),
                ],
            ),
        ] {
            for scheme in schemes {
                let q = scheme.quantize(&model, &calib);
                push_row(
                    format!("{} W{bits}A{bits} {}", id.label(), short(&scheme)),
                    corpora.iter().map(|(_, toks)| q.perplexity(toks, 96)).collect(),
                );
            }
        }
        eprintln!("[table2] finished {}", id.label());
    }
    let body = atom_bench::table(&["model / scheme", "wiki", "ptb", "c4"], &rows);
    let content = format!(
        "Table 2 — perplexity (down is better) on the three corpora\n\
         (paper: Atom within ~0.4 of FP16 at W4A4; baselines 2x-1000x worse;\n\
          W3A3 degrades moderately for Atom, catastrophically for baselines)\n\n{body}"
    );
    atom_bench::emit("table2_perplexity", &content);
}

fn short(scheme: &Scheme) -> &'static str {
    match scheme {
        Scheme::SmoothQuant { .. } => "SmoothQuant",
        Scheme::OmniQuantLike { .. } => "OmniQuant*",
        Scheme::Atom(_) => "Atom",
        _ => "?",
    }
}
