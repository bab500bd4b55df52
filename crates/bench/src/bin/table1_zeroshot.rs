//! Table 1: zero-shot accuracy of quantized models on the six task
//! families (stand-ins for PIQA / ARC-e / ARC-c / BoolQ / HellaSwag /
//! WinoGrande), at W4A4 and W3A3, across the four model sizes.

use atom::pipeline::{AtomScheme, Scheme};
use atom_data::{TaskKind, TaskSuite, Tokenizer};
use atom_nn::{eval, zoo};

/// Items per task family (the suite totals 6x this).
const ITEMS: usize = 25;

fn main() {
    let suite = TaskSuite::generate(ITEMS, 0xBEEF);
    let tokenizer = Tokenizer::new();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for id in zoo::ZooId::sizes() {
        let (model, calib) = atom_bench::calibrated(id);
        let mut push = |label: String, accs: Vec<f64>, avg: f64| {
            let mut row = vec![label];
            row.extend(accs.iter().map(|&a| atom_bench::fmt_pct(a)));
            row.push(atom_bench::fmt_pct(avg));
            rows.push(row);
        };
        let (accs, avg) = eval::zero_shot_row(&model, &suite, &tokenizer);
        push(format!("{} FP16", id.label()), accs, avg);
        for (tag, scheme) in [
            ("W4A4 SmoothQuant", Scheme::SmoothQuant { w_bits: 4, a_bits: 4 }),
            ("W4A4 OmniQuant*", Scheme::OmniQuantLike { w_bits: 4, a_bits: 4 }),
            ("W4A4 Atom", Scheme::Atom(AtomScheme::w4a4())),
            ("W3A3 SmoothQuant", Scheme::SmoothQuant { w_bits: 3, a_bits: 3 }),
            ("W3A3 Atom", Scheme::Atom(AtomScheme::w3a3())),
        ] {
            let q = scheme.quantize(&model, &calib);
            let (accs, avg) = q.zero_shot(&suite, &tokenizer);
            push(format!("{} {tag}", id.label()), accs, avg);
        }
        eprintln!("[table1] finished {}", id.label());
    }

    let mut headers: Vec<String> = vec!["model / scheme".into()];
    headers.extend(TaskKind::all().iter().map(|k| k.label().to_string()));
    headers.push("Avg.".into());
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let body = atom_bench::table(&headers_ref, &rows);
    let content = format!(
        "Table 1 — zero-shot accuracy (%) on six task families ({ITEMS} items each)\n\
         (paper: Atom loses <2.5% average vs FP16 at W4A4 while baselines lose 10-24%;\n\
          chance is 33% for 3-option tasks, 50% for 2-option, 25% for ARC-c*)\n\n{body}"
    );
    atom_bench::emit("table1_zeroshot", &content);
}
