//! Quick headline-shape check: wiki perplexity per scheme on the tiny model.
#![expect(clippy::disallowed_methods, reason = "a demo prints how long it took; nothing it computes reads the clock")]

use atom::pipeline::{AtomScheme, Scheme};
use atom::Calibration;
use atom_data::CorpusStyle;
use atom_nn::{eval, zoo};

fn main() {
    let model = zoo::trained(zoo::ZooId::Tiny);
    let seqs = zoo::calibration_sequences(128);
    let t0 = std::time::Instant::now();
    let calib = Calibration::collect(&model, &seqs, true, 2);
    println!("calibration: {:.1}s", t0.elapsed().as_secs_f64());
    let toks = zoo::validation_tokens(CorpusStyle::Wiki);
    let toks = &toks[..toks.len().min(2500)];
    println!("FP32 ppl = {:.3}", eval::perplexity(&model, toks, 96));
    for scheme in [
        Scheme::Rtn { w_bits: 4, a_bits: 4 },
        Scheme::SmoothQuant { w_bits: 4, a_bits: 4 },
        Scheme::OmniQuantLike { w_bits: 4, a_bits: 4 },
        Scheme::WeightOnly { w_bits: 4, group: 16 },
        Scheme::Atom(AtomScheme::w4a4()),
        Scheme::Atom(AtomScheme::w3a3()),
        Scheme::Atom(AtomScheme::fp4()),
    ] {
        let t = std::time::Instant::now();
        let q = scheme.quantize(&model, &calib);
        let ppl = q.perplexity(toks, 96);
        println!("{:22} ppl = {:9.3}   ({:.1}s)", scheme.label(), ppl, t.elapsed().as_secs_f64());
    }
}
