//! Fig. 5: sampled values of an activation matrix — (a) outlier channels
//! in the raw activations, (b) the same channels after Atom's reorder
//! moves them to the end of the matrix.
//!
//! Renders the per-channel RMS profile of a real calibrated linear input
//! before and after reordering, as a text sparkline plus summary numbers.

use atom::Calibration;
use atom_nn::model::{LinearId, Proj};
use atom_nn::zoo;
use std::fmt::Write as _;

fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    values
        .iter()
        .map(|&v| {
            // Log scale so outliers do not flatten everything else.
            let t = ((v.max(1e-9) / max).log10() / 3.0 + 1.0).clamp(0.0, 1.0);
            GLYPHS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

fn main() {
    let model = zoo::trained(zoo::ZooId::Tiny);
    let seqs = zoo::calibration_sequences(128);
    let calib = Calibration::collect(&model, &seqs, false, 1);
    let id = LinearId::new(0, Proj::Q);
    let lc = calib.linear(id).expect("calibrated");
    let rms = lc.stats.rms();
    let plan = calib.reorder_plan(id, 6);
    let reordered: Vec<f64> = plan.perm().iter().map(|&p| rms[p]).collect();

    let mut content = String::new();
    let _ = writeln!(
        content,
        "Fig. 5 — per-channel RMS of the attention input activations (7B*, layer 0)\n\
         (paper: a few channels are orders larger; after reorder they sit at the end)\n"
    );
    let _ = writeln!(content, "(a) original channel order   ({} channels)", rms.len());
    let _ = writeln!(content, "    {}", sparkline(&rms));
    let _ = writeln!(content, "(b) after Atom reorder       (outliers -> last 6)");
    let _ = writeln!(content, "    {}", sparkline(&reordered));
    let mut sorted = rms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = sorted[sorted.len() / 2];
    let _ = writeln!(
        content,
        "\nmax channel RMS = {:.2}, median = {:.4}, outlier ratio = {:.0}x",
        sorted.last().unwrap(),
        median,
        lc.stats.outlier_ratio()
    );
    let outliers = lc.stats.top_square_sum_channels(6);
    let _ = writeln!(content, "outlier channels (by square sum): {outliers:?}");
    let tail = &reordered[reordered.len() - 6..];
    let head_max = reordered[..reordered.len() - 6]
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        content,
        "after reorder: max RMS among normal region = {head_max:.4}, outlier region RMS = {:?}",
        tail.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>()
    );
    atom_bench::emit("fig05_outliers", &content);
}
