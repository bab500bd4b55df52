//! Trains (or loads) every zoo model and reports parameter counts and
//! wall-clock training time. Run this once to warm the model cache.
#![expect(clippy::disallowed_methods, reason = "a demo prints how long it took; nothing it computes reads the clock")]

fn main() {
    let t0 = std::time::Instant::now();
    for id in atom_nn::zoo::ZooId::all() {
        let t = std::time::Instant::now();
        let m = atom_nn::zoo::trained(id);
        println!("{}: params={} trained in {:.1}s", id, m.config().param_count(), t.elapsed().as_secs_f64());
    }
    println!("total {:.1}s", t0.elapsed().as_secs_f64());
}
