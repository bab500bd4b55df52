//! What a run prints: a readable report, then — as the last line of
//! standard output — one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::PathBuf;

use crate::json::{obj, Value};
use crate::metrics::MetricDef;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// The contract's `--seconds`: no repetition starts once the run is this
    /// old (set-up included), except the first three.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// Also write the result (with workload and seed) to this file, for
    /// `compare`.
    pub out: Option<PathBuf>,
}

#[derive(Debug)]
pub struct RunResult {
    pub text: String,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl RunResult {
    pub fn json(&self) -> Value {
        obj(vec![
            // A run that found anything incorrect has already exited non-zero
            // without a result.
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(def, v)| {
                            (
                                def.name.to_string(),
                                obj(vec![
                                    ("value", Value::Num(*v)),
                                    ("unit", Value::Str(def.unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn print(&self, opts: &Options) -> Result<(), String> {
        if let Some(bad) = self.metrics.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("metric {} has no value", bad.0.name));
        }
        print!("{}", self.text);
        println!();
        for (def, v) in &self.metrics {
            println!("{:<36} {:>16.6} {}", def.name, v, def.unit);
        }
        let line = self.json();
        if let Some(path) = &opts.out {
            let file = obj(vec![
                ("workload", Value::Str(opts.workload.clone())),
                ("seed", Value::Num(opts.seed as f64)),
                ("trace", Value::Num(f64::from(u8::from(opts.traced)))),
                ("result", line.clone()),
            ]);
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, file.render() + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!("{}", line.render());
        Ok(())
    }
}
