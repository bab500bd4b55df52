use std::path::PathBuf;
use std::process::ExitCode;

use atom_benchmark::report::Options;
use atom_benchmark::{checks, compare, run, system, traced, workload, DEFAULT_SEED, RUN_SECONDS};

const USAGE: &str = "\
usage: atom-benchmark run     --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
       atom-benchmark trace   --workload W [--seed N] [--seconds S] [--quick] [--out FILE]   (= run --trace 1)
       atom-benchmark compare A_DIR B_DIR
       atom-benchmark aa      [--seed N] [--out DIR]
       atom-benchmark golden  > benchmark/golden/plain_greedy.txt
workloads: decode_heavy long_context shared_prefix mixed_burst
Run it through benchmark/run.sh, which sets ATOM_THREADS=1.";

fn run_options(args: &[String], traced: bool) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => opts.workload = value("a workload name")?.clone(),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workload::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(opts)
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("no command")?;
    match command.as_str() {
        "run" | "trace" => {
            let opts = run_options(rest, command == "trace")?;
            let result = if opts.traced {
                traced::per_layer(&opts)
            } else {
                run::end_to_end(&opts)
            }?;
            result.print(&opts)
        }
        "golden" => {
            // Prints what benchmark/golden/plain_greedy.txt should hold
            // after a deliberate change of arithmetic.
            run::require_single_thread()?;
            println!("# FNV-1a digests of the plain greedy loop on the fixed golden prompts (atom-benchmark golden).");
            for d in checks::golden_digests(&system::build_model().0) {
                println!("{d:016x}");
            }
            Ok(())
        }
        "compare" => match rest {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()).map(|_| ()),
            _ => Err("compare takes two directories".into()),
        },
        "aa" => {
            let mut seed = DEFAULT_SEED;
            let mut out = atom_benchmark::out_dir().join("aa");
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match (flag.as_str(), it.next()) {
                    ("--seed", Some(v)) => seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
                    ("--out", Some(v)) => out = PathBuf::from(v),
                    _ => return Err(format!("unknown or incomplete argument {flag}")),
                }
            }
            compare::aa(&out, seed)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("atom-benchmark: {e}");
            if args.is_empty() || e.starts_with("unknown") || e.starts_with("no command") {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}
