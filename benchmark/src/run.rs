//! `atom-benchmark run`: the end-to-end pass (tracing off).
//!
//! 1. set up the system [`SETUPS`] times; `setup_s` is the sum over stages
//!    of each stage's minimum;
//! 2. replay the workload's trace [`REPETITIONS`] times, each on a fresh
//!    gateway + engine (model cloned outside the timed region);
//! 3. stop unless every repetition produced the same ticks, outcomes and
//!    token streams — non-determinism is a bug;
//! 4. compose the timeline (per-tick minimum) and read the metrics off it;
//! 5. recompute a sample of requests with a plain greedy loop.

use std::time::Instant;

use atom::pipeline::AnyLinear;
use atom_kernels::KernelPath;
use atom_nn::LlamaModel;
use atom_parallel::Pool;

use crate::checks;
use crate::metrics::{Values, END_TO_END};
use crate::replay::{replay, Repetition, TickDomain};
use crate::report::{Options, RunResult};
use crate::system::{self, SetupTimes};
use crate::timeline::{self, Timing};
use crate::workload::{self, Workload};

/// Set-ups per run (S) and repetitions per run (R). Constants, so two runs
/// always estimate the same thing; `--quick` uses 1 and 2.
pub const SETUPS: usize = 3;
pub const REPETITIONS: usize = 16;
/// Repetitions that always run, even when `--seconds` is used up.
const MIN_REPETITIONS: usize = 3;

/// One process, one thread: the harness refuses to measure anything else.
pub fn require_single_thread() -> Result<(), String> {
    let threads = Pool::global().threads();
    if threads != 1 {
        return Err(format!(
            "the benchmark measures pool width 1, but Pool::global() has {threads} threads: \
             run it through benchmark/run.sh or set ATOM_THREADS=1"
        ));
    }
    Ok(())
}

/// Replays until `want` repetitions are done, or — after at least
/// [`MIN_REPETITIONS`] — the run is `budget_s` seconds old (`--seconds`,
/// counted from `run_start`, set-up included), so a slow phase of the host
/// lengthens a run by a bounded amount.
pub fn repetitions<T>(
    want: usize,
    run_start: Instant,
    budget_s: f64,
    mut one: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut reps = Vec::with_capacity(want);
    while reps.len() < want {
        if reps.len() >= MIN_REPETITIONS.min(want) && run_start.elapsed().as_secs_f64() > budget_s {
            break;
        }
        reps.push(one(reps.len())?);
    }
    Ok(reps)
}

/// All repetitions must agree on everything that is not a duration.
pub fn require_identical<'a>(
    domains: impl IntoIterator<Item = &'a TickDomain>,
) -> Result<&'a TickDomain, String> {
    let mut domains = domains.into_iter();
    let first = domains.next().ok_or("no repetitions ran")?;
    for (i, d) in domains.enumerate() {
        if d != first {
            let what = if d.ticks != first.ticks {
                format!("tick count {} vs {}", d.ticks, first.ticks)
            } else if d.served != first.served {
                "outcomes or token streams".to_string()
            } else {
                "engine or gateway counters".to_string()
            };
            return Err(format!(
                "determinism: repetition {} differs from repetition 0 in {what}",
                i + 1
            ));
        }
    }
    Ok(first)
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn end_to_end(opts: &Options) -> Result<RunResult, String> {
    let run_start = Instant::now();
    require_single_thread()?;
    let (setups, want_reps) = if opts.quick {
        (1, 2)
    } else {
        (SETUPS, REPETITIONS)
    };
    let workload = workload::generate(
        &opts.workload,
        opts.seed,
        system::model_config().vocab,
        opts.quick,
    );

    let mut setup: Option<SetupTimes> = None;
    let mut model: Option<LlamaModel<AnyLinear>> = None;
    for _ in 0..setups {
        let (built, mut times) = system::build_model();
        let copy = built.clone();
        let t = Instant::now();
        drop(system::plain_gateway(copy, &workload));
        times.construct_s = t.elapsed().as_secs_f64();
        setup = Some(setup.map_or(times, |s| s.min(times)));
        model = Some(built);
    }
    let (setup, model) = (
        setup.expect("at least one set-up"),
        model.expect("at least one set-up"),
    );

    let reps = repetitions(want_reps, run_start, opts.seconds, |_| {
        replay(
            system::plain_gateway(model.clone(), &workload),
            &workload,
            false,
        )
    })?;
    let domain = require_identical(reps.iter().map(|r| &r.domain))?;
    let tick_vectors: Vec<&[u64]> = reps.iter().map(|r| r.tick_ns.as_slice()).collect();
    let (composed, _) = timeline::compose(&tick_vectors);
    let timing = timeline::timing(&composed, &domain.served, workload.slo);
    let checked = checks::self_check(&model, &workload.requests, &domain.served)?;

    let mut values = Values::default();
    values.set("setup_s", setup.total());
    values.set("out_tok_s", timing.out_tok_s);
    values.set("ttft_ms_p50", timing.ttft_ms_p50);
    values.set("ttft_ms_p90", timing.ttft_ms_p90);
    values.set("tpot_ms_p50", timing.tpot_ms_p50);
    values.set("itl_ms_p99", timing.itl_ms_p99);
    values.set("slo_goodput_frac", timing.slo_goodput_frac);
    values.set("peak_rss_mb", peak_rss_mb());

    let mut text = header(&workload, opts);
    text.push_str(&format!(
        "set-up          {} times, stage minima: init+inject {:.4} s, calibrate {:.4} s, quantize {:.4} s, engine+gateway {:.6} s\n",
        setups, setup.init_s, setup.calibrate_s, setup.quantize_s, setup.construct_s
    ));
    text.push_str(&timing_text(
        &timing,
        &reps.iter().collect::<Vec<_>>(),
        domain,
        &workload,
    ));
    text.push_str(&format!(
        "self-check      {checked} of {} completed requests recomputed by a plain greedy loop: identical\n",
        timing.completed
    ));
    Ok(RunResult {
        text,
        attempted: timing.offered,
        failed: timing.failed,
        metrics: values.in_order(END_TO_END),
    })
}

pub fn header(workload: &Workload, opts: &Options) -> String {
    format!(
        "workload        {}{} (seed {}, trace digest {:016x}): {}; {} requests\n\
         why             {}\n\
         system          {:?} random-init W4A4 + KV4, prefix cache on (cap {} blocks), batch {}, KV pool {} tokens\n\
         host            pool width {}, kernel path {}, available parallelism {}\n",
        workload.name,
        if opts.quick { " [--quick: numbers mean nothing]" } else { "" },
        opts.seed,
        workload.digest(),
        workload.loop_label(),
        workload.requests.len(),
        workload::why(workload.name),
        system::ZOO,
        workload.prefix_cap_blocks,
        workload.max_batch,
        workload.kv_pool_tokens,
        Pool::global().threads(),
        KernelPath::current().label(),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    )
}

pub fn timing_text(
    t: &Timing,
    reps: &[&Repetition],
    domain: &TickDomain,
    workload: &Workload,
) -> String {
    let (fastest, slowest) = wall_range_ns(reps);
    format!(
        "repetitions     {}, identical in ticks, outcomes and token streams; wall {:.3}-{:.3} s each, composed (per-tick minimum) {:.3} s\n\
         requests        offered {} / completed {} / failed {} in {} ticks (gateway refusals {}, each re-offered by the client after the advised back-off)\n\
         streams         digest {:016x} over every request's terminal and output tokens\n\
         arrival         each request is timed from the start of the tick at which it was due: generator lateness is 0 by construction\n\
         out_tok_s       {:.2} tok/s ({} output tokens)\n\
         ttft_ms         p50 {:.3}  p90 {:.3}  ({} requests{})\n\
         tpot_ms         p50 {:.3}  ({} requests)\n\
         itl_ms          p99 {:.3}  ({} gaps; {} requests that skipped a tick are covered by TPOT only)\n\
         slo_goodput     {:.4} of offered (TTFT <= {} ms and TPOT <= {} ms; refused, expired or failed requests miss)\n",
        reps.len(),
        fastest as f64 / 1e9,
        slowest as f64 / 1e9,
        t.length_s,
        t.offered,
        t.completed,
        t.failed,
        domain.ticks,
        domain.rejects.total(),
        domain.streams_digest(),
        t.out_tok_s,
        t.out_tokens,
        t.ttft_ms_p50,
        t.ttft_ms_p90,
        t.ttft_samples,
        if t.ttft_samples < 100 { "; p90 is nominal below 100 samples" } else { "" },
        t.tpot_ms_p50,
        t.tpot_samples,
        t.itl_ms_p99,
        t.itl_samples,
        t.itl_excluded_requests,
        t.slo_goodput_frac,
        workload.slo.ttft_ms,
        workload.slo.tpot_ms,
    )
}

/// Wall time of the fastest and of the slowest repetition.
fn wall_range_ns(reps: &[&Repetition]) -> (u64, u64) {
    let totals = || reps.iter().map(|r| r.tick_ns.iter().sum::<u64>());
    (totals().min().unwrap_or(1), totals().max().unwrap_or(1))
}

/// (slowest − fastest) ÷ fastest repetition: the machine, not the program.
pub fn rep_spread_frac(reps: &[&Repetition]) -> f64 {
    let (fastest, slowest) = wall_range_ns(reps);
    (slowest - fastest) as f64 / fastest as f64
}
