//! The composed timeline and the end-to-end metrics computed on it.
//!
//! On this shared two-core host one identical single-threaded repetition
//! runs anywhere from 3.0 s to 5.2 s, and the slowdown is in user time: a
//! median of wall-clock repetitions does not repeat within any useful
//! bound. But every repetition executes the same ticks, so tick k of the
//! *composed* timeline lasts the minimum over repetitions of tick k — an
//! estimate of the undisturbed machine, built the same way on both sides of
//! any comparison. Every timing metric is then read off that timeline using
//! the tick indices the gateway itself reports.

use atom_gateway::GatewayTerminal;

use crate::replay::Served;
use crate::workload::Slo;

/// Per tick, the minimum over repetitions, and which repetition supplied it.
pub fn compose(reps: &[&[u64]]) -> (Vec<u64>, Vec<usize>) {
    let ticks = reps.first().map_or(0, |r| r.len());
    assert!(
        reps.iter().all(|r| r.len() == ticks),
        "repetitions differ in tick count"
    );
    (0..ticks)
        .map(|k| {
            reps.iter()
                .enumerate()
                .map(|(rep, r)| (r[k], rep))
                .min()
                .expect("at least one repetition")
        })
        .unzip()
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The timing metrics of one composed timeline, with the sample count
/// behind each percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub length_s: f64,
    pub out_tokens: u64,
    pub out_tok_s: f64,
    pub ttft_ms_p50: f64,
    pub ttft_ms_p90: f64,
    pub ttft_samples: usize,
    pub tpot_ms_p50: f64,
    pub tpot_samples: usize,
    pub itl_ms_p99: f64,
    pub itl_samples: usize,
    /// Requests left out of the ITL sample because they did not emit one
    /// token per tick (preempted or stalled); TPOT covers them.
    pub itl_excluded_requests: usize,
    pub slo_goodput_frac: f64,
    pub offered: usize,
    pub completed: usize,
    pub failed: usize,
}

/// `tick_ns[k]` is the composed duration of the region that ends with the
/// gateway clock reading `k + 1`. A request due at clock `d` waits from the
/// start of region `d`; a token emitted at clock `f` exists at the end of
/// region `f - 1`.
pub fn timing(tick_ns: &[u64], served: &[Served], slo: Slo) -> Timing {
    let mut at_ns = Vec::with_capacity(tick_ns.len() + 1);
    at_ns.push(0u64);
    for &d in tick_ns {
        at_ns.push(at_ns.last().expect("non-empty") + d);
    }
    let ms_between = |from: u64, to: u64| (at_ns[to as usize] - at_ns[from as usize]) as f64 / 1e6;

    let mut ttft = Vec::new();
    let mut tpot = Vec::new();
    let mut itl = Vec::new();
    let mut itl_excluded_requests = 0usize;
    let mut out_tokens = 0u64;
    let mut completed = 0usize;
    let mut good = 0usize;
    for s in served {
        let Some(o) = &s.outcome else { continue };
        let is_completed = o.terminal == GatewayTerminal::Completed;
        if is_completed {
            completed += 1;
            out_tokens += o.tokens.len() as u64;
        }
        let Some(first) = o.first_token_tick else {
            continue;
        };
        let request_ttft = ms_between(s.due_tick, first);
        ttft.push(request_ttft);
        if !is_completed {
            continue;
        }
        let gaps = o.tokens.len().saturating_sub(1) as u64;
        let request_tpot = (gaps > 0).then(|| ms_between(first, o.finished_tick) / gaps as f64);
        if let Some(t) = request_tpot {
            tpot.push(t);
            if o.finished_tick - first == gaps {
                itl.extend((first..o.finished_tick).map(|k| tick_ns[k as usize] as f64 / 1e6));
            } else {
                itl_excluded_requests += 1;
            }
        }
        if request_ttft <= slo.ttft_ms && request_tpot.is_none_or(|t| t <= slo.tpot_ms) {
            good += 1;
        }
    }
    let (ttft, tpot, itl) = (sorted(ttft), sorted(tpot), sorted(itl));
    let length_s = *at_ns.last().expect("non-empty") as f64 / 1e9;
    Timing {
        length_s,
        out_tokens,
        out_tok_s: out_tokens as f64 / length_s,
        ttft_ms_p50: percentile(&ttft, 0.50).unwrap_or(f64::NAN),
        ttft_ms_p90: percentile(&ttft, 0.90).unwrap_or(f64::NAN),
        ttft_samples: ttft.len(),
        tpot_ms_p50: percentile(&tpot, 0.50).unwrap_or(f64::NAN),
        tpot_samples: tpot.len(),
        itl_ms_p99: percentile(&itl, 0.99).unwrap_or(f64::NAN),
        itl_samples: itl.len(),
        itl_excluded_requests,
        slo_goodput_frac: good as f64 / served.len() as f64,
        offered: served.len(),
        completed,
        failed: served.len() - completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_gateway::GatewayOutcome;
    use atom_serve::RequestStats;

    #[test]
    fn composition_takes_each_ticks_minimum_and_names_its_source() {
        let a = [10u64, 50, 30];
        let b = [12u64, 40, 30];
        let c = [11u64, 45, 20];
        let (min, from) = compose(&[&a, &b, &c]);
        assert_eq!(min, [10, 40, 20]);
        assert_eq!(from, [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "differ in tick count")]
    fn composition_refuses_repetitions_of_different_length() {
        compose(&[&[1, 2], &[1]]);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.50), Some(5));
        assert_eq!(percentile(&v, 0.90), Some(9));
        assert_eq!(percentile(&v, 0.99), Some(10));
        assert_eq!(percentile(&[7u32], 0.5), Some(7));
        assert_eq!(percentile::<u32>(&[], 0.5), None);
        let hundred: Vec<u32> = (1..=100).collect();
        assert_eq!(
            percentile(&hundred, 0.90),
            Some(90),
            "ten samples lie beyond p90 of 100"
        );
    }

    fn done(due: u64, first: u64, finished: u64, tokens: usize) -> Served {
        Served {
            due_tick: due,
            offers: 1,
            outcome: Some(GatewayOutcome {
                id: 0,
                tenant: 0,
                terminal: GatewayTerminal::Completed,
                tokens: vec![0; tokens],
                attempts: 1,
                offered_tick: due,
                first_token_tick: Some(first),
                finished_tick: finished,
                engine_stats: RequestStats::default(),
            }),
        }
    }

    #[test]
    fn timing_is_read_off_the_tick_vector() {
        // Five regions of 1, 2, 3, 4, 10 ms.
        let tick_ns = [1_000_000u64, 2_000_000, 3_000_000, 4_000_000, 10_000_000];
        let served = vec![
            // due at clock 0, first token in tick 1, three tokens by tick 3:
            // TTFT 1 ms, TPOT (2+3)/2 = 2.5 ms, gaps 2 and 3 ms.
            done(0, 1, 3, 3),
            // due at clock 1 (waits from the start of region 1), first token
            // at clock 3, done at clock 5 with only two tokens: it stalled a
            // tick, so TPOT (4+10)/1 = 14 ms and no ITL samples.
            done(1, 3, 5, 2),
            // refused: counts as offered and failed, misses the SLO.
            Served {
                due_tick: 2,
                offers: 3,
                outcome: None,
            },
        ];
        let t = timing(
            &tick_ns,
            &served,
            Slo {
                ttft_ms: 5.0,
                tpot_ms: 3.0,
            },
        );
        assert_eq!(t.length_s, 0.020);
        assert_eq!(t.out_tokens, 5);
        assert_eq!(t.out_tok_s, 250.0);
        assert_eq!(
            (t.ttft_ms_p50, t.ttft_ms_p90, t.ttft_samples),
            (1.0, 5.0, 2)
        );
        assert_eq!((t.tpot_ms_p50, t.tpot_samples), (2.5, 2));
        assert_eq!(
            (t.itl_ms_p99, t.itl_samples, t.itl_excluded_requests),
            (3.0, 2, 1)
        );
        // Request 0 meets both limits; request 1 meets TTFT (5 ms) but not
        // TPOT; the refused one misses.
        assert_eq!(t.slo_goodput_frac, 1.0 / 3.0);
        assert_eq!((t.offered, t.completed, t.failed), (3, 2, 1));
    }
}
