//! Open-loop multi-tenant arrival traces for the serving gateway.
//!
//! [`workload`](crate::workload) models *what* a request looks like
//! (ShareGPT-like length distributions); this module models *when* requests
//! arrive and *who* sends them: aggregate traffic that follows diurnal
//! cycles, bursty on/off phases, and flash crowds. A [`TrafficSpec`] compiles a
//! [`pattern`](ArrivalPattern) plus a tenant mix into a deterministic
//! tick-indexed trace of [`Arrival`]s that the gateway replays open-loop —
//! arrivals never wait for earlier requests to finish, exactly like real traffic.
//!
//! Arrivals are drawn from a non-homogeneous Poisson process by thinning: a
//! homogeneous candidate stream at the pattern's peak rate is kept with
//! probability `rate(tick) / peak_rate`. Everything is a pure function of
//! the spec and the seed, so the same trace replays bit-identically on any
//! host and thread count.

use atom_tensor::cast;
use atom_tensor::SeededRng;
use serde::{Deserialize, Serialize};

/// One gateway arrival: at `tick`, tenant `tenant` offers a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Gateway tick at which the offer lands.
    pub tick: u64,
    /// Index into the spec's tenant list.
    pub tenant: usize,
    /// Prompt length in tokens.
    pub prefill_tokens: usize,
    /// Tokens to generate.
    pub decode_tokens: usize,
    /// End-to-end completion budget in ticks from the offer, if the tenant
    /// runs with deadlines (interactive traffic does, batch traffic may
    /// not).
    pub deadline_ticks: Option<u64>,
}

/// One tenant's share and shape of the aggregate traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantTraffic {
    /// Relative share of aggregate arrivals (weights are normalized).
    pub share: f64,
    /// Inclusive prompt-length band in tokens.
    pub prefill_range: (usize, usize),
    /// Inclusive decode-length band in tokens.
    pub decode_range: (usize, usize),
    /// Per-request completion budget in ticks (`None`: no deadline).
    pub deadline_ticks: Option<u64>,
}

impl TenantTraffic {
    /// An interactive tenant: short prompts, short generations, tight
    /// deadlines.
    pub fn interactive(share: f64, deadline_ticks: u64) -> Self {
        TenantTraffic {
            share,
            prefill_range: (4, 24),
            decode_range: (2, 10),
            deadline_ticks: Some(deadline_ticks),
        }
    }

    /// A batch tenant: longer prompts and generations, no deadline.
    pub fn batch(share: f64) -> Self {
        TenantTraffic {
            share,
            prefill_range: (16, 64),
            decode_range: (8, 24),
            deadline_ticks: None,
        }
    }
}

/// Shape of the aggregate arrival-rate curve over the trace horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalPattern {
    /// Constant rate.
    Steady,
    /// Sinusoidal day/night cycle: rate swings between `base / peak_to_trough`
    /// and `base * peak_to_trough` with the given period.
    Diurnal {
        /// Ticks per full cycle.
        period_ticks: u64,
        /// Peak-to-mean rate ratio (≥ 1; also the mean-to-trough ratio).
        peak_to_trough: f64,
    },
    /// Square-wave on/off phases: full rate for `on_ticks`, near-silence
    /// for `off_ticks`, repeating.
    Bursty {
        /// Ticks at full rate per cycle.
        on_ticks: u64,
        /// Ticks at 5% rate per cycle.
        off_ticks: u64,
    },
    /// Baseline traffic with a sudden spike: at `at_tick` the rate jumps to
    /// `magnitude ×` baseline and decays back exponentially.
    FlashCrowd {
        /// Tick of the spike.
        at_tick: u64,
        /// Rate multiplier at the spike (≥ 1).
        magnitude: f64,
        /// Ticks for the spike to decay to ~37% of its excess.
        decay_ticks: u64,
    },
}

impl ArrivalPattern {
    /// Rate multiplier at `tick` (1.0 = the spec's base rate).
    pub fn factor(&self, tick: u64) -> f64 {
        match *self {
            ArrivalPattern::Steady => 1.0,
            ArrivalPattern::Diurnal {
                period_ticks,
                peak_to_trough,
            } => {
                let period = period_ticks.max(1) as f64;
                let phase = (tick as f64 / period) * std::f64::consts::TAU;
                // ln-space sinusoid keeps the swing symmetric in ratio:
                // peak = base * r, trough = base / r.
                (phase.sin() * peak_to_trough.max(1.0).ln()).exp()
            }
            ArrivalPattern::Bursty { on_ticks, off_ticks } => {
                let cycle = (on_ticks + off_ticks).max(1);
                if tick % cycle < on_ticks {
                    1.0
                } else {
                    0.05
                }
            }
            ArrivalPattern::FlashCrowd {
                at_tick,
                magnitude,
                decay_ticks,
            } => {
                if tick < at_tick {
                    1.0
                } else {
                    let dt = (tick - at_tick) as f64;
                    let decay = decay_ticks.max(1) as f64;
                    1.0 + (magnitude.max(1.0) - 1.0) * (-dt / decay).exp()
                }
            }
        }
    }

    /// The pattern's maximum rate multiplier over any horizon (used as the
    /// thinning envelope).
    pub fn peak_factor(&self) -> f64 {
        match *self {
            ArrivalPattern::Steady => 1.0,
            ArrivalPattern::Diurnal { peak_to_trough, .. } => peak_to_trough.max(1.0),
            ArrivalPattern::Bursty { .. } => 1.0,
            ArrivalPattern::FlashCrowd { magnitude, .. } => magnitude.max(1.0),
        }
    }
}

/// A complete open-loop traffic scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Mean arrivals per tick at pattern factor 1.0.
    pub base_rate_per_tick: f64,
    /// Rate curve over the horizon.
    pub pattern: ArrivalPattern,
    /// Trace length in ticks; no arrival lands at or past this tick.
    pub horizon_ticks: u64,
    /// Tenant mix (must be non-empty; shares are normalized).
    pub tenants: Vec<TenantTraffic>,
}

impl TrafficSpec {
    /// Generates the deterministic arrival trace for `seed`.
    ///
    /// Arrivals come out sorted by tick (ties in draw order). Degenerate
    /// specs (no tenants, non-positive or non-finite peak rate, zero
    /// horizon) yield an empty trace rather than panicking or never
    /// returning — the gateway treats an empty trace as zero load.
    pub fn generate(&self, seed: u64) -> Vec<Arrival> {
        let peak = self.base_rate_per_tick.max(0.0) * self.pattern.peak_factor();
        if self.tenants.is_empty() || !(peak.is_finite() && peak > 0.0) || self.horizon_ticks == 0 {
            return Vec::new();
        }
        let shares: Vec<f64> = self.tenants.iter().map(|t| t.share.max(0.0)).collect();
        if shares.iter().sum::<f64>() <= 0.0 {
            return Vec::new();
        }
        let mut rng = SeededRng::new(seed ^ 0x7AFF_1C00);
        let mut out = Vec::new();
        // Homogeneous candidate stream at the peak rate, thinned to the
        // pattern's instantaneous rate.
        let mut clock = 0.0f64;
        loop {
            clock += rng.exponential_f64(peak);
            let tick = clock as u64;
            if tick >= self.horizon_ticks {
                break;
            }
            let keep = self.pattern.factor(tick) / self.pattern.peak_factor();
            if rng.uniform_f32() >= cast::f64_to_f32(keep) {
                continue;
            }
            let tenant = rng.weighted_index(&shares);
            let Some(profile) = self.tenants.get(tenant) else {
                continue; // unreachable: weighted_index is in-range
            };
            out.push(Arrival {
                tick,
                tenant,
                prefill_tokens: sample_range(&mut rng, profile.prefill_range).max(1),
                decode_tokens: sample_range(&mut rng, profile.decode_range).max(1),
                deadline_ticks: profile.deadline_ticks,
            });
        }
        out
    }
}

/// Uniform sample from an inclusive range (degenerate ranges collapse to
/// their lower bound).
fn sample_range(rng: &mut SeededRng, (lo, hi): (usize, usize)) -> usize {
    if hi <= lo {
        lo
    } else {
        lo + rng.below(hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_spec(pattern: ArrivalPattern) -> TrafficSpec {
        TrafficSpec {
            base_rate_per_tick: 2.0,
            pattern,
            horizon_ticks: 400,
            tenants: vec![
                TenantTraffic::interactive(0.75, 40),
                TenantTraffic::batch(0.25),
            ],
        }
    }

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let spec = two_tenant_spec(ArrivalPattern::Steady);
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].tick <= w[1].tick));
        assert!(a.iter().all(|r| r.tick < spec.horizon_ticks));
        assert_ne!(a, spec.generate(8), "different seeds should differ");
    }

    #[test]
    fn tenant_shares_are_respected() {
        let spec = two_tenant_spec(ArrivalPattern::Steady);
        let trace = spec.generate(3);
        let interactive = trace.iter().filter(|r| r.tenant == 0).count() as f64;
        let frac = interactive / trace.len() as f64;
        assert!((0.6..0.9).contains(&frac), "share {frac} far from 0.75");
        // Interactive requests carry deadlines, batch requests do not.
        assert!(trace
            .iter()
            .all(|r| (r.tenant == 0) == r.deadline_ticks.is_some()));
    }

    #[test]
    fn lengths_stay_in_tenant_bands() {
        let spec = two_tenant_spec(ArrivalPattern::Steady);
        for r in spec.generate(4) {
            let Some(t) = spec.tenants.get(r.tenant) else {
                panic!("tenant index out of range")
            };
            assert!((t.prefill_range.0..=t.prefill_range.1).contains(&r.prefill_tokens));
            assert!((t.decode_range.0..=t.decode_range.1).contains(&r.decode_tokens));
        }
    }

    #[test]
    fn diurnal_pattern_modulates_rate() {
        let pattern = ArrivalPattern::Diurnal {
            period_ticks: 200,
            peak_to_trough: 3.0,
        };
        let spec = two_tenant_spec(pattern);
        let trace = spec.generate(5);
        // First quarter of the cycle sits near the peak, third quarter near
        // the trough: the arrival counts must reflect the swing.
        let count_in = |lo: u64, hi: u64| trace.iter().filter(|r| (lo..hi).contains(&r.tick)).count();
        let peak_quarter = count_in(0, 100) + count_in(200, 300);
        let trough_quarter = count_in(100, 200) + count_in(300, 400);
        assert!(
            peak_quarter as f64 > trough_quarter as f64 * 1.5,
            "peak {peak_quarter} vs trough {trough_quarter}"
        );
    }

    #[test]
    fn bursty_pattern_goes_quiet_between_bursts() {
        let spec = two_tenant_spec(ArrivalPattern::Bursty {
            on_ticks: 50,
            off_ticks: 50,
        });
        let trace = spec.generate(6);
        let on = trace.iter().filter(|r| r.tick % 100 < 50).count();
        let off = trace.len() - on;
        assert!(on as f64 > off as f64 * 4.0, "on {on} vs off {off}");
    }

    #[test]
    fn flash_crowd_spikes_then_decays() {
        let spec = two_tenant_spec(ArrivalPattern::FlashCrowd {
            at_tick: 200,
            magnitude: 8.0,
            decay_ticks: 40,
        });
        let trace = spec.generate(9);
        let count_in = |lo: u64, hi: u64| trace.iter().filter(|r| (lo..hi).contains(&r.tick)).count();
        let before = count_in(100, 200);
        let spike = count_in(200, 240);
        let tail = count_in(320, 400);
        assert!(spike > before, "spike window {spike} vs baseline {before}");
        // After several decay constants the rate is back near baseline
        // (window is 80 ticks vs the spike's 40, hence the factor 3 bound).
        assert!(tail < spike * 3, "tail {tail} vs spike {spike}");
    }

    #[test]
    fn degenerate_specs_yield_empty_traces() {
        let mut spec = two_tenant_spec(ArrivalPattern::Steady);
        spec.tenants.clear();
        assert!(spec.generate(1).is_empty());
        let mut spec = two_tenant_spec(ArrivalPattern::Steady);
        spec.base_rate_per_tick = 0.0;
        assert!(spec.generate(1).is_empty());
        let mut spec = two_tenant_spec(ArrivalPattern::Steady);
        spec.horizon_ticks = 0;
        assert!(spec.generate(1).is_empty());
        // A non-finite peak rate draws zero-length gaps: the clock would
        // never reach the horizon.
        let mut spec = two_tenant_spec(ArrivalPattern::Steady);
        spec.base_rate_per_tick = f64::INFINITY;
        assert!(spec.generate(1).is_empty());
        let spec = two_tenant_spec(ArrivalPattern::FlashCrowd {
            at_tick: 10,
            magnitude: f64::INFINITY,
            decay_ticks: 5,
        });
        assert!(spec.generate(1).is_empty());
        let spec = two_tenant_spec(ArrivalPattern::Diurnal {
            period_ticks: 100,
            peak_to_trough: f64::INFINITY,
        });
        assert!(spec.generate(1).is_empty());
    }
}
