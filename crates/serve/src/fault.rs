//! Deterministic fault injection for chaos-testing the serving stack.
//!
//! A [`FaultPlan`] is a precomputed, seeded schedule of faults over a
//! finite step horizon. The engine consults it at the top of every serving
//! iteration:
//!
//! - **allocator-grow faults** make every KV-block allocation fail for
//!   that one step (a transient memory stall: fragmentation, a competing
//!   tenant, a delayed free), exercising the stall/preemption machinery;
//! - **forward faults** kill one in-flight request at that step (a kernel
//!   fault, a numerical blow-up), which must surface as a typed
//!   [`Terminal::Failed`](crate::error::Terminal::Failed) state rather
//!   than poisoning the batch;
//! - **timeout faults** expire one in-flight request's clock at that step
//!   (a stuck worker tripping the request watchdog): the victim
//!   terminalizes [`Terminal::DeadlineExceeded`](crate::error::Terminal)
//!   even though its real step budget had not elapsed, which is exactly
//!   the spurious-timeout shape a gateway retry policy must absorb;
//! - **cancel faults** drop one in-flight request at that step (the client
//!   hung up): the victim terminalizes
//!   [`Terminal::Cancelled`](crate::error::Terminal) and must *not* be
//!   retried by any layer above.
//!
//! Plans are pure data built from a seed, so every chaos run is exactly
//! reproducible: same seed, same faults, same outcome.

use atom_tensor::cast;
use atom_tensor::SeededRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Per-step fault probabilities for [`FaultPlan::seeded_chaos`].
///
/// Each rate is the independent probability that the corresponding fault
/// kind fires at any given step; all rates are clamped to `[0, 1]` at plan
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Allocator-grow fault probability per step.
    pub alloc: f64,
    /// Forward (kill-one-request) fault probability per step.
    pub forward: f64,
    /// Spurious-timeout fault probability per step.
    pub timeout: f64,
    /// Client-cancel fault probability per step.
    pub cancel: f64,
}

/// A finite, deterministic schedule of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    alloc_steps: BTreeSet<usize>,
    forward_steps: BTreeMap<usize, usize>,
    timeout_steps: BTreeMap<usize, usize>,
    cancel_steps: BTreeMap<usize, usize>,
    horizon: usize,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Generates a seeded plan covering all four fault kinds: each step
    /// independently draws allocator, forward, timeout, and cancel faults
    /// at the given [`FaultRates`].
    ///
    /// The plan is a pure function of its arguments: same seed, horizon,
    /// and rates ⇒ the identical schedule, on any host and thread count.
    pub fn seeded_chaos(seed: u64, horizon: usize, rates: FaultRates) -> Self {
        let alloc_rate = cast::f64_to_f32(rates.alloc.clamp(0.0, 1.0));
        let forward_rate = cast::f64_to_f32(rates.forward.clamp(0.0, 1.0));
        let timeout_rate = cast::f64_to_f32(rates.timeout.clamp(0.0, 1.0));
        let cancel_rate = cast::f64_to_f32(rates.cancel.clamp(0.0, 1.0));
        let mut rng = SeededRng::new(seed ^ 0xFA_07_FA_07);
        let mut plan = FaultPlan {
            horizon,
            ..FaultPlan::default()
        };
        for step in 0..horizon {
            if rng.uniform_f32() < alloc_rate {
                plan.alloc_steps.insert(step);
            }
            if rng.uniform_f32() < forward_rate {
                // Victim slot is resolved modulo the live batch size at
                // fire time, so any slot value is meaningful.
                plan.forward_steps.insert(step, rng.below(64));
            }
            if rng.uniform_f32() < timeout_rate {
                plan.timeout_steps.insert(step, rng.below(64));
            }
            if rng.uniform_f32() < cancel_rate {
                plan.cancel_steps.insert(step, rng.below(64));
            }
        }
        plan
    }

    /// Adds an allocator-grow fault at `step` (builder style).
    pub fn with_alloc_fault(mut self, step: usize) -> Self {
        self.alloc_steps.insert(step);
        self.horizon = self.horizon.max(step + 1);
        self
    }

    /// Adds a forward fault at `step` killing the request in batch slot
    /// `slot % batch_len` (builder style).
    pub fn with_forward_fault(mut self, step: usize, slot: usize) -> Self {
        self.forward_steps.insert(step, slot);
        self.horizon = self.horizon.max(step + 1);
        self
    }

    /// Adds a spurious-timeout fault at `step` expiring the request in
    /// batch slot `slot % batch_len` (builder style).
    pub fn with_timeout_fault(mut self, step: usize, slot: usize) -> Self {
        self.timeout_steps.insert(step, slot);
        self.horizon = self.horizon.max(step + 1);
        self
    }

    /// Adds a client-cancel fault at `step` dropping the request in batch
    /// slot `slot % batch_len` (builder style).
    pub fn with_cancel_fault(mut self, step: usize, slot: usize) -> Self {
        self.cancel_steps.insert(step, slot);
        self.horizon = self.horizon.max(step + 1);
        self
    }

    /// Whether allocator growth is poisoned at `step`.
    pub fn alloc_fault(&self, step: usize) -> bool {
        self.alloc_steps.contains(&step)
    }

    /// The victim slot of a forward fault at `step`, if one fires.
    pub fn forward_fault(&self, step: usize) -> Option<usize> {
        self.forward_steps.get(&step).copied()
    }

    /// The victim slot of a spurious-timeout fault at `step`, if one fires.
    pub fn timeout_fault(&self, step: usize) -> Option<usize> {
        self.timeout_steps.get(&step).copied()
    }

    /// The victim slot of a client-cancel fault at `step`, if one fires.
    pub fn cancel_fault(&self, step: usize) -> Option<usize> {
        self.cancel_steps.get(&step).copied()
    }

    /// Steps covered by the plan; beyond this, no faults fire.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.alloc_steps.is_empty()
            && self.forward_steps.is_empty()
            && self.timeout_steps.is_empty()
            && self.cancel_steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocator and forward faults at the given rates, none of the others.
    fn alloc_forward_plan(seed: u64, horizon: usize, alloc: f64, forward: f64) -> FaultPlan {
        let rates = FaultRates {
            alloc,
            forward,
            ..FaultRates::default()
        };
        FaultPlan::seeded_chaos(seed, horizon, rates)
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = alloc_forward_plan(7, 200, 0.3, 0.1);
        assert_eq!(a, alloc_forward_plan(7, 200, 0.3, 0.1));
        let c = alloc_forward_plan(8, 200, 0.3, 0.1);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
        let timeouts = (0..200).filter(|&s| a.timeout_fault(s).is_some()).count();
        assert_eq!(timeouts, 0, "a zero rate never fires");
    }

    #[test]
    fn rates_bound_fault_density() {
        let none = alloc_forward_plan(1, 500, 0.0, 0.0);
        assert!(none.is_empty());
        let all = alloc_forward_plan(1, 100, 1.0, 1.0);
        for step in 0..100 {
            assert!(all.alloc_fault(step));
            assert!(all.forward_fault(step).is_some());
        }
        assert!(!all.alloc_fault(100), "nothing fires past the horizon");
    }

    #[test]
    fn builder_extends_horizon() {
        let plan = FaultPlan::none()
            .with_alloc_fault(3)
            .with_forward_fault(10, 1);
        assert_eq!(plan.horizon(), 11);
        assert!(plan.alloc_fault(3));
        assert!(!plan.alloc_fault(4));
        assert_eq!(plan.forward_fault(10), Some(1));
        assert_eq!(plan.forward_fault(3), None);
    }

    #[test]
    fn timeout_and_cancel_builders() {
        let plan = FaultPlan::none()
            .with_timeout_fault(5, 2)
            .with_cancel_fault(8, 0);
        assert_eq!(plan.horizon(), 9);
        assert_eq!(plan.timeout_fault(5), Some(2));
        assert_eq!(plan.timeout_fault(8), None);
        assert_eq!(plan.cancel_fault(8), Some(0));
        assert_eq!(plan.cancel_fault(5), None);
        assert!(!plan.is_empty());
    }

    #[test]
    fn seeded_chaos_covers_all_kinds_deterministically() {
        let rates = FaultRates {
            alloc: 0.2,
            forward: 0.2,
            timeout: 0.2,
            cancel: 0.2,
        };
        let a = FaultPlan::seeded_chaos(11, 400, rates);
        let b = FaultPlan::seeded_chaos(11, 400, rates);
        assert_eq!(a, b);
        let timeouts = (0..400).filter(|&s| a.timeout_fault(s).is_some()).count();
        let cancels = (0..400).filter(|&s| a.cancel_fault(s).is_some()).count();
        assert!(timeouts > 20, "timeout faults should fire (~80 expected)");
        assert!(cancels > 20, "cancel faults should fire (~80 expected)");
        assert!(a.timeout_fault(400).is_none(), "nothing past the horizon");
    }
}
