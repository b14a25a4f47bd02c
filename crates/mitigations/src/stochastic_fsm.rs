//! Stochastic prediction FSM (§10.2 "Other solutions").

use bscope_bpu::VirtAddr;
use bscope_uarch::{BpuPolicy, ContextId, Route};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Makes the prediction FSM stochastic: each dynamic branch's state update
/// is *skipped* with a fixed probability, "interfering with the
/// attacker's ability to precisely infer the direction of the branch taken
/// by the victim" (§10.2).
///
/// With the update suppressed at random, the attacker's carefully primed
/// entry no longer deterministically encodes the victim's single execution:
/// the victim's branch may leave no trace at all, and the attacker's own
/// prime/probe branches land in uncertain states. The performance cost on
/// benign code is mild — a skipped update merely slows FSM training — which
/// is what makes this a plausible hardware knob.
#[derive(Debug)]
pub struct StochasticFsmPolicy {
    probability: f64,
    rng: StdRng,
}

impl StochasticFsmPolicy {
    /// Policy skipping each update with probability `probability`.
    ///
    /// # Panics
    ///
    /// Panics unless `probability` lies in `[0, 1]`.
    #[must_use]
    pub fn new(probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "skip probability must be in [0,1], got {probability}"
        );
        StochasticFsmPolicy { probability, rng: StdRng::seed_from_u64(seed) }
    }
}

impl BpuPolicy for StochasticFsmPolicy {
    fn route(&mut self, _ctx: ContextId, addr: VirtAddr, _tsc: u64) -> Route {
        if self.probability > 0.0 && self.rng.gen_bool(self.probability) {
            Route::PredictNoUpdate(addr)
        } else {
            Route::Predict(addr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{MicroarchProfile, Outcome, PhtState};
    use bscope_uarch::SimCore;

    #[test]
    fn zero_probability_is_transparent() {
        let mut core = SimCore::new(MicroarchProfile::skylake(), 1);
        core.set_policy(Box::new(StochasticFsmPolicy::new(0.0, 2)));
        for _ in 0..4 {
            core.execute_branch(0x100, Outcome::Taken);
        }
        assert_eq!(core.bpu().pht_state(0x100), PhtState::StronglyTaken);
    }

    #[test]
    fn full_suppression_freezes_the_fsm() {
        let mut core = SimCore::new(MicroarchProfile::skylake(), 3);
        core.set_policy(Box::new(StochasticFsmPolicy::new(1.0, 4)));
        for _ in 0..10 {
            core.execute_branch(0x100, Outcome::Taken);
        }
        assert_eq!(
            core.bpu().pht_state(0x100),
            PhtState::WeaklyNotTaken,
            "no update ever commits"
        );
        assert!(!core.bpu().btb().contains(0x100), "BTB untouched too");
    }

    #[test]
    fn partial_suppression_slows_training_statistically() {
        // With p = 0.5, reaching saturation takes more executions on
        // average; over many fresh entries, some are still unsaturated
        // after 4 taken branches while an unmitigated core saturates all.
        let mut core = SimCore::new(MicroarchProfile::haswell(), 5);
        core.set_policy(Box::new(StochasticFsmPolicy::new(0.5, 6)));
        let mut unsaturated = 0;
        for i in 0..200u64 {
            let addr = 0x1000 + i * 3;
            for _ in 0..4 {
                core.execute_branch(addr, Outcome::Taken);
            }
            if core.bpu().pht_state(addr) != PhtState::StronglyTaken {
                unsaturated += 1;
            }
        }
        assert!(
            (40..200).contains(&unsaturated),
            "about two thirds of entries should lag: {unsaturated}/200"
        );
    }

    #[test]
    #[should_panic(expected = "skip probability")]
    fn rejects_out_of_range_probability() {
        let _ = StochasticFsmPolicy::new(1.5, 0);
    }
}
