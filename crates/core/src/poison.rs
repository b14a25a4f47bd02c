//! Branch poisoning (paper §1): using the shared PHT to *change* the
//! victim's predictor behaviour instead of reading it.
//!
//! "The attacker may also change the predictor state, changing its behavior
//! in the victim. … The branch poisoning attack presented in Spectre is
//! based on the same basic principle as BranchScope — exploiting collisions
//! between different branch instructions in the branch predictor data
//! structures."
//!
//! The primitive is the mirror image of the read attack: instead of priming
//! an entry and probing it afterwards, the attacker saturates the entry in
//! the direction *opposite* to the victim's next execution, forcing a
//! misprediction (and hence transient execution down the wrong path) at a
//! branch of the attacker's choosing.

use bscope_bpu::{Outcome, PhtState, VirtAddr};
use bscope_os::{CpuView, Pid, System};
use crate::prime::TargetedPrime;

/// A branch-poisoning attacker: forces the prediction of a chosen victim
/// branch.
#[derive(Debug)]
pub struct BranchPoisoner {
    target: VirtAddr,
    prime: Option<TargetedPrime>,
}

impl BranchPoisoner {
    /// Poisoner for the victim branch at `target`.
    #[must_use]
    pub fn new(target: VirtAddr) -> Self {
        BranchPoisoner { target, prime: None }
    }

    /// The poisoned address.
    #[must_use]
    pub fn target(&self) -> VirtAddr {
        self.target
    }

    /// Steers the next prediction of the victim's branch to `direction` by
    /// saturating the colliding PHT entry (and evicting the victim's BTB
    /// entry so the simply-indexed 1-level predictor is in charge, exactly
    /// as in the read attack's stage 1).
    pub fn steer(&mut self, cpu: &mut CpuView<'_>, direction: Outcome) {
        let state = match direction {
            Outcome::Taken => PhtState::StronglyTaken,
            Outcome::NotTaken => PhtState::StronglyNotTaken,
        };
        let needs_new = !matches!(&self.prime, Some(p) if p.state() == state);
        if needs_new {
            self.prime = Some(TargetedPrime::new(self.target, state));
        }
        self.prime.as_mut().expect("just set").prime(cpu);
    }

    /// Forces the victim's next execution of the branch to *mispredict*,
    /// given the direction it will actually resolve to (the Spectre-v1
    /// setup: the attacker knows the in-bounds branch will be taken and
    /// trains it not-taken, or vice versa).
    pub fn force_misprediction(&mut self, cpu: &mut CpuView<'_>, victim_resolves: Outcome) {
        self.steer(cpu, victim_resolves.flipped());
    }

    /// Measures the victim misprediction rate the poisoner achieves over
    /// `rounds` rounds of steer → victim-execute, where the victim's branch
    /// always resolves to `victim_direction` (benchmark helper).
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero: there would be no round to count.
    pub fn misprediction_rate(
        &mut self,
        sys: &mut System,
        spy: Pid,
        victim: Pid,
        victim_offset: u64,
        victim_direction: Outcome,
        rounds: usize,
    ) -> f64 {
        assert!(rounds > 0, "need at least one round, got rounds {rounds}");
        let mut missed = 0usize;
        for _ in 0..rounds {
            self.force_misprediction(&mut sys.cpu(spy), victim_direction);
            if sys.cpu(victim).branch_at(victim_offset, victim_direction).mispredicted {
                missed += 1;
            }
        }
        missed as f64 / rounds as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::MicroarchProfile;
    use bscope_os::AslrPolicy;

    fn setup() -> (System, Pid, Pid, VirtAddr) {
        let mut sys = System::new(MicroarchProfile::skylake(), 0xB01);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        (sys, victim, spy, target)
    }

    #[test]
    fn steering_controls_the_victims_prediction() {
        let (mut sys, victim, spy, target) = setup();
        let mut poisoner = BranchPoisoner::new(target);
        for direction in [Outcome::Taken, Outcome::NotTaken, Outcome::Taken] {
            poisoner.steer(&mut sys.cpu(spy), direction);
            let ev = sys.cpu(victim).branch_at(0x6d, direction);
            assert!(!ev.mispredicted, "steered prediction must match when victim agrees");
        }
    }

    #[test]
    fn poisoning_forces_persistent_mispredictions() {
        // Without poisoning, an always-taken victim branch converges to
        // ~zero mispredictions; a poisoner pins it near 100%.
        let (mut sys, victim, spy, target) = setup();

        // Baseline: train then count.
        for _ in 0..4 {
            sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
        }
        let baseline: usize = (0..50)
            .filter(|_| sys.cpu(victim).branch_at(0x6d, Outcome::Taken).mispredicted)
            .count();
        assert_eq!(baseline, 0, "a biased branch is perfectly predicted unpoisoned");

        let mut poisoner = BranchPoisoner::new(target);
        let rate =
            poisoner.misprediction_rate(&mut sys, spy, victim, 0x6d, Outcome::Taken, 50);
        assert!(rate > 0.95, "poisoned misprediction rate {rate}");
    }

    #[test]
    fn poisoning_survives_victim_training_between_rounds() {
        // Even if the victim executes its branch several times between
        // poisoning rounds (partially retraining the entry), one steer
        // re-saturates it.
        let (mut sys, victim, spy, target) = setup();
        let mut poisoner = BranchPoisoner::new(target);
        let mut missed = 0;
        for _ in 0..20 {
            for _ in 0..3 {
                sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
            }
            poisoner.force_misprediction(&mut sys.cpu(spy), Outcome::Taken);
            if sys.cpu(victim).branch_at(0x6d, Outcome::Taken).mispredicted {
                missed += 1;
            }
        }
        assert_eq!(missed, 20, "every poisoned execution mispredicts");
    }

    #[test]
    #[should_panic(expected = "need at least one round, got rounds 0")]
    fn misprediction_rate_without_rounds_panics() {
        let (mut sys, victim, spy, target) = setup();
        let mut poisoner = BranchPoisoner::new(target);
        let _ = poisoner.misprediction_rate(&mut sys, spy, victim, 0x6d, Outcome::Taken, 0);
    }
}
