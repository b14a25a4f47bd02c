//! Branch shadowing (Lee et al., USENIX Security 2017) against the BTB.

use bscope_bpu::{Outcome, VirtAddr};
use bscope_os::{Pid, System};

/// Branch-shadowing baseline: the spy *shadows* the victim's branch with
/// its own branch at the colliding address and infers the victim's
/// direction from BTB presence.
///
/// Round structure:
///
/// 1. **Clear** — evict any entry in the victim branch's BTB slot by
///    executing a taken branch that aliases the set with a different tag.
/// 2. **Victim** — the victim executes its branch once; only a *taken*
///    execution installs a BTB entry.
/// 3. **Shadow** — the spy executes its shadow branch (same virtual
///    address) taken, timing it: a fast execution means the BTB entry was
///    present (victim taken); a slow one carries the fetch-redirect bubble
///    of a BTB miss (victim not taken).
///
/// Unlike BranchScope this channel reads the *BTB*, so BTB-focused
/// defenses (flushing, partitioning the BTB) kill it — see
/// [`compare_attacks`](crate::compare_attacks).
#[derive(Debug, Clone)]
pub struct ShadowingAttack {
    target: VirtAddr,
    threshold: f64,
    calibration_samples: usize,
}

impl ShadowingAttack {
    /// Attack against the victim branch at `target`.
    #[must_use]
    pub fn new(target: VirtAddr) -> Self {
        ShadowingAttack { target, threshold: 0.0, calibration_samples: 60 }
    }

    /// The attacked address.
    #[must_use]
    pub fn target(&self) -> VirtAddr {
        self.target
    }

    /// Calibrates the present/absent timing threshold by measuring the
    /// spy's own branches in both BTB states. Must run before
    /// [`ShadowingAttack::read_bit`].
    pub fn calibrate(&mut self, sys: &mut System, spy: Pid) {
        let btb_size = sys.core().profile().btb_size as u64;
        let scratch = self.target ^ 0x15_0000; // unrelated address for calibration
        let mut present = Vec::with_capacity(self.calibration_samples);
        let mut absent = Vec::with_capacity(self.calibration_samples);
        for i in 0..self.calibration_samples {
            let addr = scratch + (i as u64) * 11;
            // Train once (warms the i-cache and the PHT entry, installs the
            // BTB entry) so the timed pair differs only in BTB presence.
            sys.cpu(spy).branch_at_abs(addr, Outcome::Taken);
            present.push(self.timed_shadow(sys, spy, addr));
            // Evict through an alias, then time the BTB miss.
            sys.cpu(spy).branch_at_abs(addr + btb_size, Outcome::Taken);
            absent.push(self.timed_shadow(sys, spy, addr));
        }
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        self.threshold = (mean(&present) + mean(&absent)) / 2.0;
    }

    /// The calibrated decision threshold in cycles.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    fn timed_shadow(&self, sys: &mut System, spy: Pid, addr: VirtAddr) -> u64 {
        // Warm the shadow's PHT entry toward taken first so the measurement
        // isolates the BTB effect from direction mispredictions.
        sys.cpu(spy).timed_branch_at_abs(addr, Outcome::Taken)
    }

    /// Stage 1: clear the victim's BTB slot.
    pub fn prime(&self, sys: &mut System, spy: Pid) {
        let btb_size = sys.core().profile().btb_size as u64;
        sys.cpu(spy).branch_at_abs(self.target + btb_size, Outcome::Taken);
    }

    /// Stage 3: shadow-execute and decode the victim's direction.
    ///
    /// # Panics
    ///
    /// Panics if [`ShadowingAttack::calibrate`] has not run.
    pub fn probe(&self, sys: &mut System, spy: Pid) -> Outcome {
        assert!(self.threshold > 0.0, "calibrate() must run before probing");
        // Average a few measurements to beat timing jitter; the first
        // execution carries the BTB signal, later ones always hit (our own
        // install), so only the first is used.
        let first = self.timed_shadow(sys, spy, self.target);
        Outcome::from_bool((first as f64) < self.threshold)
    }

    /// Reads the victim's branch direction with majority voting over
    /// `rounds` prime → trigger → probe rounds. The single-round timing
    /// signal (a ~14-cycle fetch bubble under ~40 cycles of measurement
    /// noise) is weak, so — like the original attacks, which repeatedly
    /// trigger the victim — several rounds are aggregated.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or calibration has not run.
    pub fn read_bit(
        &self,
        sys: &mut System,
        spy: Pid,
        rounds: usize,
        mut trigger: impl FnMut(&mut System),
    ) -> Outcome {
        assert!(rounds > 0, "need at least one round");
        let mut taken_votes = 0usize;
        for _ in 0..rounds {
            self.prime(sys, spy);
            trigger(sys);
            if self.probe(sys, spy).is_taken() {
                taken_votes += 1;
            }
        }
        Outcome::from_bool(2 * taken_votes >= rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::MicroarchProfile;
    use bscope_os::AslrPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_victim_directions_with_high_accuracy() {
        let mut sys = System::new(MicroarchProfile::haswell(), 31);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        let mut attack = ShadowingAttack::new(target);
        attack.calibrate(&mut sys, spy);

        let mut rng = StdRng::seed_from_u64(7);
        let secret: Vec<Outcome> = (0..300).map(|_| Outcome::from_bool(rng.gen())).collect();
        let mut correct = 0;
        for &s in &secret {
            let read = attack.read_bit(&mut sys, spy, 81, |sys| {
                sys.cpu(victim).branch_at(0x6d, s);
            });
            if read == s {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / secret.len() as f64;
        assert!(accuracy > 0.85, "shadowing accuracy {accuracy:.3}");
    }

    #[test]
    fn probe_without_calibration_panics() {
        let mut sys = System::new(MicroarchProfile::haswell(), 32);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let attack = ShadowingAttack::new(0x40_006d);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            attack.probe(&mut sys, spy);
        }));
        assert!(result.is_err());
    }
}
