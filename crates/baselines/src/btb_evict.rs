//! BTB filling/eviction attack (Aciiçmez, Koç & Seifert, 2007).

use bscope_bpu::{Outcome, VirtAddr};
use bscope_os::{Pid, System};

/// The eviction-style BTB baseline: "the spy also executes in parallel and
/// fills the BTB … the spy detects evictions of its BTB entries when the
/// victim process executes taken branches" (paper §11, fourth Aciiçmez
/// attack).
///
/// Round structure:
///
/// 1. **Fill** — the spy installs *its own* entry in the victim branch's
///    BTB set by executing a taken branch that aliases the set;
/// 2. **Victim** — the victim executes its branch once. If taken, its BTB
///    install evicts the spy's entry (direct-mapped set conflict);
/// 3. **Detect** — the spy re-executes its filling branch and times it:
///    slow (BTB miss bubble) ⇒ evicted ⇒ victim **taken**; fast ⇒ entry
///    survived ⇒ victim **not taken**.
#[derive(Debug, Clone)]
pub struct BtbEvictAttack {
    target: VirtAddr,
    threshold: f64,
}

impl BtbEvictAttack {
    /// Attack against the victim branch at `target`.
    #[must_use]
    pub fn new(target: VirtAddr) -> Self {
        BtbEvictAttack { target, threshold: 0.0 }
    }

    /// The attacked address.
    #[must_use]
    pub fn target(&self) -> VirtAddr {
        self.target
    }

    fn filler_addr(&self, sys: &System) -> VirtAddr {
        self.target + sys.core().profile().btb_size as u64
    }

    /// Calibrates the evicted/resident timing threshold on the spy's own
    /// branches. Must run before [`BtbEvictAttack::read_bit`].
    pub fn calibrate(&mut self, sys: &mut System, spy: Pid, samples: usize) {
        let btb_size = sys.core().profile().btb_size as u64;
        let scratch = self.target ^ 0x2a_0000;
        let mut resident = Vec::with_capacity(samples);
        let mut evicted = Vec::with_capacity(samples);
        for i in 0..samples {
            let addr = scratch + (i as u64) * 13;
            // Train the branch (installs the entry), then time it resident…
            sys.cpu(spy).branch_at_abs(addr, Outcome::Taken);
            resident.push(sys.cpu(spy).timed_branch_at_abs(addr, Outcome::Taken));
            // …evict through an alias and time the (taken-bias-trained)
            // branch again with a BTB miss.
            sys.cpu(spy).branch_at_abs(addr + btb_size, Outcome::Taken);
            evicted.push(sys.cpu(spy).timed_branch_at_abs(addr, Outcome::Taken));
        }
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        self.threshold = (mean(&resident) + mean(&evicted)) / 2.0;
    }

    /// The calibrated decision threshold in cycles.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Stage 1: install the spy's filler entry in the victim's BTB set.
    pub fn fill(&self, sys: &mut System, spy: Pid) {
        let filler = self.filler_addr(sys);
        sys.cpu(spy).branch_at_abs(filler, Outcome::Taken);
    }

    /// Stage 3: re-execute the filler and decide from its latency whether
    /// the victim evicted it.
    ///
    /// # Panics
    ///
    /// Panics if [`BtbEvictAttack::calibrate`] has not run.
    fn detect(&self, sys: &mut System, spy: Pid) -> Outcome {
        assert!(self.threshold > 0.0, "calibrate() must run before detection");
        let filler = self.filler_addr(sys);
        let latency = sys.cpu(spy).timed_branch_at_abs(filler, Outcome::Taken);
        // Slow ⇒ our entry was evicted ⇒ the victim's branch was taken.
        Outcome::from_bool(latency as f64 > self.threshold)
    }

    /// Reads the victim's direction by majority voting over `rounds`
    /// fill → trigger → detect rounds.
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
            self.fill(sys, spy);
            trigger(sys);
            if self.detect(sys, spy).is_taken() {
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
    fn eviction_detection_recovers_directions() {
        let mut sys = System::new(MicroarchProfile::haswell(), 41);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        let mut attack = BtbEvictAttack::new(target);
        attack.calibrate(&mut sys, spy, 60);

        let mut rng = StdRng::seed_from_u64(8);
        let secret: Vec<Outcome> = (0..200).map(|_| Outcome::from_bool(rng.gen())).collect();
        let mut correct = 0;
        for &s in &secret {
            let read = attack.read_bit(&mut sys, spy, 41, |sys| {
                sys.cpu(victim).branch_at(0x6d, s);
            });
            if read == s {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / secret.len() as f64;
        assert!(accuracy > 0.85, "eviction-attack accuracy {accuracy:.3}");
    }

    #[test]
    fn threshold_sits_between_state_means() {
        let mut sys = System::new(MicroarchProfile::haswell(), 42);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let mut attack = BtbEvictAttack::new(0x40_006d);
        attack.calibrate(&mut sys, spy, 100);
        // Resident ≈ 85, evicted ≈ 99 ⇒ threshold ≈ low 90s.
        assert!((86.0..98.0).contains(&attack.threshold()), "threshold {}", attack.threshold());
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let mut sys = System::new(MicroarchProfile::haswell(), 43);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let mut attack = BtbEvictAttack::new(0x40_006d);
        attack.calibrate(&mut sys, spy, 10);
        let _ = attack.read_bit(&mut sys, spy, 0, |_| {});
    }
}
