//! The BTB attacks BranchScope supersedes (paper §11): branch shadowing
//! (Lee et al., USENIX Security 2017) and BTB filling/eviction (Aciiçmez,
//! Koç & Seifert, 2007), as one timing attack on the BTB.

use bscope_bpu::{Outcome, VirtAddr};
use bscope_os::{Pid, System};

/// Which BTB side effect of the victim's branch the spy times.
///
/// Both signals start a round the same way: the spy executes a taken
/// branch at `target + btb_size`, which shares the victim branch's
/// direct-mapped BTB set with a different tag. Only a *taken* victim
/// execution then installs the victim's entry in that set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbSignal {
    /// Branch shadowing: the spy times its *shadow* branch at the victim's
    /// own address. Fast (BTB hit) ⇒ the victim installed the entry ⇒
    /// victim **taken**; slow (the fetch-redirect bubble of a BTB miss) ⇒
    /// victim **not taken**.
    Shadowing,
    /// Eviction: the spy times its own aliasing branch, whose entry a
    /// taken victim evicts. Slow ⇒ evicted ⇒ victim **taken**; fast ⇒ the
    /// entry survived ⇒ victim **not taken**.
    Eviction,
}

/// A BTB-timing baseline against the victim branch at `target`: prime the
/// victim's BTB set, let the victim run, time the [`BtbSignal`]'s branch,
/// and take a majority vote over several rounds.
///
/// Unlike BranchScope this channel reads the *BTB*, so BTB-focused
/// defenses (flushing, partitioning the BTB) kill it — see
/// [`Attack::score`](crate::Attack::score).
#[derive(Debug, Clone)]
pub struct BtbTimingAttack {
    signal: BtbSignal,
    target: VirtAddr,
    threshold: f64,
}

impl BtbTimingAttack {
    /// Attack against the victim branch at `target`, reading `signal`.
    #[must_use]
    pub fn new(signal: BtbSignal, target: VirtAddr) -> Self {
        BtbTimingAttack { signal, target, threshold: 0.0 }
    }

    /// Calibrates the hit/miss timing threshold on `samples` of the spy's
    /// own branches: each is trained taken (installing its entry) and
    /// timed, then evicted through an alias and timed again. The threshold
    /// is the midpoint of the two means. Must run before
    /// [`BtbTimingAttack::read_bit`].
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero: there would be no mean to split.
    pub fn calibrate(&mut self, sys: &mut System, spy: Pid, samples: usize) {
        assert!(samples > 0, "need at least one calibration sample, got samples {samples}");
        let btb_size = sys.core().profile().btb_size as u64;
        // Scratch base (XORed into the target) and stride of the spy's
        // calibration branches, away from the victim's BTB set.
        let (base, stride) = match self.signal {
            BtbSignal::Shadowing => (0x15_0000, 11),
            BtbSignal::Eviction => (0x2a_0000, 13),
        };
        let scratch = self.target ^ base;
        let mut resident = Vec::with_capacity(samples);
        let mut evicted = Vec::with_capacity(samples);
        for i in 0..samples as u64 {
            let addr = scratch + i * stride;
            sys.cpu(spy).branch_at_abs(addr, Outcome::Taken);
            resident.push(sys.cpu(spy).timed_branch_at_abs(addr, Outcome::Taken));
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

    /// Reads the victim's branch direction by majority vote over `rounds`
    /// prime → trigger → time rounds. The single-round signal (a ~14-cycle
    /// fetch bubble under ~40 cycles of measurement noise) is weak, so —
    /// like the original attacks, which repeatedly trigger the victim —
    /// several rounds are aggregated.
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
        assert!(self.threshold > 0.0, "calibrate() must run before read_bit()");
        let alias = self.target + sys.core().profile().btb_size as u64;
        let timed = match self.signal {
            BtbSignal::Shadowing => self.target,
            BtbSignal::Eviction => alias,
        };
        let mut taken_votes = 0usize;
        for _ in 0..rounds {
            sys.cpu(spy).branch_at_abs(alias, Outcome::Taken);
            trigger(sys);
            let latency = sys.cpu(spy).timed_branch_at_abs(timed, Outcome::Taken) as f64;
            let taken = match self.signal {
                BtbSignal::Shadowing => latency < self.threshold,
                BtbSignal::Eviction => latency > self.threshold,
            };
            taken_votes += usize::from(taken);
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
    fn both_signals_recover_victim_directions() {
        // (signal, machine seed, secret seed, bits, rounds per bit)
        for (signal, seed, secret_seed, bits, rounds) in
            [(BtbSignal::Shadowing, 31, 7, 300, 81), (BtbSignal::Eviction, 41, 8, 200, 41)]
        {
            let mut sys = System::new(MicroarchProfile::haswell(), seed);
            let victim = sys.spawn("victim", AslrPolicy::Disabled);
            let spy = sys.spawn("spy", AslrPolicy::Disabled);
            let target = sys.process(victim).vaddr_of(0x6d);
            let mut attack = BtbTimingAttack::new(signal, target);
            attack.calibrate(&mut sys, spy, 60);

            let mut rng = StdRng::seed_from_u64(secret_seed);
            let secret: Vec<Outcome> = (0..bits).map(|_| Outcome::from_bool(rng.gen())).collect();
            let correct = secret
                .iter()
                .filter(|&&s| {
                    attack.read_bit(&mut sys, spy, rounds, |sys| {
                        sys.cpu(victim).branch_at(0x6d, s);
                    }) == s
                })
                .count();
            let accuracy = correct as f64 / secret.len() as f64;
            assert!(accuracy > 0.85, "{signal:?} accuracy {accuracy:.3}");
        }
    }

    #[test]
    fn threshold_sits_between_state_means() {
        for signal in [BtbSignal::Shadowing, BtbSignal::Eviction] {
            let mut sys = System::new(MicroarchProfile::haswell(), 42);
            let spy = sys.spawn("spy", AslrPolicy::Disabled);
            let mut attack = BtbTimingAttack::new(signal, 0x40_006d);
            attack.calibrate(&mut sys, spy, 100);
            // Resident ≈ 85, evicted ≈ 99 ⇒ threshold ≈ low 90s.
            let threshold = attack.threshold();
            assert!((86.0..98.0).contains(&threshold), "{signal:?} threshold {threshold}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let mut sys = System::new(MicroarchProfile::haswell(), 43);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let mut attack = BtbTimingAttack::new(BtbSignal::Eviction, 0x40_006d);
        attack.calibrate(&mut sys, spy, 10);
        let _ = attack.read_bit(&mut sys, spy, 0, |_| {});
    }

    #[test]
    #[should_panic(expected = "need at least one calibration sample, got samples 0")]
    fn calibrate_without_samples_panics() {
        let mut sys = System::new(MicroarchProfile::haswell(), 44);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        BtbTimingAttack::new(BtbSignal::Shadowing, 0x40_006d).calibrate(&mut sys, spy, 0);
    }

    #[test]
    #[should_panic(expected = "calibrate() must run")]
    fn read_bit_without_calibration_panics() {
        let mut sys = System::new(MicroarchProfile::haswell(), 32);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let attack = BtbTimingAttack::new(BtbSignal::Shadowing, 0x40_006d);
        let _ = attack.read_bit(&mut sys, spy, 1, |_| {});
    }
}
