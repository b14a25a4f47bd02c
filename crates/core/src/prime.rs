//! Stage-1 priming strategies.

use crate::decode::{decode_state, DecodedState};
use crate::error::AttackError;
use crate::probe::{probe_with_counters, ProbeKind};
use crate::randomize::RandomizationBlock;
use bscope_bpu::{Outcome, PhtState, VirtAddr};
use bscope_os::{CpuView, Pid, System};

/// The short, surgical prime the paper sketches as future work: "if we
/// focus only on evicting a particular branch, we may be able to come up
/// with a shorter sequence of branches" (§5.2).
///
/// Per attack round it:
///
/// 1. **evicts the victim's BTB entry** by executing a taken branch that
///    aliases the victim's BTB set (address + BTB size), forcing the
///    victim's next execution back into 1-level mode, and — because that
///    alias also shares the victim's *selector* entry — repeatedly trains
///    the selector back toward the bimodal side;
/// 2. **scrambles the GHR** with a burst of unrelated random branches so
///    the 2-level predictor sees fresh, useless context;
/// 3. **primes the target PHT entry** by executing the colliding spy
///    branch three times in the desired strong direction (Table 1's
///    prime stage).
///
/// It is 3–4 orders of magnitude cheaper than replaying a full
/// randomization block, which is what makes million-bit covert-channel
/// benchmarks practical; the full-fidelity block prime remains available
/// as [`SearchedPrime`].
#[derive(Debug, Clone)]
pub struct TargetedPrime {
    target: VirtAddr,
    state: PhtState,
    lcg: u64,
}

impl TargetedPrime {
    /// Region the GHR-scramble branches execute in.
    const SCRAMBLE_REGION: VirtAddr = 0x7a_0000;

    /// Pattern-free pollution branches per prime.
    ///
    /// These branches keep the 2-level predictor inaccurate (paper §5.2,
    /// goal 2): without them gshare eventually memorises the attack's own
    /// recurring history contexts, the selector migrates the probe branch
    /// to the 2-level side and the probe observations stop reflecting the
    /// primed PHT entry.
    const POLLUTION: usize = 256;

    /// Targeted prime leaving the entry colliding with `target` in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is a weak state: a single victim execution must
    /// start from a *strong* state for the Table 1 decoding to work.
    #[must_use]
    pub fn new(target: VirtAddr, state: PhtState) -> Self {
        assert!(state.is_strong(), "prime state must be strong (ST or SN), got {state}");
        TargetedPrime { target, state, lcg: target ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// Target address whose PHT entry is primed.
    #[must_use]
    pub fn target(&self) -> VirtAddr {
        self.target
    }

    /// State the entry is left in.
    #[must_use]
    pub fn state(&self) -> PhtState {
        self.state
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64 step: cheap deterministic per-round variation.
        self.lcg = self.lcg.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.lcg;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Runs the prime on the spy's view.
    pub fn prime(&mut self, cpu: &mut CpuView<'_>) {
        // This runs once per transmitted bit; copy out the three scalars
        // needed rather than cloning the whole profile.
        let (btb_size, pht_size, counter_kind) = {
            let profile = cpu.profile();
            (profile.btb_size, profile.pht_size, profile.counter_kind)
        };
        let btb_alias = self.target + btb_size as u64;

        // 1. Scramble the global history and pollute the 2-level predictor
        //    with pattern-free branches at varying addresses (avoiding the
        //    target's own PHT entry). This is the scaled-down core of the
        //    paper's Listing 1: random directions with no inter-branch
        //    dependencies, unpredictable for gshare.
        let pht_mask = (pht_size - 1) as u64;
        for _ in 0..Self::POLLUTION {
            let r = self.next_rand();
            let mut addr = Self::SCRAMBLE_REGION + (r & 0xffff);
            if addr & pht_mask == self.target & pht_mask {
                addr += 1;
            }
            let outcome = Outcome::from_bool(r >> 63 == 1);
            cpu.branch_at_abs(addr, outcome);
        }

        // 2. Evict the victim's BTB entry and scrub the shared selector
        //    entry back toward the bimodal side: the alias branch is
        //    perfectly bimodal-predictable (always taken) but — with the
        //    2-level tables just polluted — unpredictable for gshare, so
        //    every execution pulls the selector toward the 1-level side.
        for _ in 0..4 {
            cpu.branch_at_abs(btb_alias, Outcome::Taken);
        }

        // 3. Drive the target entry into the strong prime state. The
        //    textbook counter saturates from any state in three updates;
        //    Skylake's deeper taken side needs one more (its max level).
        let direction = self.state.predicted();
        let saturation_steps = bscope_bpu::Counter::new(counter_kind).max_level();
        for _ in 0..saturation_steps {
            cpu.branch_at_abs(self.target, direction);
        }
    }
}

/// The paper's §6.2 prime: a pre-attack search finds a randomization block
/// that both randomizes the PHT / disables 2-level prediction *and* leaves
/// the target entry in the attacker's desired state, verified statistically
/// through the probe channel ("Finding the appropriate randomization code
/// is a one-time effort by the attacker").
#[derive(Debug, Clone)]
pub struct SearchedPrime {
    block: RandomizationBlock,
    desired: PhtState,
    target: VirtAddr,
}

impl SearchedPrime {
    /// Searches candidate blocks (seeds `seed`, `seed+1`, …) until one
    /// reliably leaves the entry colliding with `target` in `desired`
    /// state, using only attacker-visible observations (probe patterns and
    /// the state dictionary of §6.2).
    ///
    /// `trials` prime-and-probe repetitions are run per candidate and per
    /// probing variant; a candidate is accepted when every trial decodes to
    /// the desired state (the paper's ≥85 % dominance threshold, tightened
    /// to "all" for the small trial counts used here).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::PrimeSearchExhausted`] when `max_attempts`
    /// candidates all fail, and [`AttackError::InvalidParameter`] for a
    /// zero `trials`/`max_attempts`.
    pub fn search(
        sys: &mut System,
        spy: Pid,
        target: VirtAddr,
        desired: PhtState,
        trials: usize,
        max_attempts: usize,
        seed: u64,
    ) -> Result<Self, AttackError> {
        if trials == 0 || max_attempts == 0 {
            return Err(AttackError::InvalidParameter(
                "trials and max_attempts must be positive".to_owned(),
            ));
        }
        let profile = sys.core().profile().clone();
        for attempt in 0..max_attempts {
            let block = RandomizationBlock::for_profile(&profile, seed.wrapping_add(attempt as u64));
            if Self::candidate_accepted(sys, spy, target, desired, trials, &block, &profile) {
                return Ok(SearchedPrime { block, desired, target });
            }
        }
        Err(AttackError::PrimeSearchExhausted { desired, attempts: max_attempts })
    }

    fn candidate_accepted(
        sys: &mut System,
        spy: Pid,
        target: VirtAddr,
        desired: PhtState,
        trials: usize,
        block: &RandomizationBlock,
        profile: &bscope_bpu::MicroarchProfile,
    ) -> bool {
        // Offline pre-filter (the attacker's one-time analysis): the block
        // must drive the target entry to the desired state regardless of
        // its prior contents.
        if block.converged_state(profile.pht_size, profile.counter_kind, target)
            != Some(desired)
        {
            return false;
        }
        let mut dominants = [None; 2];
        for (slot, kind) in
            dominants.iter_mut().zip([ProbeKind::TakenTaken, ProbeKind::NotTakenNotTaken])
        {
            let mut dominant = None;
            for _ in 0..trials {
                block.execute(&mut sys.cpu(spy));
                let pattern = probe_with_counters(&mut sys.cpu(spy), target, kind);
                match dominant {
                    None => dominant = Some(pattern),
                    Some(d) if d != pattern => return false, // unstable block
                    Some(_) => {}
                }
            }
            *slot = dominant;
        }
        let (Some(tt), Some(nn)) = (dominants[0], dominants[1]) else {
            return false; // unreachable: trials > 0 is validated by search()
        };
        decode_state(profile.counter_kind, tt, nn) == DecodedState::Known(desired)
    }

    /// The accepted randomization block.
    #[must_use]
    pub fn block(&self) -> &RandomizationBlock {
        &self.block
    }

    /// The state the block leaves the target entry in.
    #[must_use]
    pub fn desired(&self) -> PhtState {
        self.desired
    }

    /// The primed target address.
    #[must_use]
    pub fn target(&self) -> VirtAddr {
        self.target
    }

    /// Stage 1: replay the block.
    pub fn prime(&self, cpu: &mut CpuView<'_>) {
        self.block.execute(cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::MicroarchProfile;
    use bscope_os::AslrPolicy;

    fn setup() -> (System, Pid, Pid) {
        let mut sys = System::new(MicroarchProfile::skylake(), 21);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        (sys, victim, spy)
    }

    #[test]
    fn targeted_prime_sets_state_and_evicts_btb() {
        let (mut sys, victim, spy) = setup();
        let target = sys.process(victim).vaddr_of(0x6d);

        // Victim has been running: entry strongly taken, BTB resident.
        for _ in 0..3 {
            sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
        }
        assert!(sys.core().bpu().btb().contains(target));

        let mut prime = TargetedPrime::new(target, PhtState::StronglyNotTaken);
        prime.prime(&mut sys.cpu(spy));

        assert_eq!(sys.core().bpu().pht_state(target), PhtState::StronglyNotTaken);
        assert!(!sys.core().bpu().btb().contains(target), "victim BTB entry evicted");
    }

    #[test]
    fn targeted_prime_scrambles_ghr() {
        let (mut sys, _victim, spy) = setup();
        let mut prime = TargetedPrime::new(0x40_006d, PhtState::StronglyNotTaken);
        prime.prime(&mut sys.cpu(spy));
        let h1 = sys.core().bpu().ghr().value();
        prime.prime(&mut sys.cpu(spy));
        let h2 = sys.core().bpu().ghr().value();
        assert_ne!(h1, h2, "per-round scramble must vary the history");
    }

    #[test]
    #[should_panic(expected = "strong")]
    fn weak_prime_state_rejected() {
        let _ = TargetedPrime::new(0x1000, PhtState::WeaklyTaken);
    }

    #[test]
    fn searched_prime_finds_a_block() {
        let (mut sys, victim, spy) = setup();
        let target = sys.process(victim).vaddr_of(0x6d);
        let prime =
            SearchedPrime::search(&mut sys, spy, target, PhtState::StronglyNotTaken, 3, 64, 1000)
                .expect("a suitable block exists within 64 candidates");
        // Replaying the found block must leave the entry in the desired
        // state even from adversarial starting conditions.
        sys.core_mut().bpu_mut().set_pht_state(target, PhtState::StronglyTaken);
        prime.prime(&mut sys.cpu(spy));
        assert_eq!(sys.core().bpu().pht_state(target), PhtState::StronglyNotTaken);
        assert_eq!(prime.desired(), PhtState::StronglyNotTaken);
        assert_eq!(prime.target(), target);
    }

    #[test]
    fn searched_prime_validates_parameters() {
        let (mut sys, _victim, spy) = setup();
        let err = SearchedPrime::search(&mut sys, spy, 0x1000, PhtState::StronglyNotTaken, 0, 4, 0);
        assert!(matches!(err, Err(AttackError::InvalidParameter(_))));
    }
}
