//! Stage-1 priming strategies.

use crate::decode::{decode_state, DecodedState};
use crate::error::AttackError;
use crate::probe::{probe_with_counters, ProbeKind};
use crate::randomize::RandomizationBlock;
use bscope_bpu::{Outcome, PhtState, VirtAddr};
use bscope_harness::splitmix64;
use bscope_os::{CpuView, Pid, System};

/// The short, surgical prime the paper sketches as future work: "if we
/// focus only on evicting a particular branch, we may be able to come up
/// with a shorter sequence of branches" (§5.2).
///
/// Per attack round it:
///
/// 1. **scrambles the GHR** with a burst of unrelated random branches so
///    the 2-level predictor sees fresh, useless context;
/// 2. **evicts the victim's BTB entry** by executing a taken branch that
///    aliases the victim's BTB set (address + BTB size), forcing the
///    victim's next execution back into 1-level mode, and — because that
///    alias also shares the victim's *selector* entry — repeatedly trains
///    the selector back toward the bimodal side;
/// 3. **primes the target PHT entry** by executing the colliding spy
///    branch in the desired strong direction until the counter saturates
///    (Table 1's prime stage).
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

    /// The most saturating steps any counter needs: Skylake's asymmetric
    /// counter's max level.
    const MAX_SATURATION_STEPS: usize = 4;

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
        let z = splitmix64(self.lcg);
        self.lcg = self.lcg.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Runs the prime on the spy's view as two straight-line blocks
    /// ([`CpuView::block_at_abs`]): the pollution burst, then the BTB
    /// eviction and saturation at the target. Nothing observes a branch in
    /// between, so both take [`bscope_uarch::SimCore::execute_block`]'s
    /// fast path when no tracer, policy or fuzz is installed.
    pub fn prime(&mut self, cpu: &mut CpuView<'_>) {
        // This runs once per transmitted bit; copy out the three scalars
        // needed rather than cloning the whole profile.
        let (btb_size, pht_size, counter_kind) = {
            let profile = cpu.profile();
            (profile.btb_size, profile.pht_size, profile.counter_kind)
        };

        // 1. Scramble the global history and pollute the 2-level predictor
        //    with pattern-free branches at varying addresses (avoiding the
        //    target's own PHT entry). This is the scaled-down core of the
        //    paper's Listing 1: random directions with no inter-branch
        //    dependencies, unpredictable for gshare. Offsets are relative
        //    to `SCRAMBLE_REGION`; the bump off the target's entry can
        //    reach `0x1_0000`.
        let pht_mask = (pht_size - 1) as u64;
        let mut pollution = [(0u32, Outcome::NotTaken); Self::POLLUTION];
        for branch in &mut pollution {
            let r = self.next_rand();
            let mut offset = (r & 0xffff) as u32;
            if (Self::SCRAMBLE_REGION + u64::from(offset)) & pht_mask == self.target & pht_mask {
                offset += 1;
            }
            *branch = (offset, Outcome::from_bool(r >> 63 == 1));
        }
        cpu.block_at_abs(Self::SCRAMBLE_REGION, &pollution);

        // 2. Evict the victim's BTB entry and scrub the shared selector
        //    entry back toward the bimodal side: the alias branch (offset
        //    `btb_size` from the target) is perfectly bimodal-predictable
        //    (always taken) but — with the 2-level tables just polluted —
        //    unpredictable for gshare, so every execution pulls the
        //    selector toward the 1-level side.
        // 3. Drive the target entry (offset 0) into the strong prime
        //    state. The textbook counter saturates from any state in three
        //    updates; Skylake's deeper taken side needs one more (its max
        //    level).
        let btb_offset = u32::try_from(btb_size).expect("BTB size fits a block offset");
        let alias = (btb_offset, Outcome::Taken);
        let saturate = (0, self.state.predicted());
        let saturation_steps = usize::from(bscope_bpu::Counter::new(counter_kind).max_level());
        let mut evict_and_saturate = [saturate; 4 + Self::MAX_SATURATION_STEPS];
        evict_and_saturate[..4].fill(alias);
        cpu.block_at_abs(self.target, &evict_and_saturate[..4 + saturation_steps]);
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

/// What one spy run leaves behind: every PHT entry, the GHR, the BTB, the
/// spy's counters, `rdtscp`, `sim_branches` and the predictor statistics.
#[cfg(test)]
pub(crate) type MachineState = (
    Vec<PhtState>,
    u64,
    String,
    bscope_uarch::PerfCounters,
    u64,
    u64,
    bscope_bpu::PredictionStats,
);

/// Runs `spy_work` on a fresh Skylake machine with `backend` under heavy
/// noise, after the victim has executed its branch (taken) three times.
/// With `traced`, a ring tracer is installed, which sends every block down
/// `SimCore::execute_block`'s per-branch fallback; the spy's branches are
/// then returned as `(addr, taken)` in order. Without it the blocks take
/// the fast path and the list is empty. The victim's branch address, the
/// spy's target, comes back in the middle.
#[cfg(test)]
pub(crate) fn run_spy(
    backend: bscope_bpu::BackendKind,
    traced: bool,
    spy_work: impl FnOnce(&mut System, Pid, VirtAddr),
) -> (MachineState, VirtAddr, Vec<(VirtAddr, bool)>) {
    use bscope_os::AslrPolicy;
    use bscope_uarch::{NoiseConfig, TraceEvent, Tracer};
    let profile = bscope_bpu::MicroarchProfile::skylake();
    let mut sys =
        System::with_backend(profile, backend, 21).with_noise(NoiseConfig::heavy()).unwrap();
    let victim = sys.spawn("victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(0x6d);
    for _ in 0..3 {
        sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
    }
    if traced {
        sys.core_mut().set_tracer(Tracer::ring(1 << 16));
    }
    spy_work(&mut sys, spy, target);
    let capture = sys.core_mut().take_tracer().drain();
    if traced {
        assert!(capture.metrics.counter("noise_branches") > 0, "the noise ran");
    }
    let spy_ctx = sys.process(spy).ctx();
    let branches = capture
        .events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::Branch { ctx, addr, taken, .. } if ctx == spy_ctx => Some((addr, taken)),
            _ => None,
        })
        .collect();
    let core = sys.core();
    let bpu = core.bpu();
    let pht = (0..core.profile().pht_size as u64).map(|i| bpu.pht_state(i)).collect();
    let state = (
        pht,
        bpu.ghr().value(),
        format!("{:?}", bpu.btb()),
        core.counters(spy_ctx),
        core.rdtscp(),
        core.sim_branches(),
        bpu.stats(),
    );
    (state, target, branches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{BackendKind, Counter, MicroarchProfile};
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

    /// The prime's contract, branch by branch, on the traced (per-branch
    /// fallback) path: 256 pollution branches off the target's PHT entry,
    /// 4 taken BTB-alias branches, then `max_level` saturating branches at
    /// the target. The untraced fast path must leave the same machine.
    #[test]
    fn targeted_prime_runs_its_contract_on_both_block_paths() {
        const PRIMES: usize = 3;
        for backend in BackendKind::ALL {
            let primes = |sys: &mut System, spy: Pid, target: VirtAddr| {
                let mut prime = TargetedPrime::new(target, PhtState::StronglyNotTaken);
                for _ in 0..PRIMES {
                    prime.prime(&mut sys.cpu(spy));
                }
            };
            let (traced_state, target, branches) = run_spy(backend, true, primes);
            let (fast_state, _, none) = run_spy(backend, false, primes);
            assert!(none.is_empty());
            assert_eq!(fast_state, traced_state, "{backend}: fast path differs from the fallback");

            let profile = backend.build(MicroarchProfile::skylake()).profile().clone();
            let steps = usize::from(Counter::new(profile.counter_kind).max_level());
            let pht_mask = (profile.pht_size - 1) as u64;
            let per_prime = TargetedPrime::POLLUTION + 4 + steps;
            assert_eq!(branches.len(), PRIMES * per_prime, "{backend}");
            for prime in branches.chunks_exact(per_prime) {
                let (pollution, rest) = prime.split_at(TargetedPrime::POLLUTION);
                let (evict, saturate) = rest.split_at(4);
                let base = TargetedPrime::SCRAMBLE_REGION;
                let region = base..=base + 0x1_0000;
                for &(addr, _) in pollution {
                    assert!(region.contains(&addr), "{backend}: pollution at {addr:#x}");
                    assert_ne!(addr & pht_mask, target & pht_mask, "{backend}: hit the target");
                }
                assert!(evict.iter().all(|&b| b == (target + profile.btb_size as u64, true)));
                assert!(saturate.iter().all(|&b| b == (target, false)), "{backend}: {saturate:x?}");
            }
        }
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
