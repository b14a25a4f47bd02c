//! Three-stage attack orchestration.

use crate::decode::DirectionDict;
use crate::error::AttackError;
use crate::prime::TargetedPrime;
use crate::probe::{probe_once, probe_with_counters, ProbeKind, ProbePattern};
use bscope_bpu::{BackendKind, CounterKind, MicroarchProfile, Outcome, PhtState, VirtAddr};
use bscope_os::{Pid, System};
use bscope_uarch::Span;

/// Configuration of a BranchScope instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackConfig {
    /// Counter flavour of the attacked machine (fixes the decode
    /// dictionary).
    pub counter_kind: CounterKind,
}

/// Strong state the target entry is primed into before each victim
/// execution.
const PRIMED: PhtState = PhtState::StronglyNotTaken;

/// Probe direction pair, opposing [`PRIMED`]. This SN + TT pair works on
/// all three paper machines, including Skylake with its ST/WT ambiguity.
const PROBE: ProbeKind = ProbeKind::TakenTaken;

/// Cycles the spy waits around the victim trigger (the `usleep` of
/// Listing 3 that lets the slowed-down victim execute its branch). This is
/// the window in which the primed PHT entry is exposed to background noise;
/// Table 2's error rates scale with it.
pub const VICTIM_WAIT_CYCLES: u64 = 40_000;

impl AttackConfig {
    /// The configuration for a machine profile: the decode dictionary for
    /// the profile's counter flavour (the attack always primes SN and
    /// probes TT).
    #[must_use]
    pub fn for_profile(profile: &MicroarchProfile) -> Self {
        AttackConfig { counter_kind: profile.counter_kind }
    }

    /// The canonical configuration for a machine profile running on an
    /// explicit predictor backend.
    ///
    /// The decode dictionary is built for the counter flavour of the
    /// backend's [`BackendKind::effective_profile`], which is the machine's
    /// own only on the hybrid.
    #[must_use]
    pub fn for_backend(profile: &MicroarchProfile, backend: BackendKind) -> Self {
        AttackConfig::for_profile(&backend.effective_profile(profile.clone()))
    }
}

/// A configured BranchScope attack: primes, triggers the victim, probes and
/// decodes (paper §4, §7).
///
/// The attack object is stateful only in that each round derives fresh
/// GHR-scramble randomness; the decode dictionary is fixed at construction.
#[derive(Debug)]
pub struct BranchScope {
    dict: DirectionDict,
    targeted: Option<TargetedPrime>,
    /// Round counter feeding the pre-probe history scramble on
    /// history-indexed backends (see `scramble_history`).
    scramble_round: u64,
}

impl BranchScope {
    /// Builds the attack for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::AmbiguousConfiguration`] if the SN prime and
    /// TT probe cannot distinguish victim directions on this counter (see
    /// [`DirectionDict::build`]).
    pub fn new(config: AttackConfig) -> Result<Self, AttackError> {
        let dict = DirectionDict::build(config.counter_kind, PRIMED, PROBE)?;
        Ok(BranchScope { dict, targeted: None, scramble_round: 0 })
    }

    /// The decode dictionary in use.
    #[must_use]
    pub fn dict(&self) -> &DirectionDict {
        &self.dict
    }

    /// Runs stage 1 (prime) only: the same stage 1 as
    /// [`BranchScope::observe_bit`], reinforcement on history-indexed
    /// backends included. Useful when composing a custom stage-3
    /// observation, e.g. probing through the §8 timing channel instead of
    /// the performance counters.
    ///
    /// The targeted prime is cached across rounds so its per-round GHR
    /// scramble actually varies: replaying an identical scramble would hand
    /// the 2-level predictor a learnable context, which is precisely what
    /// stage 1 must prevent.
    pub fn prime(&mut self, sys: &mut System, spy: Pid, target: VirtAddr) {
        sys.core_mut().trace_span_begin(Span::Prime);
        let targeted = match &mut self.targeted {
            Some(t) if t.target() == target => t,
            slot => slot.insert(TargetedPrime::new(target, PRIMED)),
        };
        targeted.prime(&mut sys.cpu(spy));
        if sys.core().bpu().kind() != BackendKind::Hybrid {
            // Reinforce the prime under fresh history contexts: on a
            // tagged/history-indexed substrate, individual saturation steps
            // can be absorbed by stale tagged entries, so the spy repeats
            // the saturating execution with a re-scramble before each step
            // (harmlessly redundant when the base entry is already
            // saturated). Each step runs as the last branch of its
            // scramble's block. The final scramble leaves the *victim's*
            // upcoming execution in a fresh context too.
            let direction = PRIMED.predicted();
            for _ in 0..4 {
                self.scramble_history(sys, spy, target, Some(direction));
            }
            self.scramble_history(sys, spy, target, None);
        }
        sys.core_mut().trace_span_end(Span::Prime);
    }

    /// Runs one full prime → victim → probe round and returns the raw
    /// observed pattern (stage 3 observation, before decoding).
    ///
    /// `trigger` is the stage-2 action: it must cause the victim to execute
    /// the monitored branch exactly once, the effect of the threat model's
    /// victim slowdown. Typically it steps the victim's `Workload` once on
    /// its `CpuView`, or single-steps an SGX enclave
    /// (`Enclave::single_step`).
    pub fn observe_bit(
        &mut self,
        sys: &mut System,
        spy: Pid,
        target: VirtAddr,
        trigger: impl FnOnce(&mut System),
    ) -> ProbePattern {
        self.prime(sys, spy, target); // stage 1
        let history_indexed = sys.core().bpu().kind() != BackendKind::Hybrid;
        // Stage 2: wait for the slowed-down victim to reach and execute the
        // monitored branch (Listing 3's usleep). Background noise keeps
        // running on the shared BPU throughout.
        sys.core_mut().trace_span_begin(Span::VictimWindow);
        sys.cpu(spy).work(VICTIM_WAIT_CYCLES / 2);
        trigger(sys);
        sys.cpu(spy).work(VICTIM_WAIT_CYCLES / 2);
        sys.core_mut().trace_span_end(Span::VictimWindow);
        sys.core_mut().trace_span_begin(Span::Probe);
        let pattern = if history_indexed {
            // Stage 3 on a history-indexed backend: each probe observation
            // gets its own fresh history context (see `scramble_history`).
            self.scramble_history(sys, spy, target, None);
            let first = probe_once(&mut sys.cpu(spy), target, PROBE);
            self.scramble_history(sys, spy, target, None);
            let second = probe_once(&mut sys.cpu(spy), target, PROBE);
            ProbePattern::from_hits(first, second)
        } else {
            // stage 3, the paper's back-to-back probe pair
            probe_with_counters(&mut sys.cpu(spy), target, PROBE)
        };
        sys.core_mut().trace_span_end(Span::Probe);
        pattern
    }

    /// Spy-side history re-randomization, used around every
    /// prime/victim/probe step on history-indexed predictor backends only
    /// (the caller gates on the backend kind, keeping the canonical hybrid
    /// round byte-for-byte identical — there, stage 1's BTB eviction
    /// already forces the probes into address-indexed prediction).
    ///
    /// On TAGE, the attack round is a near-fixed branch-outcome sequence,
    /// so without this the short-history tagged contexts recur across
    /// rounds and stale tagged entries — allocated whenever the target
    /// mispredicted, which the attack provokes constantly — train to
    /// confidence and shadow the base table. The spy defeats that the same
    /// way Listing 1's randomization block defeats the 2-level predictor:
    /// it executes a burst of junk branches with round-varying addresses
    /// and outcomes before each step that touches the target, leaving the
    /// global history in a context whose tagged entries (if any) have never
    /// seen a consistent outcome stream, so they stay weak and prediction
    /// falls back to the address-indexed base table (see `bscope_bpu::tage`
    /// on the weak-entry/alternate-prediction policy this leans on).
    /// Beyond scrambling, the burst's branches are not arbitrary: they are
    /// drawn from the target's *tagged-set alias family*. The tagged tables
    /// index with `pc ^ (pc >> 7) ^ folded_history`, which is XOR-linear in
    /// `pc`, so any displacement `d = p | p << 7 | p << 14` (7-bit `p`)
    /// yields an address `target ^ d` that lands in the **same tagged slot
    /// as the target in every component at every history** while carrying a
    /// different tag and a different base-table index. Every time one of
    /// these aliases mispredicts, its allocation claims exactly a slot a
    /// stale target entry could be squatting in, evicting it — at a far
    /// higher rate than the target's own mispredictions re-allocate. This
    /// is the §6.2 "one-time effort" search extended to the tagged tables:
    /// the attacker characterises the index function offline, then replays
    /// colliding junk branches forever after.
    ///
    /// `then_target` appends one execution of the target in that
    /// direction (a reinforcement step of stage 1). The burst runs as one
    /// straight-line block ([`bscope_os::CpuView::block_at_abs`]) based at
    /// the target's 2 MiB-aligned region, which holds every alias: each
    /// displacement `d` is below `2^21`.
    fn scramble_history(
        &mut self,
        sys: &mut System,
        spy: Pid,
        target: VirtAddr,
        then_target: Option<Outcome>,
    ) {
        const ALIASES: usize = 64;
        const REGION_MASK: VirtAddr = (1 << 21) - 1;
        let pht_mask = (sys.core().profile().pht_size - 1) as u64;
        self.scramble_round = self.scramble_round.wrapping_add(1);
        // SplitMix64 stream over the round counter: deterministic, but
        // different in every round.
        let mut x = self.scramble_round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let offset = |addr: VirtAddr| (addr & REGION_MASK) as u32;
        let mut burst = [(offset(target), then_target.unwrap_or(Outcome::NotTaken)); ALIASES + 1];
        for branch in &mut burst[..ALIASES] {
            x ^= x >> 27;
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            x ^= x >> 31;
            // p ranges over 1..=126: zero would alias the base slot, and
            // the all-ones pattern has a zero *tag* displacement (it would
            // impersonate the target rather than evict it).
            let p = ((x >> 8) % 126) + 1;
            let d = p | p << 7 | p << 14;
            let addr = target ^ d;
            debug_assert_ne!(addr & pht_mask, target & pht_mask, "alias must miss the base slot");
            *branch = (offset(addr), Outcome::from_bool(x & 1 == 1));
        }
        let len = ALIASES + usize::from(then_target.is_some());
        sys.cpu(spy).block_at_abs(target & !REGION_MASK, &burst[..len]);
    }

    /// Reads the direction of one victim branch execution.
    pub fn read_bit(
        &mut self,
        sys: &mut System,
        spy: Pid,
        target: VirtAddr,
        trigger: impl FnOnce(&mut System),
    ) -> Outcome {
        let pattern = self.observe_bit(sys, spy, target, trigger);
        self.dict.decode(pattern)
    }

    /// Reads `n` consecutive victim branch directions; `trigger` is called
    /// once per bit with the bit index.
    pub fn read_bits(
        &mut self,
        sys: &mut System,
        spy: Pid,
        target: VirtAddr,
        n: usize,
        mut trigger: impl FnMut(&mut System, usize),
    ) -> Vec<Outcome> {
        (0..n).map(|i| self.read_bit(sys, spy, target, |sys| trigger(sys, i))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::run_spy;
    use bscope_os::AslrPolicy;
    use bscope_uarch::NoiseConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(profile: MicroarchProfile, seed: u64) -> (System, Pid, Pid, VirtAddr) {
        let mut sys = System::new(profile, seed);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        (sys, victim, spy, target)
    }

    #[test]
    fn reads_single_bits_on_all_three_machines() {
        for profile in MicroarchProfile::paper_machines() {
            let (mut sys, victim, spy, target) = setup(profile.clone(), 42);
            let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
            for &secret in &[Outcome::Taken, Outcome::NotTaken, Outcome::Taken] {
                let read = attack.read_bit(&mut sys, spy, target, |sys| {
                    sys.cpu(victim).branch_at(0x6d, secret);
                });
                assert_eq!(read, secret, "{}", profile.arch);
            }
        }
    }

    #[test]
    fn observed_patterns_match_the_dictionary() {
        let profile = MicroarchProfile::haswell();
        let (mut sys, victim, spy, target) = setup(profile.clone(), 7);
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
        let pattern = attack.observe_bit(&mut sys, spy, target, |sys| {
            sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
        });
        assert_eq!(pattern, attack.dict().expected(Outcome::Taken));
    }

    #[test]
    fn recovers_a_random_bitstream_noiselessly() {
        let profile = MicroarchProfile::skylake();
        let (mut sys, victim, spy, target) = setup(profile.clone(), 13);
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let secret: Vec<Outcome> = (0..200).map(|_| Outcome::from_bool(rng.gen())).collect();
        let read = attack.read_bits(&mut sys, spy, target, secret.len(), |sys, i| {
            sys.cpu(victim).branch_at(0x6d, secret[i]);
        });
        assert_eq!(read, secret, "noiseless recovery must be exact");
    }

    #[test]
    fn tolerates_system_noise_with_low_error() {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 31).with_noise(NoiseConfig::system_activity()).unwrap();
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let secret: Vec<Outcome> = (0..2_000).map(|_| Outcome::from_bool(rng.gen())).collect();
        let read = attack.read_bits(&mut sys, spy, target, secret.len(), |sys, i| {
            sys.cpu(victim).branch_at(0x6d, secret[i]);
        });
        let errors = read.iter().zip(&secret).filter(|(a, b)| a != b).count();
        let rate = errors as f64 / secret.len() as f64;
        assert!(rate < 0.05, "error rate {rate:.4} too high under system noise");
    }

    /// Stage 1 on TAGE, branch by branch on the traced (per-branch
    /// fallback) path: the targeted prime, four scramble blocks of 64
    /// tagged-set aliases that each end in one saturating execution of the
    /// target, and a final scramble of 64 aliases. The untraced fast path
    /// must leave the same machine.
    #[test]
    fn tage_prime_runs_its_contract_on_both_block_paths() {
        const ROUNDS: usize = 2;
        // TargetedPrime: 256 pollution branches, 4 BTB-alias branches and
        // the two-bit counter's 3 saturating steps.
        const TARGETED: usize = 256 + 4 + 3;
        const ALIASES: usize = 64;
        let stage1 = |sys: &mut System, spy: Pid, target: VirtAddr| {
            let config = AttackConfig::for_backend(sys.core().profile(), BackendKind::Tage);
            let mut attack = BranchScope::new(config).unwrap();
            for _ in 0..ROUNDS {
                attack.prime(sys, spy, target);
            }
        };
        let (traced_state, target, branches) = run_spy(BackendKind::Tage, true, stage1);
        let (fast_state, _, _) = run_spy(BackendKind::Tage, false, stage1);
        assert_eq!(fast_state, traced_state, "fast path differs from the fallback");

        let is_alias = |&(addr, _): &(VirtAddr, bool)| {
            let d = addr ^ target;
            let p = d & 0x7f;
            (1..=126).contains(&p) && d == p | p << 7 | p << 14
        };
        let per_round = TARGETED + 4 * (ALIASES + 1) + ALIASES;
        assert_eq!(branches.len(), ROUNDS * per_round);
        for round in branches.chunks_exact(per_round) {
            let (reinforce, last) = round[TARGETED..].split_at(4 * (ALIASES + 1));
            for step in reinforce.chunks_exact(ALIASES + 1) {
                assert!(step[..ALIASES].iter().all(is_alias), "{step:x?}");
                assert_eq!(step[ALIASES], (target, false), "saturating in the primed direction");
            }
            assert!(last.iter().all(is_alias), "{last:x?}");
        }
    }

    #[test]
    fn for_backend_decodes_the_counter_kind_the_backend_runs() {
        for profile in MicroarchProfile::paper_machines() {
            for backend in BackendKind::ALL {
                assert_eq!(
                    AttackConfig::for_backend(&profile, backend).counter_kind,
                    backend.build(profile.clone()).profile().counter_kind,
                    "{backend} on {}",
                    profile.arch
                );
            }
        }
    }
}
