//! Cross-crate property tests on whole-model invariants.

use branchscope::attack::{AttackConfig, BranchScope, DirectionDict, ProbeKind};
use branchscope::bpu::{
    BackendKind, CounterKind, MicroarchProfile, Outcome, PhtState, PredictorKind,
};
use branchscope::os::{AslrPolicy, System};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Figure 1 front end written out straight-line over flat arrays: the
/// bimodal and gshare PHTs, a `0..=7` chooser with threshold 4, a
/// direct-mapped BTB of `(tag, target)` and a masked GHR. It shares no code
/// with `bscope-bpu`, so lockstep agreement checks the backend's selection
/// logic, chooser training and restart, and BTB/GHR commit order.
struct RefHybrid {
    max_level: u8,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    btb: Vec<Option<(u64, u64)>>,
    ghr: u64,
    ghr_mask: u64,
}

/// One dynamic branch as the reference model saw it.
#[derive(Debug, PartialEq)]
struct RefPrediction {
    taken: bool,
    btb_hit: bool,
    used_gshare: bool,
    target: Option<u64>,
}

impl RefHybrid {
    fn new(p: &MicroarchProfile) -> Self {
        RefHybrid {
            max_level: if p.counter_kind == CounterKind::SkylakeAsymmetric { 4 } else { 3 },
            bimodal: vec![1; p.pht_size],
            gshare: vec![1; p.pht_size],
            chooser: vec![0; p.selector_size],
            btb: vec![None; p.btb_size],
            ghr: 0,
            ghr_mask: (1 << p.ghr_bits) - 1,
        }
    }

    fn execute(&mut self, addr: u64, taken: bool) -> RefPrediction {
        let b = (addr % self.bimodal.len() as u64) as usize;
        let g = ((addr ^ self.ghr) % self.gshare.len() as u64) as usize;
        let c = (addr % self.chooser.len() as u64) as usize;
        let set = (addr % self.btb.len() as u64) as usize;
        let tag = addr / self.btb.len() as u64;
        let bimodal = self.bimodal[b] >= 2;
        let gshare = self.gshare[g] >= 2;
        let entry = self.btb[set].filter(|&(t, _)| t == tag);
        let btb_hit = entry.is_some();
        let used_gshare = btb_hit && self.chooser[c] >= 4;
        let direction = if used_gshare { gshare } else { bimodal };
        let step = |level: &mut u8, max: u8| {
            *level = if taken { (*level + 1).min(max) } else { level.saturating_sub(1) };
        };
        step(&mut self.bimodal[b], self.max_level);
        step(&mut self.gshare[g], self.max_level);
        // Only BTB-resident branches train the chooser, and only when the
        // components disagree.
        if btb_hit && bimodal != gshare {
            let level = &mut self.chooser[c];
            *level = if gshare == taken { (*level + 1).min(7) } else { level.saturating_sub(1) };
        }
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & self.ghr_mask;
        if taken {
            // A taken branch that missed allocates its BTB entry and
            // restarts its chooser strongly bimodal.
            if !btb_hit {
                self.chooser[c] = 0;
            }
            self.btb[set] = Some((tag, addr + 2));
        }
        RefPrediction {
            taken: direction,
            btb_hit,
            used_gshare,
            target: entry.filter(|_| direction).map(|(_, target)| target),
        }
    }

    fn pht_state(&self, index: usize) -> PhtState {
        match (self.bimodal[index], self.max_level) {
            (0, _) => PhtState::StronglyNotTaken,
            (1, _) => PhtState::WeaklyNotTaken,
            (2, _) | (3, 4) => PhtState::WeaklyTaken,
            _ => PhtState::StronglyTaken,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole machine is deterministic: identical seeds and identical
    /// branch traces produce identical predictions, counters and clocks.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        trace in proptest::collection::vec((0u64..4096, any::<bool>()), 1..200),
    ) {
        let run = || {
            let mut sys = System::new(MicroarchProfile::skylake(), seed);
            let pid = sys.spawn("p", AslrPolicy::Disabled);
            for &(off, taken) in &trace {
                sys.cpu(pid).branch_at(off, Outcome::from_bool(taken));
            }
            (sys.cpu(pid).counters(), sys.cpu(pid).rdtscp())
        };
        prop_assert_eq!(run(), run());
    }

    /// Two hybrid predictors fed the same dynamic stream stay in lockstep —
    /// prediction is a pure function of architectural history.
    #[test]
    fn hybrid_predictors_stay_in_lockstep(
        trace in proptest::collection::vec((0u64..2048, any::<bool>()), 1..300),
    ) {
        let mut a = BackendKind::Hybrid.build(MicroarchProfile::haswell());
        let mut b = BackendKind::Hybrid.build(MicroarchProfile::haswell());
        for &(addr, taken) in &trace {
            let (pa, _) = a.execute(addr, Outcome::from_bool(taken), None);
            let (pb, _) = b.execute(addr, Outcome::from_bool(taken), None);
            prop_assert_eq!(pa, pb);
        }
    }

    /// The hybrid backend agrees branch by branch with [`RefHybrid`] on
    /// every paper machine: direction, BTB hit, component used, target and
    /// correctness, then every bimodal PHT entry and the GHR at the end.
    ///
    /// Random addresses almost never hit the BTB or migrate a chooser, so
    /// the stream is a loop body of six branches, each repeating its own
    /// outcome pattern (period 2-6, never constant) with a rare flip, plus
    /// occasional taken executions of two BTB aliases of the first branch,
    /// which evict its entry and so restart its chooser.
    #[test]
    fn hybrid_backend_matches_reference_model(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for profile in MicroarchProfile::paper_machines() {
            let mut backend = BackendKind::Hybrid.build(profile.clone());
            let mut model = RefHybrid::new(&profile);
            // (address, period, pattern): bit 0 taken and bit 1 not taken,
            // so no pattern is constant.
            let branches: Vec<(u64, u64, u64)> = (0..6u64)
                .map(|i| (0x40_0000 + i * 0x1f3, rng.gen_range(2..7), (rng.gen::<u64>() | 1) & !2))
                .collect();
            let first = branches[0].0;
            let aliases = [first + profile.btb_size as u64, first + 2 * profile.btb_size as u64];
            let mut stream = Vec::new();
            for iter in 0..400u64 {
                for &(addr, period, pattern) in &branches {
                    let taken = (pattern >> (iter % period)) & 1 == 1;
                    stream.push((addr, taken ^ rng.gen_bool(0.01)));
                }
                if rng.gen_bool(0.05) {
                    stream.push((aliases[rng.gen_range(0..2)], true));
                }
            }
            for (addr, taken) in stream {
                let want = model.execute(addr, taken);
                let (got, correct) = backend.execute(addr, Outcome::from_bool(taken), None);
                let got_view = RefPrediction {
                    taken: got.direction.is_taken(),
                    btb_hit: got.btb_hit,
                    used_gshare: got.used == PredictorKind::Gshare,
                    target: got.target,
                };
                prop_assert_eq!(&got_view, &want, "{:?} at {:#x}", profile.arch, addr);
                prop_assert_eq!(correct, want.taken == taken);
            }
            let arch = profile.arch;
            prop_assert!(backend.stats().gshare_used > 0, "{:?}: chooser never migrated", arch);
            for index in 0..profile.pht_size {
                prop_assert_eq!(backend.pht_state(index as u64), model.pht_state(index));
            }
            prop_assert_eq!(backend.ghr().value(), model.ghr);
        }
    }

    /// Priming is idempotent at the architectural level: after a prime, the
    /// target entry is in the configured strong state regardless of any
    /// prior branch history.
    #[test]
    fn prime_always_lands_in_the_configured_state(
        history in proptest::collection::vec((0u64..65_536, any::<bool>()), 0..300),
        prime_taken in any::<bool>(),
    ) {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 7);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        // Arbitrary victim activity first.
        for &(off, taken) in &history {
            sys.cpu(victim).branch_at(off, Outcome::from_bool(taken));
        }
        let state = if prime_taken { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
        let mut prime = branchscope::attack::TargetedPrime::new(target, state);
        prime.prime(&mut sys.cpu(spy));
        prop_assert_eq!(sys.core().bpu().pht_state(target), state);
        // The victim's own BTB entry is always evicted; a *taken* prime then
        // installs the spy's entry at the same address (same tag), so only
        // the not-taken prime leaves the slot empty.
        prop_assert_eq!(sys.core().bpu().btb().contains(target), prime_taken);
    }

    /// For every usable (counter, primed-state, probe) configuration, the
    /// dictionary decodes its own expected patterns back to the victim
    /// direction that produced them.
    #[test]
    fn dictionaries_are_self_consistent(kind_sky in any::<bool>(), primed_taken in any::<bool>()) {
        let kind = if kind_sky { CounterKind::SkylakeAsymmetric } else { CounterKind::TwoBit };
        let primed = if primed_taken { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
        for probe in [ProbeKind::TakenTaken, ProbeKind::NotTakenNotTaken] {
            if let Ok(dict) = DirectionDict::build(kind, primed, probe) {
                for victim in [Outcome::Taken, Outcome::NotTaken] {
                    prop_assert_eq!(dict.decode(dict.expected(victim)), victim);
                }
            }
        }
    }

    /// A single noiseless attack round reads the victim's direction
    /// correctly from any prior machine state the victim may have created.
    #[test]
    fn one_round_is_correct_from_arbitrary_machine_state(
        warmup in proptest::collection::vec((0u64..32_768, any::<bool>()), 0..200),
        secret in any::<bool>(),
    ) {
        let profile = MicroarchProfile::haswell();
        let mut sys = System::new(profile.clone(), 11);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        for &(off, taken) in &warmup {
            sys.cpu(victim).branch_at(off, Outcome::from_bool(taken));
        }
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
        let read = attack.read_bit(&mut sys, spy, target, |sys| {
            sys.cpu(victim).branch_at(0x6d, Outcome::from_bool(secret));
        });
        prop_assert_eq!(read, Outcome::from_bool(secret));
    }
}
