//! Cross-crate property tests on whole-model invariants.

use branchscope::attack::{AttackConfig, BranchScope, DirectionDict, ProbeKind};
use branchscope::bpu::{
    BackendKind, CounterKind, HybridPredictor, MicroarchProfile, Outcome, PhtState,
};
use branchscope::os::{AslrPolicy, System};
use proptest::prelude::*;

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
        let mut a = HybridPredictor::new(MicroarchProfile::haswell());
        let mut b = HybridPredictor::new(MicroarchProfile::haswell());
        for &(addr, taken) in &trace {
            let (pa, _) = a.execute(addr, Outcome::from_bool(taken), None);
            let (pb, _) = b.execute(addr, Outcome::from_bool(taken), None);
            prop_assert_eq!(pa, pb);
        }
    }

    /// Backend-dispatch property: a hybrid driven through the
    /// `PredictorBackend` enum stays in perfect lockstep with a
    /// directly-driven `HybridPredictor` — identical prediction stream,
    /// identical correctness bits, and identical PHT states everywhere —
    /// for any branch/outcome sequence. The enum adds behaviour-preserving
    /// dispatch, nothing else.
    #[test]
    fn enum_dispatched_hybrid_matches_direct_hybrid(
        trace in proptest::collection::vec((0u64..8192, any::<bool>()), 1..300),
    ) {
        let mut direct = HybridPredictor::new(MicroarchProfile::skylake());
        let mut dispatched = BackendKind::Hybrid.build(MicroarchProfile::skylake());
        for &(addr, taken) in &trace {
            let outcome = Outcome::from_bool(taken);
            let (pd, cd) = direct.execute(addr, outcome, None);
            let (pb, cb) = dispatched.execute(addr, outcome, None);
            prop_assert_eq!(pd, pb, "prediction diverged at {}", addr);
            prop_assert_eq!(cd, cb, "correctness diverged at {}", addr);
        }
        // Whole-PHT agreement, not just the addresses the trace visited.
        let pht_size = direct.profile().pht_size as u64;
        for addr in 0..pht_size {
            prop_assert_eq!(direct.bimodal_state(addr), dispatched.pht_state(addr));
        }
        prop_assert_eq!(direct.stats(), dispatched.stats());
        prop_assert_eq!(direct.ghr().value(), dispatched.ghr().value());
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
