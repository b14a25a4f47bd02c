//! Attack-under-defense evaluation harness.

use crate::if_conversion::IfConvertedVictim;
use crate::no_predict::NoPredictPolicy;
use crate::partitioned::PartitionedBpuPolicy;
use crate::randomized_pht::RandomizedPhtPolicy;
use crate::stochastic_fsm::StochasticFsmPolicy;
use bscope_bpu::{MicroarchProfile, VirtAddr};
use bscope_core::{AttackConfig, BranchScope, Confusion};
use bscope_os::{AslrPolicy, System, Workload};
use bscope_uarch::{ContextId, MeasurementFuzz, Tracer, NOISE_CTX};
use bscope_victims::{SecretBranchVictim, VICTIM_BRANCH_OFFSET};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The probability that [`Mitigation::StochasticFsm`] skips an update.
const SKIP_PROBABILITY: f64 = 0.5;

/// A defense configuration to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub enum Mitigation {
    /// Unmitigated baseline.
    None,
    /// Per-process PHT index randomization (§10.2), optionally re-keyed
    /// every given number of branches.
    RandomizedPht {
        /// Re-randomization period in branches; `None` = one-time keying.
        rekey_interval: Option<u64>,
    },
    /// Per-context BPU partitioning (§10.2).
    PartitionedBpu {
        /// Number of partitions (power of two).
        partitions: u32,
    },
    /// Flagged sensitive branches bypass prediction entirely (§10.2).
    NoPredictSensitive,
    /// Noisy performance counters / timing measurements,
    /// [`MeasurementFuzz::strong`] (§10.2).
    NoisyMeasurements,
    /// Stochastic prediction FSM: each branch's update skipped with
    /// probability 0.5 (§10.2).
    StochasticFsm,
    /// Victim compiled with if-conversion: no secret-dependent branch
    /// exists (§10.1).
    IfConversion,
}

impl fmt::Display for Mitigation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mitigation::None => f.write_str("none (baseline)"),
            Mitigation::RandomizedPht { rekey_interval: None } => {
                f.write_str("randomized PHT indexing (one-time)")
            }
            Mitigation::RandomizedPht { rekey_interval: Some(n) } => {
                write!(f, "randomized PHT indexing (re-key every {n} branches)")
            }
            Mitigation::PartitionedBpu { partitions } => {
                write!(f, "partitioned BPU ({partitions} partitions)")
            }
            Mitigation::NoPredictSensitive => f.write_str("no prediction for sensitive branches"),
            Mitigation::NoisyMeasurements => f.write_str("noisy counters/timers"),
            Mitigation::StochasticFsm => write!(f, "stochastic FSM (skip p={SKIP_PROBABILITY})"),
            Mitigation::IfConversion => f.write_str("if-converted victim (cmov)"),
        }
    }
}

/// Result of evaluating the attack against one mitigation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// The evaluated defense.
    pub mitigation: Mitigation,
    /// Secret bits (rows) against the bits the spy decoded (columns). An
    /// error rate near 0 means the attack works; a table that does not
    /// [`leak`](Confusion::leaks) means the spy learned nothing, whatever
    /// its error rate.
    pub confusion: Confusion,
}

impl fmt::Display for EvalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, c) = (self.mitigation.to_string(), &self.confusion);
        write!(f, "{m:<48} error {:>6.2}%  -> ", 100.0 * c.error_rate())?;
        if c.leaks() {
            write!(f, "leaks {:.3} bits per read", c.mutual_information())
        } else {
            f.write_str("no detectable leak")
        }
    }
}

/// Runs the BranchScope side-channel (spy reading a victim's secret branch
/// bit stream) under `mitigation` and scores what the spy read, with
/// `tracer` on the core while the spy reads.
///
/// The victim and spy co-reside as in the paper's §7 setup; the secret is
/// uniformly random. For [`Mitigation::IfConversion`] the victim runs the
/// branch-free `cmov` build; every other case runs the ordinary Listing-2
/// victim with the defense installed in hardware.
///
/// # Panics
///
/// Panics if `bits` is zero: a score over no bits would report the attack
/// working without reading one.
#[must_use]
pub fn evaluate(
    mitigation: &Mitigation,
    profile: &MicroarchProfile,
    bits: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> EvalReport {
    evaluate_on(System::new(profile.clone(), seed), mitigation, bits, seed, tracer)
}

/// [`evaluate`] on the machine `sys`, whatever its predictor backend: the
/// defenses are policy wrappers around the core's BPU, so the tests run
/// them on TAGE and the perceptron too.
fn evaluate_on(
    mut sys: System,
    mitigation: &Mitigation,
    bits: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> EvalReport {
    assert!(bits > 0, "evaluating a defense needs at least one secret bit");
    let victim = sys.spawn("victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
    let victim_ctx = sys.process(victim).ctx();
    let keyed = [victim_ctx, sys.process(spy).ctx(), NOISE_CTX];
    install_policy(&mut sys, mitigation, seed, &keyed, (victim_ctx, target));
    if *mitigation == Mitigation::NoisyMeasurements {
        sys.set_measurement_fuzz(Some(MeasurementFuzz::strong())).expect("strong fuzz is valid");
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC2);
    let secret: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
    let mut attack = BranchScope::new(AttackConfig::for_profile(sys.core().profile()))
        .expect("canonical config is valid");
    let mut workload: Box<dyn Workload> = match mitigation {
        Mitigation::IfConversion => Box::new(IfConvertedVictim::new(secret.clone())),
        _ => Box::new(SecretBranchVictim::new(secret.clone())),
    };

    let read = sys.with_tracer(tracer, |sys| {
        attack.read_bits(sys, spy, target, bits, |sys, _| {
            workload.step(&mut sys.cpu(victim));
        })
    });
    let confusion = secret
        .iter()
        .zip(read)
        .map(|(&bit, outcome)| (bit, SecretBranchVictim::bit_from_outcome(outcome)))
        .collect();
    EvalReport { mitigation: mitigation.clone(), confusion }
}

/// Performance cost of a defense on a *benign* workload: the misprediction
/// rate of a loop-heavy program (7 taken iterations, 1 not-taken exit,
/// repeated) under the mitigation, which an unmitigated predictor learns
/// almost perfectly. The paper notes most of its defenses trade performance
/// for security (§10); this quantifies the trade on the model. `tracer` is
/// on the core while the loop runs.
#[must_use]
pub fn benign_overhead(
    mitigation: &Mitigation,
    profile: &MicroarchProfile,
    seed: u64,
    tracer: &mut Tracer,
) -> f64 {
    let mut sys = System::new(profile.clone(), seed);
    let app = sys.spawn("app", AslrPolicy::Disabled);
    let app_ctx = sys.process(app).ctx();
    let hot_branch = sys.process(app).vaddr_of(0x50);
    // Under no-prediction, the developer flagged this (hot!) branch as
    // sensitive.
    install_policy(&mut sys, mitigation, seed, &[app_ctx], (app_ctx, hot_branch));
    let iterations = 4_000u64;
    sys.with_tracer(tracer, |sys| {
        for i in 0..iterations {
            let taken = i % 8 != 7;
            sys.cpu(app).branch_at(0x50, bscope_bpu::Outcome::from_bool(taken));
        }
    });
    let counters = sys.cpu(app).counters();
    counters.branch_misses as f64 / counters.branches_retired as f64
}

/// Installs `mitigation`'s hardware policy on `sys`, if it has one: the
/// randomized PHT keys `keyed` in order, and no-prediction protects the
/// `(context, branch)` pair `protected`. Measurement fuzz and the
/// if-converted victim are not BPU policies, so this leaves them to the
/// caller.
fn install_policy(
    sys: &mut System,
    mitigation: &Mitigation,
    seed: u64,
    keyed: &[ContextId],
    protected: (ContextId, VirtAddr),
) {
    match mitigation {
        Mitigation::None | Mitigation::IfConversion | Mitigation::NoisyMeasurements => {}
        Mitigation::RandomizedPht { rekey_interval } => {
            let mut policy = RandomizedPhtPolicy::new(seed ^ 0xDEFE_17CE);
            for &ctx in keyed {
                let _ = policy.key_of(ctx);
            }
            if let Some(n) = rekey_interval {
                policy = policy.with_rekey_interval(*n);
            }
            sys.set_policy(Box::new(policy));
        }
        Mitigation::PartitionedBpu { partitions } => {
            let pht_size = sys.core().profile().pht_size as u64;
            sys.set_policy(Box::new(PartitionedBpuPolicy::new(pht_size, *partitions)));
        }
        Mitigation::NoPredictSensitive => {
            let (ctx, addr) = protected;
            sys.set_policy(Box::new(NoPredictPolicy::new().with_protected(ctx, addr)));
        }
        Mitigation::StochasticFsm => {
            sys.set_policy(Box::new(StochasticFsmPolicy::new(SKIP_PROBABILITY, seed ^ 0x570C)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::BackendKind;
    use bscope_uarch::TraceEvent;

    const BITS: usize = 400;
    const SEED: u64 = 0xE7A1;

    fn run(mitigation: Mitigation) -> EvalReport {
        evaluate(&mitigation, &MicroarchProfile::skylake(), BITS, SEED, &mut Tracer::disabled())
    }

    /// [`run`] on the `backend` substrate.
    fn run_on(backend: BackendKind, mitigation: Mitigation) -> EvalReport {
        let sys = System::with_backend(MicroarchProfile::skylake(), backend, SEED);
        evaluate_on(sys, &mitigation, BITS, SEED, &mut Tracer::disabled())
    }

    /// Asserts that the spy's reads under `mitigation` carry no detectable
    /// information about the secret.
    fn assert_blocks(report: &EvalReport) {
        let c = &report.confusion;
        assert!(!c.leaks(), "{report} (G {:.1}, {:?})", c.g_statistic(), c.counts);
    }

    #[test]
    fn baseline_attack_succeeds() {
        let r = run(Mitigation::None);
        assert!(r.confusion.error_rate() < 0.02, "{r}");
        assert!(r.confusion.leaks());
        assert_eq!(r.confusion.total(), BITS as u64);
    }

    #[test]
    fn randomized_pht_defeats_the_attack() {
        assert_blocks(&run(Mitigation::RandomizedPht { rekey_interval: None }));
    }

    #[test]
    fn periodic_rekey_also_defeats() {
        assert_blocks(&run(Mitigation::RandomizedPht { rekey_interval: Some(1_000) }));
    }

    /// Four partitions of Skylake's 16K-entry PHT make each slice 4K
    /// entries, the size of its BTB. The prime's BTB-eviction alias
    /// (`target + btb_size`) then routes onto the spy's own target and
    /// installs the target's BTB entry instead of evicting it; the victim's
    /// routed branch shares that BTB set under another tag and replaces
    /// the entry when taken. So the spy's first probe misses the BTB
    /// exactly when the victim's branch was taken, and the predictor mode
    /// that a BTB hit or miss selects leaks into the decoded bits. Two
    /// partitions (8K slices) give the alias a slice of its own.
    #[test]
    fn four_partitions_leak_the_secret_through_the_btb() {
        let profile = MicroarchProfile::skylake();
        assert_eq!(profile.pht_size / 4, profile.btb_size);
        let partitioned = Mitigation::PartitionedBpu { partitions: 4 };
        let mut tracer = Tracer::ring(1 << 18);
        let r = evaluate(&partitioned, &profile, BITS, SEED, &mut tracer);
        assert!(r.confusion.leaks(), "{r} (G {:.1})", r.confusion.g_statistic());

        // The contexts and target `evaluate` builds: victim first, then spy.
        let mut sys = System::new(profile.clone(), SEED);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
        let (victim_ctx, spy_ctx) = (sys.process(victim).ctx(), sys.process(spy).ctx());
        let capture = tracer.drain();
        assert_eq!(capture.dropped, 0, "the ring holds the whole read");
        // Each victim branch at the target, paired with whether the spy's
        // next branch there (its first probe) hit the BTB.
        let mut victim_taken = None;
        let mut rounds = Vec::new();
        for traced in &capture.events {
            if let TraceEvent::Branch { ctx, addr, taken, btb_hit, .. } = traced.event {
                if addr == target && ctx == victim_ctx {
                    victim_taken = Some(taken);
                } else if addr == target && ctx == spy_ctx {
                    if let Some(taken) = victim_taken.take() {
                        rounds.push((taken, btb_hit));
                    }
                }
            }
        }
        assert_eq!(rounds.len(), BITS);
        assert!(rounds.iter().any(|&(taken, _)| taken) && rounds.iter().any(|&(taken, _)| !taken));
        for (bit, &(taken, btb_hit)) in rounds.iter().enumerate() {
            assert_eq!(taken, !btb_hit, "bit {bit}: taken iff the first probe misses the BTB");
        }

        assert_blocks(&run(Mitigation::PartitionedBpu { partitions: 2 }));
    }

    #[test]
    fn no_predict_defeats_the_attack() {
        assert_blocks(&run(Mitigation::NoPredictSensitive));
    }

    #[test]
    fn stochastic_fsm_degrades_the_attack() {
        let r = run(Mitigation::StochasticFsm);
        assert!(r.confusion.error_rate() > 0.1, "{r}");
    }

    #[test]
    fn noisy_measurements_degrade_the_attack() {
        let r = run(Mitigation::NoisyMeasurements);
        assert!(r.confusion.error_rate() > 0.15, "{r}");
    }

    #[test]
    fn if_conversion_defeats_the_attack() {
        assert_blocks(&run(Mitigation::IfConversion));
    }

    #[test]
    fn benign_overhead_ordering_is_sane() {
        let profile = MicroarchProfile::skylake();
        let overhead = |m: Mitigation| benign_overhead(&m, &profile, 1, &mut Tracer::disabled());
        let base = overhead(Mitigation::None);
        assert!(base < 0.16, "unmitigated loop mispredicts ~1/8 worst case: {base}");
        // Randomized indexing costs nothing on a single workload…
        let rand_pht = overhead(Mitigation::RandomizedPht { rekey_interval: None });
        assert!(rand_pht <= base + 0.02, "{rand_pht} vs {base}");
        // …while no-predict on a hot branch and a stochastic FSM clearly cost.
        let nopredict = overhead(Mitigation::NoPredictSensitive);
        assert!(nopredict > base + 0.5, "static not-taken on a 7/8-taken loop: {nopredict}");
        let stochastic = overhead(Mitigation::StochasticFsm);
        assert!(stochastic >= base, "{stochastic} vs {base}");
    }

    #[test]
    fn baseline_attack_succeeds_on_tage_backend() {
        // The base-table fallback keeps the channel alive on TAGE, and the
        // evaluation harness must drive it through the generic surface.
        let r = run_on(BackendKind::Tage, Mitigation::None);
        assert!(r.confusion.leaks(), "TAGE base table still leaks: {r}");
    }

    #[test]
    fn randomized_pht_defeats_the_attack_on_tage_backend() {
        // Defenses are policy wrappers: they must compose with any backend.
        let randomized = Mitigation::RandomizedPht { rekey_interval: None };
        assert_blocks(&run_on(BackendKind::Tage, randomized));
    }

    #[test]
    fn perceptron_backend_resists_even_the_unmitigated_attack() {
        // The structural headline: with no saturating counter to prime, the
        // spy reads close to coin flips without any defense installed.
        let r = run_on(BackendKind::Perceptron, Mitigation::None);
        assert!(
            r.confusion.error_rate() > 0.25,
            "perceptron should degrade the attack toward chance: {r}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one secret bit")]
    fn evaluating_zero_bits_panics() {
        let profile = MicroarchProfile::skylake();
        let _ = evaluate(&Mitigation::None, &profile, 0, SEED, &mut Tracer::disabled());
    }

    #[test]
    fn reports_render() {
        let text = run(Mitigation::None).to_string();
        assert!(text.contains("baseline") && text.contains("leaks 1.000 bits per read"), "{text}");
        let blocked = run(Mitigation::RandomizedPht { rekey_interval: None }).to_string();
        assert!(blocked.contains("no detectable leak"), "{blocked}");
        assert!(Mitigation::PartitionedBpu { partitions: 2 }.to_string().contains("2"));
    }
}
