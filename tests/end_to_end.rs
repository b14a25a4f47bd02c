//! Cross-crate integration tests: the full attack against single-stepped
//! victims on every paper machine, plus the threat model's negative
//! controls (no collision, ASLR, no co-residency).

use branchscope::attack::{AttackConfig, BranchScope};
use branchscope::bpu::{MicroarchProfile, Outcome};
use branchscope::os::{AslrPolicy, System, Workload};
use branchscope::uarch::NoiseConfig;
use branchscope::victims::{SecretBranchVictim, VICTIM_BRANCH_OFFSET};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_secret(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Reads a victim's whole secret through the threat model's slowed-down
/// victim (one workload step per attack round) and returns the bit error
/// count.
fn attack_single_stepped(profile: &MicroarchProfile, bits: usize, seed: u64) -> usize {
    let mut sys = System::new(profile.clone(), seed);
    let victim = sys.spawn("victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);

    let secret = random_secret(bits, seed ^ 0xE2E);
    let mut workload = SecretBranchVictim::new(secret.clone());
    let mut attack = BranchScope::new(AttackConfig::for_profile(profile)).unwrap();

    let mut errors = 0;
    for &bit in &secret {
        let outcome = attack.read_bit(&mut sys, spy, target, |sys| {
            // Stage 2: the slowed-down victim runs exactly one step.
            workload.step(&mut sys.cpu(victim));
        });
        if SecretBranchVictim::bit_from_outcome(outcome) != bit {
            errors += 1;
        }
    }
    errors
}

#[test]
fn attack_recovers_secrets_on_all_three_machines() {
    for profile in MicroarchProfile::paper_machines() {
        let errors = attack_single_stepped(&profile, 400, 0xA11);
        assert_eq!(errors, 0, "{}: {errors} errors on a quiet machine", profile.arch);
    }
}

#[test]
fn attack_stays_below_paper_error_rates_under_noise() {
    // Table 2 shape: SL/Haswell < 1%, Sandy Bridge a few percent.
    for (profile, budget) in [
        (MicroarchProfile::skylake(), 0.02),
        (MicroarchProfile::haswell(), 0.02),
        (MicroarchProfile::sandy_bridge(), 0.08),
    ] {
        let mut sys =
            System::new(profile.clone(), 0xB0B).with_noise(NoiseConfig::system_activity()).unwrap();
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
        let secret = random_secret(2_000, 0x5EED);
        let mut workload = SecretBranchVictim::new(secret.clone());
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
        let mut errors = 0usize;
        for &bit in &secret {
            let outcome = attack.read_bit(&mut sys, spy, target, |sys| {
                let mut cpu = sys.cpu(victim);
                workload.step(&mut cpu);
            });
            if SecretBranchVictim::bit_from_outcome(outcome) != bit {
                errors += 1;
            }
        }
        let rate = errors as f64 / secret.len() as f64;
        assert!(rate < budget, "{}: error rate {rate:.4} over budget {budget}", profile.arch);
    }
}

#[test]
fn sandy_bridge_is_noisier_than_skylake() {
    let run = |profile: MicroarchProfile| {
        let mut sys = System::new(profile.clone(), 0xCAFE)
            .with_noise(NoiseConfig::system_activity()).unwrap();
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
        let secret = random_secret(4_000, 0xDF);
        let mut workload = SecretBranchVictim::new(secret.clone());
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
        secret
            .iter()
            .filter(|&&bit| {
                let outcome = attack.read_bit(&mut sys, spy, target, |sys| {
                    let mut cpu = sys.cpu(victim);
                    workload.step(&mut cpu);
                });
                SecretBranchVictim::bit_from_outcome(outcome) != bit
            })
            .count()
    };
    let skylake = run(MicroarchProfile::skylake());
    let sandy_bridge = run(MicroarchProfile::sandy_bridge());
    assert!(
        sandy_bridge > skylake,
        "paper: smaller Sandy Bridge tables => more aliasing errors (SB {sandy_bridge} vs SL {skylake})"
    );
}

#[test]
fn attacker_without_collisions_reads_nothing() {
    // Control experiment: if the spy targets a *non-colliding* address, it
    // learns nothing — confirming the signal really flows through the
    // shared PHT entry.
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), 0x777);
    let victim = sys.spawn("victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    // One byte off: different PHT entry.
    let wrong_target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET + 1);
    let secret = random_secret(200, 0x3C);
    let mut workload = SecretBranchVictim::new(secret.clone());
    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
    let reads: Vec<Outcome> = secret
        .iter()
        .map(|_| {
            attack.read_bit(&mut sys, spy, wrong_target, |sys| {
                let mut cpu = sys.cpu(victim);
                workload.step(&mut cpu);
            })
        })
        .collect();
    assert!(
        reads.iter().all(|&o| o == Outcome::NotTaken),
        "a non-colliding probe must only ever see its own primed SN state"
    );
}

#[test]
fn aslr_breaks_naive_targeting() {
    // With ASLR on, the spy's guess at the conventional base misses the
    // victim's real entry, and the read carries no information.
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), 0x888);
    let victim = sys.spawn("victim", AslrPolicy::Randomized);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let naive_target = 0x40_0000 + VICTIM_BRANCH_OFFSET;
    let real_target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);
    assert_ne!(
        naive_target & (profile.pht_size as u64 - 1),
        real_target & (profile.pht_size as u64 - 1),
        "seed chosen so the bases do not alias"
    );
    let secret = random_secret(100, 0x11);
    let mut workload = SecretBranchVictim::new(secret.clone());
    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
    let reads: Vec<Outcome> = secret
        .iter()
        .map(|_| {
            attack.read_bit(&mut sys, spy, naive_target, |sys| {
                let mut cpu = sys.cpu(victim);
                workload.step(&mut cpu);
            })
        })
        .collect();
    assert!(reads.iter().all(|&o| o == Outcome::NotTaken));
}

#[test]
fn co_residency_is_required() {
    // Threat-model negative control (§3): with the victim on another
    // physical core (its own `System`, so its own BPU), the spy shares no
    // predictor state with it and the attack reads nothing — only
    // co-resident victims leak.
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), 0xC02E);
    let mut remote = System::new(profile.clone(), 0xC02E + 0x9E37);
    let victim_remote = remote.spawn("victim-remote", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = remote.process(victim_remote).vaddr_of(VICTIM_BRANCH_OFFSET);

    let secret = random_secret(200, 0x99);
    let mut workload = SecretBranchVictim::new(secret.clone());
    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
    let reads: Vec<Outcome> = secret
        .iter()
        .map(|_| {
            attack.read_bit(&mut sys, spy, target, |_| {
                workload.step(&mut remote.cpu(victim_remote));
            })
        })
        .collect();
    assert!(
        reads.iter().all(|&o| o == Outcome::NotTaken),
        "a cross-core victim must leave the spy's primed entries untouched"
    );

    // …and the same victim moved onto the spy's core leaks immediately.
    let victim_local = sys.spawn("victim-local", AslrPolicy::Disabled);
    let target = sys.process(victim_local).vaddr_of(VICTIM_BRANCH_OFFSET);
    let read = attack.read_bit(&mut sys, spy, target, |sys| {
        sys.cpu(victim_local).branch_at(VICTIM_BRANCH_OFFSET, Outcome::Taken);
    });
    assert_eq!(read, Outcome::Taken);
}

#[test]
fn attack_degrades_gracefully_under_preemption() {
    // Failure injection: a third process preempts the spy *between its
    // prime and probe* every round, executing a burst of its own branches.
    // Rounds whose burst misses the target entry still read correctly, so
    // the attack degrades gracefully instead of collapsing.
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), 0x9E9);
    let victim = sys.spawn("victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let intruder = sys.spawn("intruder", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(VICTIM_BRANCH_OFFSET);

    let secret = random_secret(600, 0x17);
    let mut workload = SecretBranchVictim::new(secret.clone());
    let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();
    let mut errors = 0usize;
    for (i, &bit) in secret.iter().enumerate() {
        let outcome = attack.read_bit(&mut sys, spy, target, |sys| {
            {
                let mut cpu = sys.cpu(victim);
                workload.step(&mut cpu);
            }
            // Preemption: 32 intruder branches at pseudo-random addresses.
            let mut cpu = sys.cpu(intruder);
            for k in 0..32u64 {
                let addr = 0x9000 + ((i as u64 * 131 + k * 17) % 0x8000);
                cpu.branch_at_abs(addr, Outcome::from_bool((i as u64 + k).is_multiple_of(3)));
            }
        });
        if SecretBranchVictim::bit_from_outcome(outcome) != bit {
            errors += 1;
        }
    }
    let rate = errors as f64 / secret.len() as f64;
    assert!(rate < 0.15, "preempted error rate {rate:.3} should stay below 15%");
    assert!(rate < 0.5, "and far from coin flipping");
}
