//! Integration tests for the SGX scenario (§9) and the counter-free timing
//! channel (§8).

use branchscope::attack::covert::{CovertChannel, EnclaveSender};
use branchscope::attack::timing_probe::TimingDetector;
use branchscope::attack::{AttackConfig, ProbeKind};
use branchscope::bpu::{MicroarchProfile, Outcome, PhtState};
use branchscope::os::{AslrPolicy, Enclave, System};
use branchscope::uarch::NoiseConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_bits(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

#[test]
fn sgx_isolated_is_at_least_as_good_as_noisy() {
    // Table 3 shape: the attacker-controlled OS can suppress noise, which
    // can only help.
    let profile = MicroarchProfile::skylake();
    let mut rates = Vec::new();
    for noise in [Some(NoiseConfig::system_activity()), None] {
        let mut sys = System::new(profile.clone(), 0x536);
        sys.set_noise(noise).unwrap();
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let secret = random_bits(3_000, 0x51);
        let mut enclave =
            Enclave::launch(&mut sys, "enclave", EnclaveSender::new(secret.clone()));
        let mut channel = CovertChannel::new(AttackConfig::for_profile(&profile)).unwrap();
        let received = channel.receive_from_enclave(&mut sys, &mut enclave, receiver, secret.len());
        rates.push(received.score(&secret).error_rate);
    }
    let (noisy, isolated) = (rates[0], rates[1]);
    assert!(isolated <= noisy, "isolated {isolated:.4} must not exceed noisy {noisy:.4}");
    assert_eq!(isolated, 0.0, "with all noise suppressed the channel is exact");
    assert!(noisy < 0.05, "noisy SGX channel still low-error ({noisy:.4})");
}

#[test]
fn enclave_memory_is_unreadable_but_branches_leak() {
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), 0x222);
    let receiver = sys.spawn("spy", AslrPolicy::Disabled);
    let secret = random_bits(64, 0xBEEF);
    let mut enclave = Enclave::launch(&mut sys, "enclave", EnclaveSender::new(secret.clone()));
    assert!(enclave.read_memory(0).is_err());
    let mut channel = CovertChannel::new(AttackConfig::for_profile(&profile)).unwrap();
    let received = channel.receive_from_enclave(&mut sys, &mut enclave, receiver, secret.len());
    assert_eq!(received.bits, secret, "the BPU leaks what SGX memory protection hides");
}

/// §8: the whole attack also works without performance counters, timing
/// the probe branches with rdtscp and classifying per-branch latencies.
#[test]
fn timing_only_attack_recovers_bits() {
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), 0x833);
    let victim = sys.spawn("victim", AslrPolicy::Disabled);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let target = sys.process(victim).vaddr_of(0x6d);

    let detector = TimingDetector::calibrate(&mut sys, spy, 600).unwrap();
    let secret = random_bits(400, 0x40);
    let mut attack = branchscope::attack::BranchScope::new(AttackConfig::for_profile(&profile))
        .unwrap();
    let dict = *attack.dict();

    // Per §8, with SN priming and TT probing only the *second* probe
    // measurement matters, and the timing channel classifies it with ~10%
    // single-shot error; majority voting over repeated rounds (the victim
    // can be re-triggered) drives the bit error down.
    let mut errors = 0usize;
    for &bit in &secret {
        let outcome = Outcome::from_bool(bit);
        let mut votes = 0usize;
        let rounds = 7;
        for _ in 0..rounds {
            attack.prime(&mut sys, spy, target); // stage 1
            sys.cpu(victim).branch_at(0x6d, outcome); // stage 2
            let pattern = // stage 3 via rdtscp instead of counters
                detector.probe_with_timing(&mut sys.cpu(spy), target, ProbeKind::TakenTaken);
            if dict.decode(pattern) == Outcome::Taken {
                votes += 1;
            }
        }
        let read = Outcome::from_bool(2 * votes >= rounds);
        if read != outcome {
            errors += 1;
        }
    }
    let rate = errors as f64 / secret.len() as f64;
    assert!(rate < 0.05, "timing-only error rate {rate:.4}");
}

#[test]
fn timing_probe_separates_strong_states() {
    // Fig. 9 consequence: the timing probe distinguishes SN from WN, the
    // two states the canonical attack must tell apart.
    let profile = MicroarchProfile::haswell();
    let mut sys = System::new(profile.clone(), 0x999);
    let spy = sys.spawn("spy", AslrPolicy::Disabled);
    let detector = TimingDetector::calibrate(&mut sys, spy, 600).unwrap();
    let addr = 0x7e_4000u64;
    let mut correct = 0usize;
    let trials = 400;
    for i in 0..trials {
        let state =
            if i % 2 == 0 { PhtState::StronglyNotTaken } else { PhtState::WeaklyNotTaken };
        sys.core_mut().bpu_mut().forget_branch(addr);
        sys.core_mut().bpu_mut().set_pht_state(addr, state);
        let pattern = detector.probe_with_timing(&mut sys.cpu(spy), addr, ProbeKind::TakenTaken);
        let want_second_hit = state == PhtState::WeaklyNotTaken;
        if pattern.second_hit() == want_second_hit {
            correct += 1;
        }
    }
    let accuracy = correct as f64 / trials as f64;
    assert!(accuracy > 0.8, "second-measurement state separation accuracy {accuracy:.3}");
}
