//! Table 3: covert channel with the trojan (sender) inside an SGX enclave.

use crate::common::{metric, trials, with_tracer, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::covert::{CovertChannel, EnclaveSender};
use bscope_core::{AttackConfig, BscopeError};
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, Enclave, System};
use bscope_uarch::NoiseConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type PayloadFn = fn(usize, &mut StdRng) -> Vec<bool>;

fn all0(n: usize, _: &mut StdRng) -> Vec<bool> {
    vec![false; n]
}

fn all1(n: usize, _: &mut StdRng) -> Vec<bool> {
    vec![true; n]
}

fn random(n: usize, rng: &mut StdRng) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

/// One enclave transmission run; machine and secret derive from `seed`.
fn one_run(
    noise: Option<&NoiseConfig>,
    payload: PayloadFn,
    bits: usize,
    seed: u64,
    tracer: &mut bscope_uarch::Tracer,
) -> f64 {
    let profile = MicroarchProfile::skylake();
    let mut sys = System::new(profile.clone(), seed);
    sys.set_noise(noise.cloned()).expect("noise config validated before fan-out");
    let receiver = sys.spawn("spy", AslrPolicy::Disabled);
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x561));
    let secret = payload(bits, &mut rng);
    let mut enclave = Enclave::launch(&mut sys, "trojan-enclave", EnclaveSender::new(secret.clone()));
    // The attacker-controlled OS single-steps the enclave; in the
    // isolated setting it also prevents any other activity.
    let mut channel = CovertChannel::new(AttackConfig::for_profile(&profile)).expect("valid config");
    let received = with_tracer(&mut sys, tracer, |sys| {
        channel.receive_from_enclave(sys, &mut enclave, receiver, secret.len())
    });
    received.score(&secret).error_rate
}

/// Computes both table rows (error rates in percent): all
/// `2 settings x 3 payloads x runs` transmissions run as independent
/// trials on the deterministic parallel runner. Channel and noise
/// configurations are validated before the fan-out, so a bad config is a
/// typed error instead of a worker-thread panic.
pub fn compute(scale: &Scale, bits: usize, runs: usize) -> Result<Vec<[f64; 3]>, BscopeError> {
    let settings: [Option<NoiseConfig>; 2] = [Some(NoiseConfig::system_activity()), None];
    let payloads: [PayloadFn; 3] = [all0, all1, random];
    let cells = settings.len() * payloads.len();
    CovertChannel::new(AttackConfig::for_profile(&MicroarchProfile::skylake()))?;
    for noise in settings.iter().flatten() {
        noise.validate()?;
    }

    let per_trial = trials(scale, cells * runs, 0x560, |idx, seed, tracer| {
        let cell = idx / runs;
        let noise = settings[cell / payloads.len()].as_ref();
        one_run(noise, payloads[cell % payloads.len()], bits, seed, tracer)
    });

    Ok((0..settings.len())
        .map(|s| {
            let mut row = [0.0f64; 3];
            for (p, err) in row.iter_mut().enumerate() {
                let cell = s * 3 + p;
                *err = 100.0 * per_trial[cell * runs..(cell + 1) * runs].iter().sum::<f64>()
                    / runs as f64;
            }
            row
        })
        .collect())
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(20_000, 1_000);
    let runs = scale.n(10, 2);
    println!("Skylake, sender inside an SGX enclave single-stepped by a malicious OS;");
    println!("{bits} bits per run, {runs} runs per cell\n");

    println!("{:<26} {:>8} {:>8} {:>8}", "", "All 0", "All 1", "Random");
    let rows = compute(scale, bits, runs)?;
    for (label, row) in ["SGX with noise", "SGX isolated"].iter().zip(&rows) {
        println!("{label:<26} {:>7.3}% {:>7.3}% {:>7.3}%", row[0], row[1], row[2]);
        for (payload, err) in ["all0", "all1", "random"].iter().zip(row) {
            metric(format!("table3/{label}/{payload}_error_pct"), *err);
        }
    }
    println!("\n{:<26} {:>8} {:>8} {:>8}", "paper:", "All 0", "All 1", "Random");
    println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", "SGX with noise (paper)", 0.008, 0.53, 0.73);
    println!("{:<26} {:>7.3}% {:>7.3}% {:>7.3}%", "SGX isolated (paper)", 0.003, 0.153, 0.51);

    let avg = |r: &[f64; 3]| (r[0] + r[1] + r[2]) / 3.0;
    println!("\nshape checks:");
    println!(
        "  OS-controlled noise suppression improves the channel: {}",
        avg(&rows[1]) <= avg(&rows[0])
    );
    println!("  isolated SGX error near zero: {}", avg(&rows[1]) < 0.1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_thread_count_invariant() {
        let mut scale = Scale::quick();
        scale.threads = 1;
        let sequential = compute(&scale, 200, 2).expect("valid preset configs");
        for threads in [2, 8] {
            scale.threads = threads;
            assert_eq!(compute(&scale, 200, 2).expect("valid preset configs"), sequential, "threads={threads}");
        }
    }
}
