//! Extension (beyond the paper): covert-channel capacity — error rate and
//! throughput as functions of background noise and repetition coding.

use crate::common::{metric, trials, with_tracer, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::covert::CovertChannel;
use bscope_core::{AttackConfig, BscopeError};
use bscope_harness::splitmix64;
use bscope_os::{AslrPolicy, System};
use bscope_uarch::NoiseConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NOISE_LEVELS: [(&str, f64); 5] = [
    ("none", 0.0),
    ("isolated (3/kcycle)", 3.0),
    ("system (8/kcycle)", 8.0),
    ("heavy (40/kcycle)", 40.0),
    ("extreme (120/kcycle)", 120.0),
];

const REDUNDANCIES: [usize; 3] = [1, 3, 5];

/// Error rate and throughput (bits per Mcycle) of one grid cell. Channel
/// and noise configurations for every grid row are validated before the
/// fan-out.
pub fn compute(scale: &Scale, bits: usize) -> Result<Vec<(f64, f64)>, BscopeError> {
    let profile = MicroarchProfile::skylake();
    CovertChannel::new(AttackConfig::for_backend(&profile, scale.backend))?;
    for (_, rate) in NOISE_LEVELS {
        if rate > 0.0 {
            NoiseConfig { branches_per_kcycle: rate, ..NoiseConfig::system_activity() }
                .validate()?;
        }
    }
    // One shared message for the whole grid (derived from the scale seed,
    // not the per-trial seed) so cells differ only in noise and coding.
    let mut rng = StdRng::seed_from_u64(splitmix64(scale.seed ^ 0xCAB));
    let message: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
    let cells = NOISE_LEVELS.len() * REDUNDANCIES.len();

    Ok(trials(scale, cells, 0xCA9, |idx, seed, tracer| {
        let (_, rate) = NOISE_LEVELS[idx / REDUNDANCIES.len()];
        let redundancy = REDUNDANCIES[idx % REDUNDANCIES.len()];
        let mut sys = System::with_backend(profile.clone(), scale.backend, seed);
        if rate > 0.0 {
            sys.set_noise(Some(NoiseConfig {
                branches_per_kcycle: rate,
                ..NoiseConfig::system_activity()
            }))
            .expect("noise config validated before fan-out");
        }
        let sender = sys.spawn("trojan", AslrPolicy::Disabled);
        let receiver = sys.spawn("spy", AslrPolicy::Disabled);
        let mut channel =
            CovertChannel::new(AttackConfig::for_backend(&profile, scale.backend)).expect("valid");
        let result = with_tracer(&mut sys, tracer, |sys| {
            channel.transmit_with_redundancy(sys, sender, receiver, &message, redundancy)
        });
        (result.error_rate, message.len() as f64 * 1e6 / result.cycles as f64)
    }))
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    let bits = scale.n(4_000, 500);
    let grid = compute(scale, bits)?;

    println!(
        "Skylake / {} backend, {bits} payload bits per cell; error / throughput (bits per Mcycle)\n",
        scale.backend
    );
    println!(
        "{:<24} {:>22} {:>22} {:>22}",
        "background noise", "raw", "3x repetition", "5x repetition"
    );
    for (row, (label, _)) in NOISE_LEVELS.iter().enumerate() {
        let cells: Vec<String> = (0..REDUNDANCIES.len())
            .map(|col| {
                let (error_rate, throughput) = grid[row * REDUNDANCIES.len() + col];
                format!("{:>7.3}% @ {:>6.1} b/Mc", 100.0 * error_rate, throughput)
            })
            .collect();
        println!("{label:<24} {:>22} {:>22} {:>22}", cells[0], cells[1], cells[2]);
    }
    let (heavy_raw, _) = grid[3 * REDUNDANCIES.len()];
    let (heavy_5x, _) = grid[3 * REDUNDANCIES.len() + 2];
    metric("capacity/heavy_raw_error", heavy_raw);
    metric("capacity/heavy_5x_error", heavy_5x);
    println!("\nextension beyond the paper: repetition coding buys orders of magnitude in");
    println!("reliability at a proportional throughput cost, so even an extremely noisy");
    println!("core sustains a usable covert channel.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_thread_count_invariant() {
        let mut scale = Scale::quick();
        scale.threads = 1;
        let sequential = compute(&scale, 100).expect("valid preset configs");
        for threads in [2, 8] {
            scale.threads = threads;
            assert_eq!(compute(&scale, 100).expect("valid preset configs"), sequential, "threads={threads}");
        }
    }
}
