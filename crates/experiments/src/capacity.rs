//! Extension (beyond the paper): covert-channel capacity — error rate and
//! throughput as functions of background noise and repetition coding.

use crate::common::Scale;
use crate::covert_cell::{covert_cells, CovertCell, Payload, RunSummary};
use bscope_bpu::MicroarchProfile;
use bscope_core::BscopeError;
use bscope_harness::splitmix64;
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

/// Error rate and throughput of each grid cell, one transmission per
/// cell, in noise-major order.
pub fn compute(scale: &Scale, bits: usize) -> Result<Vec<RunSummary>, BscopeError> {
    let profile = MicroarchProfile::skylake();
    let noises = NOISE_LEVELS.map(|(_, rate)| {
        (rate > 0.0)
            .then(|| NoiseConfig { branches_per_kcycle: rate, ..NoiseConfig::system_activity() })
    });
    // One shared message for the whole grid (derived from the scale seed,
    // not the per-trial seed) so cells differ only in noise and coding.
    let mut rng = StdRng::seed_from_u64(splitmix64(scale.seed ^ 0xCAB));
    let message: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
    let shared = Payload::Given(&message);
    let cells: Vec<CovertCell> = noises
        .iter()
        .flat_map(|noise| {
            REDUNDANCIES.map(|redundancy| CovertCell {
                redundancy,
                ..CovertCell::new(&profile, scale.backend, noise.as_ref(), shared, bits)
            })
        })
        .collect();
    Ok(covert_cells(scale, 0xCA9, &cells, 1)?.into_iter().map(|runs| runs[0]).collect())
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
                let cell = grid[row * REDUNDANCIES.len() + col];
                let error = 100.0 * cell.confusion.error_rate();
                format!("{error:>7.3}% @ {:>6.1} b/Mc", cell.bits_per_mcycle)
            })
            .collect();
        println!("{label:<24} {:>22} {:>22} {:>22}", cells[0], cells[1], cells[2]);
    }
    let heavy = &grid[3 * REDUNDANCIES.len()..];
    scale.metric("capacity/heavy_raw_error", heavy[0].confusion.error_rate());
    scale.metric("capacity/heavy_5x_error", heavy[2].confusion.error_rate());
    println!("\nextension beyond the paper: repetition coding buys orders of magnitude in");
    println!("reliability at a proportional throughput cost, so even an extremely noisy");
    println!("core sustains a usable covert channel.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_thread_count_invariant;

    #[test]
    fn grid_is_thread_count_invariant() {
        assert_thread_count_invariant(|scale| compute(scale, 100).expect("valid preset configs"));
    }
}
