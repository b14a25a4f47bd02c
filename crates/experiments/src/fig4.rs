//! Figure 4: stability of randomization blocks (scatter of dominant-pattern
//! frequencies) and the distribution of decoded PHT states.

use crate::common::{trials, Scale};
use bscope_bpu::MicroarchProfile;
use bscope_core::stability::{
    characterize_block, BlockStability, StabilityConfig, StateDistribution, BLOCK_SEED_BASE,
    STABILITY_THRESHOLD,
};
use bscope_core::BscopeError;
use bscope_os::{AslrPolicy, System};
use bscope_uarch::NoiseConfig;

/// Characterises `config.blocks` randomization blocks, one trial per block.
///
/// Each trial builds its own simulated machine (the per-block statistics
/// are i.i.d. across machines) seeded from the runner's per-trial seed, so
/// the result is identical for every thread count.
fn analyze_parallel(config: &StabilityConfig, scale: &Scale) -> Vec<BlockStability> {
    trials(scale, config.blocks, 0xF164, |idx, trial_seed, tracer| {
        let mut sys = System::new(MicroarchProfile::haswell(), trial_seed)
            .with_noise(NoiseConfig::isolated_core())
            .expect("preset noise is valid");
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        sys.with_tracer(tracer, |sys| {
            characterize_block(sys, spy, config, BLOCK_SEED_BASE + idx as u64)
        })
    })
}

pub fn run(scale: &Scale) -> Result<(), BscopeError> {
    // Fig. 4 characterises block behaviour in the presence of "various
    // system effects"; we run on the 2-bit 16K-entry machine (Haswell
    // profile) with background system activity. The block density is the
    // calibrated 10 updates/entry (see EXPERIMENTS.md on why the uniform-
    // stride model needs a denser block than the paper's 100 000 branches
    // to reach the same per-entry convergence).
    let config = StabilityConfig {
        blocks: scale.n(200, 30),
        reps: scale.n(40, 12),
        updates_per_entry: 10,
        ..StabilityConfig::default()
    };
    NoiseConfig::isolated_core().validate()?;
    let points = analyze_parallel(&config, scale);

    println!(
        "(a) dominant-pattern frequency per block ({} blocks x {} reps/variant, threshold {:.0}%)\n",
        config.blocks,
        config.reps,
        100.0 * STABILITY_THRESHOLD
    );
    println!("  sample of characterised blocks (TT% , NN%) -> state:");
    for p in points.iter().take(16) {
        println!(
            "    block seed {:>6}: TT {:>3.0}% ({}), NN {:>3.0}% ({}) -> {}",
            p.block_seed,
            100.0 * p.tt_frequency,
            p.tt_dominant,
            100.0 * p.nn_frequency,
            p.nn_dominant,
            p.state,
        );
    }

    let dist = StateDistribution::from_blocks(&points);
    let total = dist.total() as f64;
    println!("\n(b) decoded-state distribution across blocks:");
    for (name, n) in [
        ("ST", dist.st),
        ("WT", dist.wt),
        ("WN", dist.wn),
        ("SN", dist.sn),
        ("dirty", dist.dirty),
        ("unknown", dist.unknown),
    ] {
        println!("    {name:<8} {:>5.1}%  ({n} blocks)", 100.0 * n as f64 / total);
    }
    println!(
        "\npaper: 83% of blocks give stable dominant patterns; the rest are unknown/dirty."
    );
    println!("ours : {:.1}% stable.", 100.0 * dist.stable_fraction());
    scale.metric("fig4/stable_fraction", dist.stable_fraction());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> StabilityConfig {
        StabilityConfig { blocks: 30, reps: 12, updates_per_entry: 10, ..StabilityConfig::default() }
    }

    fn scale_with_threads(threads: usize) -> Scale {
        Scale { threads, ..Scale::quick() }
    }

    #[test]
    fn analysis_is_thread_count_invariant() {
        let config = quick_config();
        let sequential = analyze_parallel(&config, &scale_with_threads(1));
        for threads in [2, 8] {
            assert_eq!(analyze_parallel(&config, &scale_with_threads(threads)), sequential);
        }
    }

    /// Regression pin of the quick-scale stable fraction; fails if the
    /// seed schedule, RNG, or simulator behaviour drifts. Update
    /// deliberately when any of those changes.
    #[test]
    fn quick_scale_stable_fraction_is_pinned() {
        let points = analyze_parallel(&quick_config(), &scale_with_threads(0));
        let fraction = StateDistribution::from_blocks(&points).stable_fraction();
        // Pinned value; update deliberately when the seed schedule, the
        // simulator, or the PRNG stream changes.
        let expected = 0.666_666_666_666_666_6;
        assert_eq!(fraction, expected, "quick-scale fig4 stable fraction drifted");
    }
}
