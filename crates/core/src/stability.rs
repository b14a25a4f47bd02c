//! Randomization-block stability analysis (paper §6.2, Fig. 4).
//!
//! The attacker needs a randomization block that leaves the target PHT
//! entry in a *reliable* state. This module reproduces the paper's
//! characterization: for many freshly generated blocks, repeatedly execute
//! the block and probe a fixed address with both probing variants; a block
//! is *stable* when the dominant prediction pattern of each variant occurs
//! in at least 85 % of repetitions, and the stable pattern pair decodes to
//! a PHT state (or to the "dirty" 2-level-predictor signature).

use crate::decode::{decode_state, DecodedState};
use crate::probe::{probe_with_counters, ProbeKind, ProbePattern};
use crate::randomize::RandomizationBlock;
use bscope_bpu::VirtAddr;
use bscope_os::{Pid, System};

/// Dominance threshold for stability (the paper's 85 %).
pub const STABILITY_THRESHOLD: f64 = 0.85;

/// Base seed for block generation: block *i* of an experiment uses
/// `BLOCK_SEED_BASE + i`.
pub const BLOCK_SEED_BASE: u64 = 0xB10C;

/// Parameters of the stability experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityConfig {
    /// Number of randomization blocks to generate and characterise
    /// (the paper uses 10 000; scale to budget).
    pub blocks: usize,
    /// Executions per block and per probing variant (the paper uses 1 000).
    pub reps: usize,
    /// Fixed address whose PHT entry is probed.
    pub probe_addr: VirtAddr,
    /// Average block updates per PHT entry (block length = PHT size × this).
    /// The paper's 100 000 branches on a 2^14-entry PHT correspond to ~6.
    pub updates_per_entry: usize,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        StabilityConfig {
            blocks: 200,
            reps: 50,
            probe_addr: 0x30_0000,
            updates_per_entry: 6,
        }
    }
}

/// Characterisation of one randomization block (one point of Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStability {
    /// Seed the block was generated from.
    pub block_seed: u64,
    /// Dominant pattern of the TT probing variant.
    pub tt_dominant: ProbePattern,
    /// Frequency of the TT dominant pattern in `[0, 1]` (x-axis of Fig. 4a).
    pub tt_frequency: f64,
    /// Dominant pattern of the NN probing variant.
    pub nn_dominant: ProbePattern,
    /// Frequency of the NN dominant pattern in `[0, 1]` (y-axis of Fig. 4a).
    pub nn_frequency: f64,
    /// Decoded state; `Unknown` when either variant is below threshold
    /// (the paper's "too noisy, dropped from statistics" case).
    pub state: DecodedState,
}

/// Distribution of decoded states across blocks (Fig. 4b's pie chart).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateDistribution {
    /// Blocks decoding to strongly taken.
    pub st: usize,
    /// Blocks decoding to weakly taken.
    pub wt: usize,
    /// Blocks decoding to weakly not-taken.
    pub wn: usize,
    /// Blocks decoding to strongly not-taken.
    pub sn: usize,
    /// Blocks with the dirty (2-level) signature.
    pub dirty: usize,
    /// Unstable or undecodable blocks.
    pub unknown: usize,
}

impl StateDistribution {
    /// Tallies a set of block characterisations.
    #[must_use]
    pub fn from_blocks(blocks: &[BlockStability]) -> Self {
        use bscope_bpu::PhtState as S;
        let mut d = StateDistribution::default();
        for b in blocks {
            match b.state {
                DecodedState::Known(S::StronglyTaken) => d.st += 1,
                DecodedState::Known(S::WeaklyTaken) => d.wt += 1,
                DecodedState::Known(S::WeaklyNotTaken) => d.wn += 1,
                DecodedState::Known(S::StronglyNotTaken) => d.sn += 1,
                DecodedState::Dirty => d.dirty += 1,
                DecodedState::Unknown => d.unknown += 1,
            }
        }
        d
    }

    /// Total number of blocks tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.st + self.wt + self.wn + self.sn + self.dirty + self.unknown
    }

    /// Fraction of blocks that decoded to a usable state (not unknown).
    #[must_use]
    pub fn stable_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (total - self.unknown) as f64 / total as f64
        }
    }
}

/// Characterises a single randomization block (one point of Fig. 4a): the
/// block generated from `block_seed`, executed and probed `config.reps`
/// times per probing variant on the given system.
///
/// This is the per-trial unit the parallel experiment harness fans out
/// over.
pub fn characterize_block(
    sys: &mut System,
    spy: Pid,
    config: &StabilityConfig,
    block_seed: u64,
) -> BlockStability {
    let (pht_size, counter_kind) = {
        let profile = sys.core().profile();
        (profile.pht_size, profile.counter_kind)
    };
    let block_len = pht_size * config.updates_per_entry.max(1);
    let block =
        RandomizationBlock::generate(block_seed, block_len, crate::randomize::DEFAULT_BLOCK_REGION);
    let mut dominants = [(ProbePattern::HH, 0.0f64); 2];
    for (slot, kind) in
        [ProbeKind::TakenTaken, ProbeKind::NotTakenNotTaken].into_iter().enumerate()
    {
        let mut counts = [0usize; 4];
        for _ in 0..config.reps {
            block.execute(&mut sys.cpu(spy));
            let pattern = probe_with_counters(&mut sys.cpu(spy), config.probe_addr, kind);
            let idx = ProbePattern::ALL.iter().position(|&p| p == pattern).expect("in ALL");
            counts[idx] += 1;
        }
        let (best, &n) = counts.iter().enumerate().max_by_key(|&(_, &n)| n).expect("four counts");
        dominants[slot] = (ProbePattern::ALL[best], n as f64 / config.reps as f64);
    }
    let (tt_dominant, tt_frequency) = dominants[0];
    let (nn_dominant, nn_frequency) = dominants[1];
    let state = if tt_frequency >= STABILITY_THRESHOLD && nn_frequency >= STABILITY_THRESHOLD {
        decode_state(counter_kind, tt_dominant, nn_dominant)
    } else {
        DecodedState::Unknown
    };
    BlockStability { block_seed, tt_dominant, tt_frequency, nn_dominant, nn_frequency, state }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{CounterKind, Microarch, MicroarchProfile, PhtState};
    use bscope_os::AslrPolicy;
    use bscope_uarch::NoiseConfig;

    fn small_profile() -> MicroarchProfile {
        MicroarchProfile {
            arch: Microarch::Custom,
            pht_size: 1_024,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 10,
            selector_size: 256,
            btb_size: 256,
        }
    }

    /// Characterises `config.blocks` blocks in turn on one system.
    fn analyze_stability(
        sys: &mut System,
        spy: Pid,
        config: &StabilityConfig,
    ) -> Vec<BlockStability> {
        (0..config.blocks)
            .map(|i| characterize_block(sys, spy, config, BLOCK_SEED_BASE + i as u64))
            .collect()
    }

    fn config(blocks: usize, reps: usize) -> StabilityConfig {
        StabilityConfig { blocks, reps, ..StabilityConfig::default() }
    }

    #[test]
    fn noiseless_blocks_are_overwhelmingly_stable() {
        let mut sys = System::new(small_profile(), 91);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let points = analyze_stability(&mut sys, spy, &config(20, 8));
        let dist = StateDistribution::from_blocks(&points);
        assert_eq!(dist.total(), 20);
        assert!(
            dist.stable_fraction() > 0.8,
            "noiseless stability {:.2}, dist {dist:?}",
            dist.stable_fraction()
        );
    }

    #[test]
    fn noise_reduces_stability_but_most_blocks_survive() {
        // A mid-size 2-bit machine keeps the runtime reasonable; the noise
        // exposure per entry scales inversely with PHT size, so the small
        // test profiles would show nothing stable. Denser blocks (10
        // updates/entry) give the entry-convergence the paper's stable
        // blocks exhibit; see EXPERIMENTS.md for the full-size calibration.
        let profile = MicroarchProfile {
            arch: Microarch::Custom,
            pht_size: 4_096,
            counter_kind: CounterKind::TwoBit,
            ghr_bits: 12,
            selector_size: 1_024,
            btb_size: 1_024,
        };
        let mut sys = System::new(profile, 92).with_noise(NoiseConfig::isolated_core()).unwrap();
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let cfg = StabilityConfig { updates_per_entry: 10, ..config(8, 40) };
        let points = analyze_stability(&mut sys, spy, &cfg);
        let dist = StateDistribution::from_blocks(&points);
        // Fig. 4: 83 % of blocks stable under system noise. The exact value
        // is configuration-dependent; assert the qualitative claim on this
        // reduced sample.
        assert!(
            dist.stable_fraction() >= 0.5,
            "noisy stability {:.2}",
            dist.stable_fraction()
        );
    }

    #[test]
    fn stable_blocks_cover_multiple_states() {
        let mut sys = System::new(small_profile(), 93);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let points = analyze_stability(&mut sys, spy, &config(30, 6));
        let dist = StateDistribution::from_blocks(&points);
        let populated = [dist.st, dist.wt, dist.wn, dist.sn].iter().filter(|&&n| n > 0).count();
        assert!(populated >= 2, "expected several states populated: {dist:?}");
    }

    #[test]
    fn distribution_tally_is_exhaustive() {
        let blocks = [
            BlockStability {
                block_seed: 0,
                tt_dominant: ProbePattern::HH,
                tt_frequency: 1.0,
                nn_dominant: ProbePattern::MM,
                nn_frequency: 1.0,
                state: DecodedState::Known(PhtState::StronglyTaken),
            },
            BlockStability {
                block_seed: 1,
                tt_dominant: ProbePattern::HH,
                tt_frequency: 0.5,
                nn_dominant: ProbePattern::MM,
                nn_frequency: 0.5,
                state: DecodedState::Unknown,
            },
        ];
        let dist = StateDistribution::from_blocks(&blocks);
        assert_eq!(dist.st, 1);
        assert_eq!(dist.unknown, 1);
        assert_eq!(dist.total(), 2);
        assert!((dist.stable_fraction() - 0.5).abs() < 1e-12);
    }
}
