//! Stage-1 PHT randomization code (the paper's Listing 1).

use bscope_bpu::{Counter, CounterKind, MicroarchProfile, Outcome, PhtState, VirtAddr};
use bscope_os::CpuView;
use bscope_uarch::Span;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated block of branch instructions that randomizes the PHT and
/// disables 2-level prediction for the victim's next branch (paper §5.2).
///
/// The block mirrors Listing 1: a long run of conditional branches whose
/// directions are "randomly picked with no inter-branch dependencies"
/// (unlearnable by the 2-level predictor) and whose addresses are
/// randomized "by either placing or not placing a NOP instruction between
/// them" (each `je`/`jne` is two bytes, an optional `nop` adds one), so a
/// large number of PHT entries is touched. The outcome pattern "is
/// randomized only once (when the block is generated) and \[is\] not
/// re-randomized during execution": executing the same block twice replays
/// the identical branch sequence.
///
/// ```
/// use bscope_bpu::CounterKind;
/// use bscope_core::RandomizationBlock;
///
/// // The same seed regenerates the same block, so an offline analysis of
/// // one copy predicts what every execution of the other does.
/// let a = RandomizationBlock::generate(7, 1_000, 0x70_0000);
/// let b = RandomizationBlock::generate(7, 1_000, 0x70_0000);
/// assert_eq!(
///     a.converged_state(256, CounterKind::TwoBit, 0x70_0010),
///     b.converged_state(256, CounterKind::TwoBit, 0x70_0010),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct RandomizationBlock {
    region_base: VirtAddr,
    branches: Vec<(u32, Outcome)>,
}

/// Default code region the spy maps its randomization block at — far from
/// typical victim code so the *block body* addresses do not accidentally
/// share BTB tags with the victim (entry collisions via PHT folding are the
/// point, and happen regardless).
pub const DEFAULT_BLOCK_REGION: VirtAddr = 0x70_0000;

impl RandomizationBlock {
    /// Generates a block of `len` branches at `region_base`, deterministic
    /// in `seed`. Regenerating with the same seed yields the same block —
    /// the property the paper's pre-attack block search relies on.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn generate(seed: u64, len: usize, region_base: VirtAddr) -> Self {
        assert!(len > 0, "a randomization block needs at least one branch");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut branches = Vec::with_capacity(len);
        let mut offset: u32 = 0;
        for _ in 0..len {
            let outcome = Outcome::from_bool(rng.gen_bool(0.5));
            branches.push((offset, outcome));
            // je/jne is two bytes; with probability ½ a one-byte nop follows.
            offset += 2 + u32::from(rng.gen_bool(0.5));
        }
        RandomizationBlock { region_base, branches }
    }

    /// A block sized for a specific machine: six branches per PHT entry on
    /// average, matching the paper's empirically-sufficient 100 000
    /// branches for the 2^14-entry Skylake PHT. Fewer than ~3 updates per
    /// entry would leave entries whose final state still depends on their
    /// prior state, defeating the pre-attack block search.
    #[must_use]
    pub fn for_profile(profile: &MicroarchProfile, seed: u64) -> Self {
        RandomizationBlock::generate(seed, profile.pht_size * 6, DEFAULT_BLOCK_REGION)
    }

    /// Executes the whole block on the spy's CPU view (stage 1).
    pub fn execute(&self, cpu: &mut CpuView<'_>) {
        cpu.core_mut().trace_span_begin(Span::Randomize);
        cpu.block_at_abs(self.region_base, &self.branches);
        cpu.core_mut().trace_span_end(Span::Randomize);
    }

    /// Offline convergence analysis of one PHT entry under this block: the
    /// state the entry ends in after one block execution, *if* that state
    /// is independent of the entry's prior contents.
    ///
    /// Replays the entry's update subsequence from every possible counter
    /// level; returns the common final state when all trajectories
    /// coalesce, `None` otherwise. A `None` entry is useless for priming —
    /// its post-block state leaks its pre-block state — and corresponds to
    /// the unstable blocks the paper's Fig. 4 experiment filters out. The
    /// attacker can run this analysis entirely offline (it only needs the
    /// block and the FSM model), which is what makes the paper's one-time
    /// pre-attack block search cheap.
    #[must_use]
    pub fn converged_state(
        &self,
        pht_size: usize,
        kind: CounterKind,
        addr: VirtAddr,
    ) -> Option<PhtState> {
        let mask = (pht_size - 1) as u64;
        let want = addr & mask;
        let max = Counter::new(kind).max_level();
        let mut levels: Vec<Counter> = (0..=max)
            .map(|_| Counter::new(kind))
            .collect();
        for (i, c) in levels.iter_mut().enumerate() {
            // Set raw level i by stepping from the bottom.
            c.set_state(PhtState::StronglyNotTaken);
            for _ in 0..i {
                c.update(Outcome::Taken);
            }
        }
        for &(off, outcome) in &self.branches {
            if (self.region_base + u64::from(off)) & mask == want {
                for c in &mut levels {
                    c.update(outcome);
                }
            }
        }
        let first = levels[0].state();
        levels.iter().all(|c| c.state() == first).then_some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::PhtState;
    use bscope_os::{AslrPolicy, System};

    /// The PHT entries of a `pht_size`-entry table the block's branches
    /// index, one per branch.
    fn entries(block: &RandomizationBlock, pht_size: usize) -> impl Iterator<Item = usize> + '_ {
        let mask = (pht_size - 1) as u64;
        let base = block.region_base;
        block.branches.iter().map(move |&(off, _)| ((base + u64::from(off)) & mask) as usize)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = RandomizationBlock::generate(3, 500, 0x70_0000);
        let b = RandomizationBlock::generate(3, 500, 0x70_0000);
        assert_eq!(a.branches, b.branches);
        let c = RandomizationBlock::generate(4, 500, 0x70_0000);
        assert_ne!(a.branches, c.branches);
    }

    #[test]
    fn offsets_advance_by_two_or_three() {
        let block = RandomizationBlock::generate(9, 2_000, 0);
        for pair in block.branches.windows(2) {
            let step = pair[1].0 - pair[0].0;
            assert!(step == 2 || step == 3, "step {step}");
        }
    }

    #[test]
    fn outcomes_are_roughly_balanced() {
        let block = RandomizationBlock::generate(1, 10_000, 0);
        let taken = block.branches.iter().filter(|(_, o)| o.is_taken()).count();
        assert!((4_500..=5_500).contains(&taken), "taken {taken}");
    }

    #[test]
    fn profile_sized_block_covers_most_of_the_pht() {
        // §5.2: the block must "affect a large number of entries inside the
        // PHT".
        let profile = bscope_bpu::MicroarchProfile::skylake();
        let block = RandomizationBlock::for_profile(&profile, 11);
        let mut touched = vec![false; profile.pht_size];
        for entry in entries(&block, profile.pht_size) {
            touched[entry] = true;
        }
        let coverage = touched.iter().filter(|&&t| t).count() as f64 / profile.pht_size as f64;
        assert!(coverage > 0.85, "coverage {coverage:.3}");
    }

    #[test]
    fn execution_scrambles_pht_and_evicts_btb() {
        let mut sys = System::new(bscope_bpu::MicroarchProfile::skylake(), 5);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);

        // Victim trains its branch strongly taken; it lands in the BTB.
        let victim_addr = sys.process(victim).vaddr_of(0x6d);
        for _ in 0..3 {
            sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
        }
        assert!(sys.core().bpu().btb().contains(victim_addr));
        assert_eq!(sys.core().bpu().pht_state(victim_addr), PhtState::StronglyTaken);

        let block =
            RandomizationBlock::for_profile(&bscope_bpu::MicroarchProfile::skylake(), 17);
        block.execute(&mut sys.cpu(spy));

        // The victim's BTB entry must be gone (1-level fallback restored)…
        assert!(
            !sys.core().bpu().btb().contains(victim_addr),
            "randomization block must evict the victim's BTB entry"
        );
        // …and the block must have rewritten the victim's PHT entry
        // (it collides with several block branches).
        let pht = sys.core().profile().pht_size;
        let victim_entry = (victim_addr & (pht as u64 - 1)) as usize;
        assert!(entries(&block, pht).any(|entry| entry == victim_entry));
    }

    #[test]
    fn replaying_a_block_reconverges_the_target_entry() {
        // Because the block's outcomes are fixed at generation time, the
        // final state of any entry it touches ≥3 times is independent of
        // the entry's prior state — the property that makes the paper's
        // pre-attack block search meaningful.
        let profile = bscope_bpu::MicroarchProfile::skylake();
        let probe_addr = 0x30_0000u64;
        // Pick (offline, as the attacker would) a block whose update
        // sequence provably coalesces for this entry.
        let (block, expected) = (0u64..200)
            .find_map(|seed| {
                let b = RandomizationBlock::for_profile(&profile, 23 + seed);
                b.converged_state(profile.pht_size, profile.counter_kind, probe_addr)
                    .map(|s| (b, s))
            })
            .expect("a converging block exists among 200 seeds");
        let mut states = Vec::new();
        let mut sys = System::new(profile, 6);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        for round in 0..3u64 {
            // Perturb the entry differently each round…
            let st = if round % 2 == 0 { PhtState::StronglyTaken } else { PhtState::StronglyNotTaken };
            sys.core_mut().bpu_mut().set_pht_state(probe_addr, st);
            block.execute(&mut sys.cpu(spy));
            states.push(sys.core().bpu().pht_state(probe_addr));
        }
        assert!(states.iter().all(|&s| s == expected), "states {states:?} vs {expected}");
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_block_rejected() {
        let _ = RandomizationBlock::generate(0, 0, 0);
    }
}
