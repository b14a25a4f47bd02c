//! libjpeg IDCT zero-skip victim (§9.2).

use bscope_bpu::Outcome;
use bscope_os::{CpuView, Workload};

/// DCT blocks are 8×8 coefficients.
pub const BLOCK_DIM: usize = 8;

/// Code offset of the per-column zero-test branch inside the simulated
/// IDCT routine. Distinct from the secret-array victim's offset purely for
/// clarity; the attacker learns either from the disassembly.
pub const IDCT_BRANCH_OFFSET: u64 = 0x1_20;

/// One 8×8 block of DCT coefficients, as produced by JPEG entropy decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoefficientBlock {
    coeffs: [[i16; BLOCK_DIM]; BLOCK_DIM],
}

impl CoefficientBlock {
    /// Block from raw coefficients (row-major).
    #[must_use]
    pub fn new(coeffs: [[i16; BLOCK_DIM]; BLOCK_DIM]) -> Self {
        CoefficientBlock { coeffs }
    }

    /// A block with only the DC coefficient set — a flat image region, the
    /// best case for the zero-skip optimisation.
    #[must_use]
    pub fn flat(dc: i16) -> Self {
        let mut coeffs = [[0; BLOCK_DIM]; BLOCK_DIM];
        coeffs[0][0] = dc;
        CoefficientBlock { coeffs }
    }

    /// Whether column `c` is all-zero apart from the first row — the exact
    /// condition libjpeg's `jpeg_idct_islow` tests to take its AC-free
    /// shortcut for that column.
    ///
    /// # Panics
    ///
    /// Panics if `c >= 8`.
    #[must_use]
    fn column_ac_free(&self, c: usize) -> bool {
        (1..BLOCK_DIM).all(|r| self.coeffs[r][c] == 0)
    }
}

/// The decompression victim: for every block it decodes, the column pass of
/// the inverse DCT executes one zero-test branch per column ("each such
/// comparison is realized as an individual branch instruction", §9.2).
/// The branch is taken when the column is AC-free (the shortcut is taken).
///
/// Spying on these eight branches per block leaks the per-column sparsity
/// pattern — "not only … when all row/column elements are zero, but also …
/// which element is not equal to zero" — from which an attacker
/// reconstructs the relative complexity of the image.
///
/// ```
/// use bscope_bpu::MicroarchProfile;
/// use bscope_os::{AslrPolicy, System, Workload};
/// use bscope_victims::{CoefficientBlock, IdctVictim};
///
/// let mut sys = System::new(MicroarchProfile::skylake(), 11);
/// let pid = sys.spawn("victim", AslrPolicy::Disabled);
/// let mut victim = IdctVictim::new(vec![CoefficientBlock::flat(100)]);
/// let mut cpu = sys.cpu(pid);
/// victim.run(&mut cpu, 64);
/// assert_eq!(cpu.counters().branches_retired, 8); // one zero test per column
/// ```
#[derive(Debug, Clone)]
pub struct IdctVictim {
    blocks: Vec<CoefficientBlock>,
    block_idx: usize,
    column: usize,
}

impl IdctVictim {
    /// Victim decoding the given blocks in order.
    #[must_use]
    pub fn new(blocks: Vec<CoefficientBlock>) -> Self {
        IdctVictim { blocks, block_idx: 0, column: 0 }
    }

    /// Ground-truth per-column shortcut pattern for block `b`, in execution
    /// order (what a perfect attacker would recover).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn ground_truth(&self, b: usize) -> [bool; BLOCK_DIM] {
        let mut out = [false; BLOCK_DIM];
        for (c, slot) in out.iter_mut().enumerate() {
            *slot = self.blocks[b].column_ac_free(c);
        }
        out
    }
}

impl Workload for IdctVictim {
    fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
        if self.block_idx >= self.blocks.len() {
            return false;
        }
        let shortcut = self.blocks[self.block_idx].column_ac_free(self.column);
        cpu.branch_at(IDCT_BRANCH_OFFSET, Outcome::from_bool(shortcut));
        // The shortcut scales one DC value; the full path does the 8-point
        // inverse transform — visibly different amounts of work (the page-
        // fault channel the prior attacks used), but BranchScope reads the
        // branch itself.
        cpu.work(if shortcut { 8 } else { 60 });
        self.column += 1;
        if self.column == BLOCK_DIM {
            self.column = 0;
            self.block_idx += 1;
        }
        self.block_idx < self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::MicroarchProfile;
    use bscope_os::{AslrPolicy, System};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn flat_block_is_fully_ac_free() {
        let b = CoefficientBlock::flat(42);
        assert!((0..8).all(|c| b.column_ac_free(c)));
    }

    #[test]
    fn ac_coefficients_break_the_shortcut() {
        let mut coeffs = [[0i16; 8]; 8];
        coeffs[0][0] = 5;
        coeffs[3][2] = -1; // AC energy in column 2
        let b = CoefficientBlock::new(coeffs);
        assert!(!b.column_ac_free(2));
        assert!(b.column_ac_free(1));
    }

    #[test]
    fn victim_executes_one_branch_per_column() {
        let mut sys = System::new(MicroarchProfile::haswell(), 12);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        let mut v = IdctVictim::new(vec![CoefficientBlock::flat(1), CoefficientBlock::flat(2)]);
        let mut cpu = sys.cpu(pid);
        v.run(&mut cpu, 1_000);
        assert_eq!(cpu.counters().branches_retired, 16);
    }

    #[test]
    fn ground_truth_matches_block_structure() {
        let mut coeffs = [[0i16; 8]; 8];
        coeffs[5][7] = 3;
        let v = IdctVictim::new(vec![CoefficientBlock::new(coeffs)]);
        let truth = v.ground_truth(0);
        assert!(!truth[7]);
        assert!(truth[..7].iter().all(|&t| t));
    }

    /// The per-step branch directions replay exactly the ground truth.
    #[test]
    fn branch_stream_matches_ground_truth() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut coeffs = [[0i16; 8]; 8];
            for v in coeffs.iter_mut().flatten() {
                *v = rng.gen_range(-4..=4);
            }
            let block = CoefficientBlock::new(coeffs);
            let mut sys = System::new(MicroarchProfile::haswell(), 13);
            let pid = sys.spawn("victim", AslrPolicy::Disabled);
            let mut victim = IdctVictim::new(vec![block.clone()]);
            let truth = victim.ground_truth(0);
            // Execute and verify the PHT observed the same directions by
            // replaying per-column expectations.
            let mut cpu = sys.cpu(pid);
            for (c, &expect) in truth.iter().enumerate() {
                assert_eq!(
                    block.column_ac_free(c),
                    expect,
                    "case {case} (seed {case}): column {c}"
                );
                victim.step(&mut cpu);
            }
            assert_eq!(cpu.counters().branches_retired, 8, "case {case} (seed {case})");
        }
    }
}
