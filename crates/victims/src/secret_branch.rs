//! The paper's Listing 2 victim: a branch conditioned on secret bits.

use crate::VICTIM_BRANCH_OFFSET;
use bscope_bpu::Outcome;
use bscope_os::{CpuView, Workload};

/// The victim of the paper's Listing 2: `if (sec_data[i]) { nop; nop; }`
/// executed once per step, advancing through a secret bit array.
///
/// Following the disassembly in the paper (a `je` that jumps when the
/// tested value is zero), the branch is **taken when the secret bit is 0**
/// and falls through (not taken) when it is 1.
///
/// ```
/// use bscope_bpu::{MicroarchProfile, Outcome};
/// use bscope_os::{AslrPolicy, System, Workload};
/// use bscope_victims::SecretBranchVictim;
///
/// let mut sys = System::new(MicroarchProfile::skylake(), 3);
/// let pid = sys.spawn("victim", AslrPolicy::Disabled);
/// let mut victim = SecretBranchVictim::new(vec![true, false]);
/// assert_eq!(victim.branch_outcome(0), Outcome::NotTaken); // bit 1 → je falls through
/// assert_eq!(victim.run(&mut sys.cpu(pid), 10), 2); // one step per bit
/// ```
#[derive(Debug, Clone)]
pub struct SecretBranchVictim {
    secret: Vec<bool>,
    index: usize,
}

impl SecretBranchVictim {
    /// Victim holding the given secret bits.
    #[must_use]
    pub fn new(secret: Vec<bool>) -> Self {
        SecretBranchVictim { secret, index: 0 }
    }

    /// Branch direction the victim executes for bit `i`:
    /// `je` is taken when the tested value is zero (paper Listing 2 B).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn branch_outcome(&self, i: usize) -> Outcome {
        Outcome::from_bool(!self.secret[i])
    }

    /// Decodes an observed branch direction back into a secret bit.
    #[must_use]
    pub fn bit_from_outcome(outcome: Outcome) -> bool {
        !outcome.is_taken()
    }
}

impl Workload for SecretBranchVictim {
    fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
        if self.index >= self.secret.len() {
            return false;
        }
        let outcome = self.branch_outcome(self.index);
        cpu.branch_at(VICTIM_BRANCH_OFFSET, outcome);
        // The `i++` and array load around the branch (Listing 2) cost a few
        // non-branch cycles.
        cpu.work(6);
        self.index += 1;
        self.index < self.secret.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{MicroarchProfile, PhtState};
    use bscope_os::{AslrPolicy, System};

    #[test]
    fn je_semantics_bit_zero_is_taken() {
        let v = SecretBranchVictim::new(vec![false, true]);
        assert_eq!(v.branch_outcome(0), Outcome::Taken);
        assert_eq!(v.branch_outcome(1), Outcome::NotTaken);
        assert!(!SecretBranchVictim::bit_from_outcome(Outcome::Taken));
        assert!(SecretBranchVictim::bit_from_outcome(Outcome::NotTaken));
    }

    #[test]
    fn steps_through_all_bits_then_stops() {
        let mut sys = System::new(MicroarchProfile::haswell(), 1);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        let mut v = SecretBranchVictim::new(vec![true, false, true]);
        let mut cpu = sys.cpu(pid);
        assert!(v.step(&mut cpu));
        assert!(v.step(&mut cpu));
        assert!(!v.step(&mut cpu), "last bit reports completion");
        assert!(!v.step(&mut cpu), "no further work");
        assert_eq!(cpu.counters().branches_retired, 3, "one branch per bit");
    }

    #[test]
    fn branches_land_in_the_shared_pht() {
        let mut sys = System::new(MicroarchProfile::haswell(), 2);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        // All-zero secret → je always taken → entry saturates taken.
        let mut v = SecretBranchVictim::new(vec![false; 4]);
        let mut cpu = sys.cpu(pid);
        v.run(&mut cpu, 4);
        let addr = sys.process(pid).vaddr_of(VICTIM_BRANCH_OFFSET);
        assert_eq!(sys.core().bpu().pht_state(addr), PhtState::StronglyTaken);
    }
}
