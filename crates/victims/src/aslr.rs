//! ASLR derandomization victim (§9.2).

use crate::VICTIM_BRANCH_OFFSET;
use bscope_bpu::Outcome;
use bscope_os::{CpuView, Workload};

/// A victim whose code base is randomized: the attacker knows the *offset*
/// of a frequently-executed, heavily-biased branch inside the binary (from
/// the disassembly) but not the load address. By priming candidate PHT
/// entries and watching which one the victim's branch perturbs — "observing
/// branch collisions" — the attacker recovers the load address and defeats
/// ASLR (paper §9.2).
///
/// Each step executes the branch once with a fixed direction (an
/// always-taken loop back-edge is the classic candidate).
#[derive(Debug, Clone)]
pub struct AslrVictim {
    direction: Outcome,
}

impl AslrVictim {
    /// Victim whose located branch always resolves to `direction`.
    #[must_use]
    pub fn new(direction: Outcome) -> Self {
        AslrVictim { direction }
    }
}

impl Workload for AslrVictim {
    fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
        cpu.branch_at(VICTIM_BRANCH_OFFSET, self.direction);
        cpu.work(4);
        true // runs as long as it is scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{MicroarchProfile, PhtState};
    use bscope_os::{AslrPolicy, System};

    #[test]
    fn branch_executes_at_randomized_address() {
        let mut sys = System::new(MicroarchProfile::skylake(), 14);
        let pid = sys.spawn("victim", AslrPolicy::Randomized);
        let mut v = AslrVictim::new(Outcome::Taken);
        let mut cpu = sys.cpu(pid);
        assert_eq!(v.run(&mut cpu, 3), 3);
        let addr = sys.process(pid).vaddr_of(VICTIM_BRANCH_OFFSET);
        assert_ne!(addr, 0x40_0000 + VICTIM_BRANCH_OFFSET, "base must be randomized");
        assert_eq!(sys.core().bpu().pht_state(addr), PhtState::StronglyTaken);
    }

    #[test]
    fn runs_indefinitely() {
        let mut sys = System::new(MicroarchProfile::skylake(), 15);
        let pid = sys.spawn("victim", AslrPolicy::Randomized);
        let mut v = AslrVictim::new(Outcome::NotTaken);
        let mut cpu = sys.cpu(pid);
        assert_eq!(v.run(&mut cpu, 100), 100);
    }
}
