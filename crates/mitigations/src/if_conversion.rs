//! If-conversion of the victim (§10.1).

use bscope_os::{CpuView, Workload};

/// A victim whose secret-dependent branch has been *if-converted*: the
/// compiler replaced the conditional branch with a conditional move
/// (`cmov`), "effectively turning control dependencies into data
/// dependencies" (§10.1). The secret still selects the computed value, but
/// **no conditional branch executes**, so the BPU never observes the
/// secret.
///
/// This is the software counterpart of
/// [`NoPredictPolicy`](crate::NoPredictPolicy): it requires recompiling the victim, works on
/// unmodified hardware, and — as the paper stresses — does nothing against
/// covert channels where both endpoints cooperate.
#[derive(Debug, Clone)]
pub struct IfConvertedVictim {
    secret: Vec<bool>,
    index: usize,
    /// The (dummy) data result of the computation — the secret still
    /// *influences dataflow*, just not control flow.
    accumulator: u64,
}

impl IfConvertedVictim {
    /// If-converted equivalent of
    /// [`SecretBranchVictim`](bscope_victims::SecretBranchVictim).
    #[must_use]
    pub fn new(secret: Vec<bool>) -> Self {
        IfConvertedVictim { secret, index: 0, accumulator: 0 }
    }
}

impl Workload for IfConvertedVictim {
    fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
        if self.index >= self.secret.len() {
            return false;
        }
        // cmov: a data-dependent select, no branch. Slightly slower than
        // the well-predicted branch it replaces (the paper notes highly
        // predictable branches typically perform worse when if-converted).
        let bit = u64::from(self.secret[self.index]);
        self.accumulator = self.accumulator.wrapping_mul(3).wrapping_add(bit);
        cpu.work(9);
        self.index += 1;
        self.index < self.secret.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::MicroarchProfile;
    use bscope_os::{AslrPolicy, System};

    #[test]
    fn executes_no_branches_at_all() {
        let mut sys = System::new(MicroarchProfile::skylake(), 3);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        let mut v = IfConvertedVictim::new(vec![true, false, true, true]);
        let mut cpu = sys.cpu(pid);
        assert_eq!(v.run(&mut cpu, 10), 4, "one step per bit");
        assert_eq!(sys.cpu(pid).counters().branches_retired, 0, "no branch retired");
        assert_eq!(sys.core().bpu().stats().branches, 0, "BPU never consulted");
    }

    #[test]
    fn computation_still_depends_on_secret() {
        let mut sys = System::new(MicroarchProfile::skylake(), 4);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        let run = |secret: Vec<bool>, sys: &mut System| {
            let mut v = IfConvertedVictim::new(secret);
            let mut cpu = sys.cpu(pid);
            v.run(&mut cpu, 10);
            v.accumulator
        };
        let a = run(vec![true, false], &mut sys);
        let b = run(vec![false, true], &mut sys);
        assert_ne!(a, b);
    }
}
