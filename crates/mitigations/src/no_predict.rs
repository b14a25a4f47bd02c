//! No-prediction for flagged sensitive branches (§10.2).

use bscope_bpu::VirtAddr;
use bscope_uarch::{BpuPolicy, ContextId, Route};
use std::collections::HashSet;

/// The developer-assisted defense: "a software developer can indicate the
/// branches capable of leaking secret information and request them to be
/// protected. Then the CPU must avoid predicting these branches, rely
/// always on static prediction and avoid updating any BPU structures"
/// (§10.2).
///
/// Flagged branches are identified by `(context, virtual address)`. The
/// core statically predicts them not-taken and leaves all predictor state
/// untouched, so no information about their direction ever reaches the
/// shared BPU. The paper notes the cost (every taken execution pays a
/// misprediction-sized stall) and that — like all software-visible
/// schemes — this protects the victim but not against covert channels.
#[derive(Debug, Clone, Default)]
pub struct NoPredictPolicy {
    protected: HashSet<(ContextId, VirtAddr)>,
}

impl NoPredictPolicy {
    /// A policy protecting no branches yet.
    #[must_use]
    pub fn new() -> Self {
        NoPredictPolicy::default()
    }

    /// Flags the branch at `addr` in context `ctx` as sensitive.
    #[must_use]
    pub fn with_protected(mut self, ctx: ContextId, addr: VirtAddr) -> Self {
        self.protected.insert((ctx, addr));
        self
    }
}

impl BpuPolicy for NoPredictPolicy {
    fn route(&mut self, ctx: ContextId, addr: VirtAddr, _tsc: u64) -> Route {
        if self.protected.contains(&(ctx, addr)) {
            Route::Bypass
        } else {
            Route::Predict(addr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{MicroarchProfile, Outcome, PhtState};
    use bscope_uarch::SimCore;

    #[test]
    fn protected_branch_leaves_no_bpu_trace() {
        let mut core = SimCore::new(MicroarchProfile::skylake(), 1);
        let addr = 0x40_006d;
        core.set_policy(Box::new(NoPredictPolicy::new().with_protected(0, addr)));
        for _ in 0..5 {
            let ev = core.execute_branch(addr, Outcome::Taken);
            assert!(ev.mispredicted, "static not-taken always misses a taken branch");
        }
        assert_eq!(core.bpu().pht_state(addr), PhtState::WeaklyNotTaken, "PHT untouched");
        assert!(!core.bpu().btb().contains(addr), "BTB untouched");
        assert_eq!(core.bpu().ghr().value(), 0, "GHR untouched");
    }

    #[test]
    fn unprotected_branches_predict_normally() {
        let mut core = SimCore::new(MicroarchProfile::skylake(), 2);
        core.set_policy(Box::new(NoPredictPolicy::new().with_protected(0, 0x999)));
        for _ in 0..3 {
            core.execute_branch(0x40_006d, Outcome::Taken);
        }
        let ev = core.execute_branch(0x40_006d, Outcome::Taken);
        assert!(!ev.mispredicted, "trained unprotected branch predicts fine");
    }

    #[test]
    fn protection_is_per_context() {
        let mut policy = NoPredictPolicy::new().with_protected(1, 0x6d);
        assert_eq!(policy.route(1, 0x6d, 0), Route::Bypass);
        assert_eq!(policy.route(0, 0x6d, 0), Route::Predict(0x6d));
    }
}
