//! Records produced by simulated branch execution.

use bscope_bpu::{Outcome, Prediction, VirtAddr};

/// Everything observable about one dynamically executed branch.
///
/// `mispredicted` is what the `BR_MISP_RETIRED` performance counter
/// records (paper §7). There is no latency here: a latency exists only
/// where the caller brackets the branch with `rdtscp` (paper §8), which
/// [`SimCore::execute_timed_branch_in`](crate::SimCore::execute_timed_branch_in)
/// models and returns alongside the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// Virtual address of the branch instruction.
    pub addr: VirtAddr,
    /// Resolved direction.
    pub outcome: Outcome,
    /// Full front-end prediction that was made for this branch.
    pub prediction: Prediction,
    /// Whether the predicted direction was wrong.
    pub mispredicted: bool,
    /// Whether this execution missed the instruction cache (first touch).
    pub cold: bool,
}
