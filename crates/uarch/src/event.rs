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

impl BranchEvent {
    /// Whether the prediction was correct — a prediction *hit* in the
    /// paper's H/M notation.
    #[must_use]
    pub fn hit(&self) -> bool {
        !self.mispredicted
    }

    /// The paper's single-letter observation for this branch: `H` for a
    /// correct prediction, `M` for a misprediction.
    #[must_use]
    pub fn letter(&self) -> char {
        if self.mispredicted {
            'M'
        } else {
            'H'
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::PredictorKind;

    fn event(mispredicted: bool) -> BranchEvent {
        BranchEvent {
            addr: 0x1000,
            outcome: Outcome::Taken,
            prediction: Prediction {
                direction: if mispredicted { Outcome::NotTaken } else { Outcome::Taken },
                used: PredictorKind::Bimodal,
                bimodal: Outcome::Taken,
                gshare: Outcome::Taken,
                btb_hit: false,
                target: None,
            },
            mispredicted,
            cold: false,
        }
    }

    #[test]
    fn letters_match_paper_notation() {
        assert_eq!(event(false).letter(), 'H');
        assert_eq!(event(true).letter(), 'M');
        assert!(event(false).hit());
        assert!(!event(true).hit());
    }
}
