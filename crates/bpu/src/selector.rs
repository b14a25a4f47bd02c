//! The selector (chooser) table arbitrating between component predictors.

use crate::VirtAddr;

/// Selector table: one 3-bit confidence counter per entry, indexed by the
/// branch address, identifying "which predictor is likely to perform better
/// for a particular branch based on the previous behavior of the predictors"
/// (paper §2).
///
/// Levels 0–3 choose the bimodal predictor, levels 4–7 choose gshare. New
/// entries start at 0 (strongly bimodal), which models the paper's §5.1
/// observation that branches without accumulated history are predicted by
/// the 1-level predictor; the paper's Fig. 2 shows the hand-over to the
/// 2-level predictor takes several pattern repetitions, i.e. the selection
/// hysteresis is deeper than a 2-bit chooser.
#[derive(Debug, Clone)]
pub(crate) struct SelectorTable {
    levels: Vec<u8>,
    mask: u64,
}

impl SelectorTable {
    /// Maximum confidence level.
    const MAX_LEVEL: u8 = 7;
    /// Levels at or above this choose the 2-level (gshare) predictor.
    const GSHARE_THRESHOLD: u8 = 4;

    /// Creates a selector table of `size` entries, all strongly bimodal.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    #[must_use]
    pub(crate) fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "selector size must be a power of two, got {size}");
        SelectorTable { levels: vec![0; size], mask: (size - 1) as u64 }
    }

    /// Entry index for a branch address.
    #[must_use]
    fn index_of(&self, addr: VirtAddr) -> usize {
        (addr & self.mask) as usize
    }

    /// Whether the selector currently routes `addr` to the gshare predictor.
    #[must_use]
    pub(crate) fn prefers_gshare(&self, addr: VirtAddr) -> bool {
        self.levels[self.index_of(addr)] >= Self::GSHARE_THRESHOLD
    }

    /// Trains the selector with the per-component correctness of a resolved
    /// branch. Hardware chooser tables move only when the components
    /// disagree — when both are right or both wrong there is no signal.
    pub(crate) fn train(&mut self, addr: VirtAddr, bimodal_correct: bool, gshare_correct: bool) {
        let idx = self.index_of(addr);
        let level = &mut self.levels[idx];
        match (bimodal_correct, gshare_correct) {
            (false, true) => *level = (*level + 1).min(Self::MAX_LEVEL),
            (true, false) => *level = level.saturating_sub(1),
            _ => {}
        }
    }

    /// Restarts the entry for `addr` strongly bimodal.
    pub(crate) fn restart(&mut self, addr: VirtAddr) {
        let idx = self.index_of(addr);
        self.levels[idx] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_entries_choose_bimodal() {
        let sel = SelectorTable::new(64);
        assert!((0..64u64).all(|addr| !sel.prefers_gshare(addr)));
    }

    #[test]
    fn migration_requires_four_net_wins() {
        let mut sel = SelectorTable::new(64);
        for i in 0..3 {
            sel.train(0, false, true);
            assert!(!sel.prefers_gshare(0), "{} wins are not enough", i + 1);
        }
        sel.train(0, false, true);
        assert!(sel.prefers_gshare(0), "four wins migrate to gshare");
        for _ in 0..4 {
            sel.train(0, true, false);
        }
        assert!(!sel.prefers_gshare(0), "four losses migrate back");
    }

    #[test]
    fn agreement_gives_no_signal() {
        let mut sel = SelectorTable::new(64);
        for _ in 0..SelectorTable::GSHARE_THRESHOLD {
            sel.train(0, false, true);
        }
        sel.train(0, true, true);
        sel.train(0, false, false);
        assert!(sel.prefers_gshare(0), "no move on agreement");
        sel.train(0, true, false);
        assert!(!sel.prefers_gshare(0), "still at the threshold, one loss drops below");
    }

    proptest! {
        /// Levels stay saturated in 0..=7 under arbitrary training: four
        /// losses always hand the branch back to bimodal, and four wins
        /// always migrate it to gshare.
        #[test]
        fn levels_stay_in_range(train in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
            let mut sel = SelectorTable::new(8);
            for (b, g) in train {
                sel.train(3, b, g);
            }
            let mut losing = sel.clone();
            for _ in 0..4 {
                losing.train(3, true, false);
                sel.train(3, false, true);
            }
            prop_assert!(!losing.prefers_gshare(3));
            prop_assert!(sel.prefers_gshare(3));
        }
    }
}
