//! The pattern history table: an array of saturating-counter FSMs.

use crate::counter::{Counter, CounterKind, Outcome, PhtState};

/// A pattern history table (PHT) — `size` saturating counters.
///
/// Both component predictors of the hybrid BPU store their direction history
/// in a PHT; they differ only in how the PHT is indexed (paper §2). The
/// table size must be a power of two (real PHTs are; the paper
/// reverse-engineers 2^14 entries on its experimental machine, Fig. 5b).
#[derive(Debug, Clone)]
pub(crate) struct PatternHistoryTable {
    entries: Vec<Counter>,
    mask: u64,
}

impl PatternHistoryTable {
    /// Creates a PHT of `size` counters of the given kind, all initialised
    /// weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    #[must_use]
    pub(crate) fn new(size: usize, kind: CounterKind) -> Self {
        assert!(size.is_power_of_two(), "PHT size must be a power of two, got {size}");
        PatternHistoryTable {
            entries: vec![Counter::new(kind); size],
            mask: (size - 1) as u64,
        }
    }

    /// Maps an arbitrary table-index key to an entry index.
    ///
    /// The PHT index is the key modulo the table size — the byte-granular
    /// modulo indexing the paper establishes in §6.3 / Fig. 5.
    #[must_use]
    pub(crate) fn index_of(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    /// Predicted direction of the entry at `index`.
    #[must_use]
    pub(crate) fn predict(&self, index: usize) -> Outcome {
        self.entries[index].predict()
    }

    /// Advances the FSM at `index` with a resolved outcome.
    pub(crate) fn update(&mut self, index: usize, outcome: Outcome) {
        self.entries[index].update(outcome);
    }

    /// Architectural state of the entry at `index`.
    #[must_use]
    pub(crate) fn state(&self, index: usize) -> PhtState {
        self.entries[index].state()
    }

    /// Forces the entry at `index` into an architectural state.
    pub(crate) fn set_state(&mut self, index: usize, state: PhtState) {
        self.entries[index].set_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_wraps_modulo_size() {
        let pht = PatternHistoryTable::new(1024, CounterKind::TwoBit);
        assert_eq!(pht.index_of(0), 0);
        assert_eq!(pht.index_of(1024), 0);
        assert_eq!(pht.index_of(1025), 1);
        assert_eq!(pht.index_of(0x30_0000 + 7), pht.index_of(7));
    }

    #[test]
    fn byte_granularity_adjacent_addresses_differ() {
        // Fig. 5a: adjacent virtual addresses map to different PHT entries.
        let pht = PatternHistoryTable::new(16_384, CounterKind::TwoBit);
        assert_ne!(pht.index_of(0x30_0000), pht.index_of(0x30_0001));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = PatternHistoryTable::new(1000, CounterKind::TwoBit);
    }

    #[test]
    fn update_and_state_roundtrip() {
        let mut pht = PatternHistoryTable::new(64, CounterKind::TwoBit);
        pht.set_state(3, PhtState::StronglyTaken);
        assert_eq!(pht.state(3), PhtState::StronglyTaken);
        assert_eq!(pht.predict(3), Outcome::Taken);
        pht.update(3, Outcome::NotTaken);
        assert_eq!(pht.state(3), PhtState::WeaklyTaken);
        // Unrelated entries untouched.
        assert_eq!(pht.state(4), PhtState::WeaklyNotTaken);
    }
}
