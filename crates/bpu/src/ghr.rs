//! The global history register feeding the 2-level predictor.

use crate::counter::Outcome;

/// Global history register (GHR): a shift register of the outcomes of the
/// last `len` branches executed on the core (paper §2).
///
/// The most recent outcome occupies bit 0; a taken branch shifts in a `1`.
///
/// ```
/// use bscope_bpu::{GlobalHistoryRegister, Outcome};
///
/// let mut ghr = GlobalHistoryRegister::new(8);
/// ghr.push(Outcome::Taken);
/// ghr.push(Outcome::NotTaken);
/// ghr.push(Outcome::Taken);
/// assert_eq!(ghr.value(), 0b101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalHistoryRegister {
    bits: u64,
    len: u32,
}

impl GlobalHistoryRegister {
    /// Creates an all-zero (all not-taken) history of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or greater than 64.
    #[must_use]
    pub fn new(len: u32) -> Self {
        assert!((1..=64).contains(&len), "GHR length must be in 1..=64, got {len}");
        GlobalHistoryRegister { bits: 0, len }
    }

    /// Number of history bits tracked.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the register tracks zero bits (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current history value, masked to `len` bits.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.bits & self.mask()
    }

    /// Shifts in one resolved branch outcome.
    pub fn push(&mut self, outcome: Outcome) {
        self.bits = ((self.bits << 1) | u64::from(outcome.is_taken())) & self.mask();
    }

    fn mask(&self) -> u64 {
        if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_shifts_most_recent_into_bit_zero() {
        let mut ghr = GlobalHistoryRegister::new(4);
        ghr.push(Outcome::Taken);
        assert_eq!(ghr.value(), 0b1);
        ghr.push(Outcome::NotTaken);
        assert_eq!(ghr.value(), 0b10);
        ghr.push(Outcome::Taken);
        assert_eq!(ghr.value(), 0b101);
    }

    #[test]
    fn history_is_bounded_by_len() {
        let mut ghr = GlobalHistoryRegister::new(3);
        for _ in 0..10 {
            ghr.push(Outcome::Taken);
        }
        assert_eq!(ghr.value(), 0b111);
    }

    #[test]
    fn full_width_register_works() {
        let mut ghr = GlobalHistoryRegister::new(64);
        for _ in 0..64 {
            ghr.push(Outcome::Taken);
        }
        assert_eq!(ghr.value(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "GHR length")]
    fn rejects_zero_length() {
        let _ = GlobalHistoryRegister::new(0);
    }

    proptest! {
        /// value() always fits in len bits.
        #[test]
        fn value_fits_len(len in 1u32..=64, pushes in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut ghr = GlobalHistoryRegister::new(len);
            for p in pushes {
                ghr.push(Outcome::from_bool(p));
                if len < 64 {
                    prop_assert!(ghr.value() < (1u64 << len));
                }
            }
        }

        /// The register faithfully records the last `len` outcomes.
        #[test]
        fn records_last_len_outcomes(pushes in proptest::collection::vec(any::<bool>(), 8..64)) {
            let len = 8u32;
            let mut ghr = GlobalHistoryRegister::new(len);
            for &p in &pushes {
                ghr.push(Outcome::from_bool(p));
            }
            let mut want = 0u64;
            for &p in &pushes[pushes.len() - len as usize..] {
                want = (want << 1) | u64::from(p);
            }
            prop_assert_eq!(ghr.value(), want);
        }
    }
}
