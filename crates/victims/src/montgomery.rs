//! Montgomery-ladder modular exponentiation victim (§9.2).

use crate::VICTIM_BRANCH_OFFSET;
use bscope_bpu::Outcome;
use bscope_os::{CpuView, Workload};

/// Plain square-and-multiply reference, used to validate the ladder.
///
/// ```
/// use bscope_victims::mod_exp;
/// assert_eq!(mod_exp(2, 10, 1_000), 24); // 1024 mod 1000
/// assert_eq!(mod_exp(5, 0, 97), 1);
/// ```
///
/// # Panics
///
/// Panics if `modulus <= 1`.
#[must_use]
pub fn mod_exp(base: u64, exponent: u64, modulus: u64) -> u64 {
    assert!(modulus > 1, "modulus must exceed 1");
    let (mut result, mut b, mut e) = (1u128, u128::from(base) % u128::from(modulus), exponent);
    let m = u128::from(modulus);
    while e > 0 {
        if e & 1 == 1 {
            result = result * b % m;
        }
        b = b * b % m;
        e >>= 1;
    }
    result as u64
}

/// The Montgomery powering ladder: computes `base^key mod modulus` one key
/// bit per step, most-significant bit first.
///
/// The ladder performs the same *operations* regardless of the key bit —
/// its classic timing/power-channel defence — "however it requires a branch
/// operating with direct dependency from the value of k_i" (paper §9.2):
/// the bit selects which register pair is multiplied into which. That
/// branch is exactly what BranchScope recovers. We model it as taken when
/// the key bit is 1.
///
/// ```
/// use bscope_bpu::MicroarchProfile;
/// use bscope_os::{AslrPolicy, System, Workload};
/// use bscope_victims::{mod_exp, MontgomeryLadder};
///
/// let mut sys = System::new(MicroarchProfile::skylake(), 5);
/// let pid = sys.spawn("victim", AslrPolicy::Disabled);
/// let mut ladder = MontgomeryLadder::new(3, 0b1011, 101);
/// let mut cpu = sys.cpu(pid);
/// ladder.run(&mut cpu, 64);
/// assert_eq!(ladder.result(), Some(mod_exp(3, 0b1011, 101)));
/// ```
#[derive(Debug, Clone)]
pub struct MontgomeryLadder {
    modulus: u64,
    /// Remaining bit positions, MSB first. Empty once finished.
    bits: Vec<bool>,
    next: usize,
    r0: u128,
    r1: u128,
}

impl MontgomeryLadder {
    /// Prepares `base^key mod modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus <= 1`.
    #[must_use]
    pub fn new(base: u64, key: u64, modulus: u64) -> Self {
        assert!(modulus > 1, "modulus must exceed 1");
        let nbits = if key == 0 { 1 } else { 64 - key.leading_zeros() as usize };
        let bits = (0..nbits).rev().map(|i| (key >> i) & 1 == 1).collect();
        MontgomeryLadder {
            modulus,
            bits,
            next: 0,
            r0: 1,
            r1: u128::from(base) % u128::from(modulus),
        }
    }

    /// Number of key bits the ladder processes.
    #[must_use]
    pub fn key_bits(&self) -> usize {
        self.bits.len()
    }

    /// The computed exponentiation result, once all bits are processed.
    #[must_use]
    pub fn result(&self) -> Option<u64> {
        (self.next == self.bits.len()).then_some(self.r0 as u64)
    }

    /// Branch direction for key bit `i` (MSB first): taken ⇔ bit is 1.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn branch_outcome(&self, i: usize) -> Outcome {
        Outcome::from_bool(self.bits[i])
    }

    /// Recovers a key from observed branch directions (MSB first) — what
    /// the attacker computes from its BranchScope reads.
    #[must_use]
    pub fn key_from_outcomes(outcomes: &[Outcome]) -> u64 {
        outcomes.iter().fold(0u64, |k, o| (k << 1) | u64::from(o.is_taken()))
    }
}

impl Workload for MontgomeryLadder {
    fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
        if self.next >= self.bits.len() {
            return false;
        }
        let bit = self.bits[self.next];
        let m = u128::from(self.modulus);
        // The secret-dependent branch: which register receives the product.
        cpu.branch_at(VICTIM_BRANCH_OFFSET, Outcome::from_bool(bit));
        if bit {
            self.r0 = self.r0 * self.r1 % m;
            self.r1 = self.r1 * self.r1 % m;
        } else {
            self.r1 = self.r0 * self.r1 % m;
            self.r0 = self.r0 * self.r0 % m;
        }
        // Two modular multiplications of real work either way — the
        // balanced-path property that defeats plain timing attacks.
        cpu.work(120);
        self.next += 1;
        self.next < self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::MicroarchProfile;
    use bscope_os::{AslrPolicy, System};
    use proptest::prelude::*;

    fn run_ladder(base: u64, key: u64, modulus: u64) -> u64 {
        let mut sys = System::new(MicroarchProfile::haswell(), 9);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        let mut ladder = MontgomeryLadder::new(base, key, modulus);
        let mut cpu = sys.cpu(pid);
        ladder.run(&mut cpu, 128);
        ladder.result().expect("ladder finished")
    }

    #[test]
    fn ladder_computes_mod_exp() {
        assert_eq!(run_ladder(2, 10, 1_000_003), 1024);
        assert_eq!(run_ladder(5, 0, 97), 1);
        assert_eq!(run_ladder(7, 13, 11), mod_exp(7, 13, 11));
    }

    #[test]
    fn key_round_trips_through_outcomes() {
        let ladder = MontgomeryLadder::new(2, 0b1001_0110, 101);
        let outcomes: Vec<Outcome> =
            (0..ladder.key_bits()).map(|i| ladder.branch_outcome(i)).collect();
        assert_eq!(MontgomeryLadder::key_from_outcomes(&outcomes), 0b1001_0110);
    }

    #[test]
    fn result_unavailable_until_finished() {
        let mut sys = System::new(MicroarchProfile::haswell(), 10);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        let mut ladder = MontgomeryLadder::new(3, 0b111, 101);
        assert_eq!(ladder.result(), None);
        let mut cpu = sys.cpu(pid);
        ladder.step(&mut cpu);
        assert_eq!(ladder.result(), None);
    }

    #[test]
    #[should_panic(expected = "modulus")]
    fn rejects_trivial_modulus() {
        let _ = MontgomeryLadder::new(2, 3, 1);
    }

    proptest! {
        /// The ladder agrees with square-and-multiply for arbitrary inputs.
        #[test]
        fn ladder_matches_reference(
            base in 0u64..1_000_000,
            key in 0u64..=u64::from(u32::MAX),
            modulus in 2u64..1_000_000,
        ) {
            prop_assert_eq!(run_ladder(base, key, modulus), mod_exp(base, key, modulus));
        }

        /// Branch outcomes encode exactly the key bits.
        #[test]
        fn outcomes_encode_key(key in 1u64..=u64::MAX) {
            let ladder = MontgomeryLadder::new(2, key, 1_000_003);
            let outcomes: Vec<Outcome> =
                (0..ladder.key_bits()).map(|i| ladder.branch_outcome(i)).collect();
            prop_assert_eq!(MontgomeryLadder::key_from_outcomes(&outcomes), key);
        }
    }
}
