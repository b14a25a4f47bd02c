//! Sliding-window modular exponentiation victim.
//!
//! The paper notes that "most recent versions of cryptographic libraries do
//! not contain branches with outcomes dependent directly on the bits of a
//! secret key, [but] often some limited information can still be recovered
//! [6]" — citing Bernstein et al.'s *Sliding right into disaster*. This
//! module implements the classic left-to-right sliding-window
//! exponentiation: the per-position "does a window start here?" branch
//! leaks the square/multiply schedule, from which an attacker reconstructs
//! a substantial fraction of the key bits.

use crate::VICTIM_BRANCH_OFFSET;
use bscope_bpu::Outcome;
use bscope_os::{CpuView, Workload};

/// Left-to-right windowed modular exponentiation with window size `w`
/// (the fixed-length-window variant: whenever a set bit is scanned, a full
/// `w`-bit window is consumed). One loop iteration per scanned key
/// position, each executing a single secret-dependent branch (taken ⇔ a
/// window opens at the position).
///
/// ```
/// use bscope_bpu::MicroarchProfile;
/// use bscope_os::{AslrPolicy, System, Workload};
/// use bscope_victims::{mod_exp, SlidingWindowExp};
///
/// let mut sys = System::new(MicroarchProfile::skylake(), 5);
/// let pid = sys.spawn("victim", AslrPolicy::Disabled);
/// let mut exp = SlidingWindowExp::new(3, 0b1011_0101, 1_000_003, 4);
/// let mut cpu = sys.cpu(pid);
/// exp.run(&mut cpu, 128);
/// assert_eq!(exp.result(), Some(mod_exp(3, 0b1011_0101, 1_000_003)));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindowExp {
    key: u64,
    modulus: u64,
    window: u32,
    /// All powers base^0 … base^(2^w − 1).
    powers: Vec<u128>,
    /// Next key position to scan (None once finished).
    position: Option<i32>,
    acc: u128,
    trace: Vec<Outcome>,
}

impl SlidingWindowExp {
    /// Prepares `base^key mod modulus` with window size `window`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus <= 1` or `window` is not in `1..=8`.
    #[must_use]
    pub fn new(base: u64, key: u64, modulus: u64, window: u32) -> Self {
        assert!(modulus > 1, "modulus must exceed 1");
        assert!((1..=8).contains(&window), "window must be in 1..=8, got {window}");
        let m = u128::from(modulus);
        let b = u128::from(base) % m;
        let mut powers = Vec::with_capacity(1 << window);
        let mut cur = 1u128;
        for _ in 0..(1usize << window) {
            powers.push(cur);
            cur = cur * b % m;
        }
        let msb = if key == 0 { None } else { Some(63 - key.leading_zeros() as i32) };
        SlidingWindowExp {
            key,
            modulus,
            window,
            powers,
            position: msb,
            acc: 1,
            trace: Vec::new(),
        }
    }

    /// Result once every position has been scanned. A zero key finishes
    /// immediately with result 1.
    #[must_use]
    pub fn result(&self) -> Option<u64> {
        match self.position {
            Some(_) => None,
            None => Some(self.acc as u64),
        }
    }

    /// The square/multiply schedule as branch outcomes, one per scanned
    /// position (ground truth the attacker's trace is compared against).
    #[must_use]
    pub fn trace(&self) -> &[Outcome] {
        &self.trace
    }

    fn bit(&self, i: i32) -> bool {
        i >= 0 && (self.key >> i) & 1 == 1
    }
}

impl Workload for SlidingWindowExp {
    fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
        let Some(i) = self.position else { return false };
        let m = u128::from(self.modulus);
        let window_starts = self.bit(i);
        // The secret-dependent branch: "is this exponent bit set?"
        cpu.branch_at(VICTIM_BRANCH_OFFSET, Outcome::from_bool(window_starts));
        self.trace.push(Outcome::from_bool(window_starts));
        if window_starts {
            // Consume a full (or final, truncated) w-bit window.
            let len = (self.window as i32).min(i + 1);
            let j = i - len + 1;
            let mut value = 0u64;
            for k in (j..=i).rev() {
                value = (value << 1) | u64::from(self.bit(k));
            }
            for _ in 0..len {
                self.acc = self.acc * self.acc % m;
            }
            self.acc = self.acc * self.powers[value as usize] % m;
            cpu.work(60 * len as u64 + 60);
            self.position = (j > 0).then(|| j - 1);
        } else {
            self.acc = self.acc * self.acc % m;
            cpu.work(60);
            self.position = (i > 0).then(|| i - 1);
        }
        self.position.is_some()
    }
}

/// Partial-key reconstruction from an observed square/multiply schedule
/// (in the spirit of Bernstein et al.'s analysis): each *not-taken*
/// observation is a scanned position with key bit **0**; each *taken*
/// observation opens a fixed-length window whose **leading bit is 1** and
/// whose `w−1` interior bits are unknown. Because windows have fixed
/// length, the attacker's alignment is exact and every recovered bit is
/// certain.
///
/// Returns one `Option<bool>` per key bit, indexed from the MSB of the
/// scanned range; `None` marks unrecovered (window-interior) bits.
#[must_use]
pub fn recover_bits_from_trace(trace: &[Outcome], key_bits: u32, window: u32) -> Vec<Option<bool>> {
    let mut known: Vec<Option<bool>> = Vec::with_capacity(key_bits as usize);
    let mut remaining = key_bits as i64;
    for &o in trace {
        if remaining <= 0 {
            break;
        }
        if o.is_taken() {
            // Window: leading bit 1; the remaining min(w, remaining) − 1
            // bits were consumed inside the window and are unknown.
            known.push(Some(true));
            remaining -= 1;
            for _ in 0..(window as i64 - 1).min(remaining.max(0)) {
                known.push(None);
                remaining -= 1;
            }
        } else {
            known.push(Some(false));
            remaining -= 1;
        }
    }
    known.truncate(key_bits as usize);
    known
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mod_exp;
    use bscope_bpu::MicroarchProfile;
    use bscope_os::{AslrPolicy, System};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_exp(base: u64, key: u64, modulus: u64, w: u32) -> SlidingWindowExp {
        let mut sys = System::new(MicroarchProfile::haswell(), 3);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        let mut exp = SlidingWindowExp::new(base, key, modulus, w);
        let mut cpu = sys.cpu(pid);
        exp.run(&mut cpu, 256);
        exp
    }

    #[test]
    fn computes_correct_results() {
        for (b, k, m, w) in [(2, 10, 1_000_003, 4), (7, 0xDEAD_BEEF, 999_999_937, 4), (3, 1, 97, 2)] {
            let exp = run_exp(b, k, m, w);
            assert_eq!(exp.result(), Some(mod_exp(b, k, m)), "{b}^{k} mod {m} (w={w})");
        }
    }

    #[test]
    fn zero_key_finishes_immediately() {
        let mut sys = System::new(MicroarchProfile::haswell(), 4);
        let pid = sys.spawn("victim", AslrPolicy::Disabled);
        let mut exp = SlidingWindowExp::new(5, 0, 97, 4);
        assert_eq!(exp.result(), Some(1));
        let mut cpu = sys.cpu(pid);
        assert!(!exp.step(&mut cpu), "nothing to scan");
    }

    #[test]
    fn window_one_leaks_every_bit() {
        // With w = 1 the schedule *is* the key: full recovery.
        let key = 0b1011_0010_1101u64;
        let exp = run_exp(2, key, 1_000_003, 1);
        let bits = 64 - key.leading_zeros();
        let known = recover_bits_from_trace(exp.trace(), bits, 1);
        let recovered: u64 =
            known.iter().fold(0, |acc, b| (acc << 1) | u64::from(b.expect("all known")));
        assert_eq!(recovered, key);
    }

    #[test]
    fn wider_windows_leak_partially() {
        let key = 0xF0F0_F0F0_F0F0_F0F0u64 | 1;
        let exp = run_exp(2, key, 1_000_003, 4);
        let bits = 64 - key.leading_zeros();
        let known = recover_bits_from_trace(exp.trace(), bits, 4);
        let recovered = known.iter().filter(|b| b.is_some()).count();
        assert!(recovered < bits as usize, "w=4 must not leak everything");
        assert!(
            recovered * 2 >= bits as usize / 2,
            "but a substantial fraction is recovered: {recovered}/{bits}"
        );
        // Every recovered bit must be correct.
        for (idx, bit) in known.iter().enumerate() {
            if let Some(b) = bit {
                let true_bit = (key >> (bits as usize - 1 - idx)) & 1 == 1;
                assert_eq!(*b, true_bit, "recovered bit {idx} wrong");
            }
        }
    }

    /// Sliding-window result equals square-and-multiply for all inputs.
    #[test]
    fn matches_reference() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let base = rng.gen_range(1..100_000);
            let key = rng.gen_range(1..=u64::from(u32::MAX));
            let modulus = rng.gen_range(2..1_000_000);
            let w = rng.gen_range(1..=6);
            let exp = run_exp(base, key, modulus, w);
            assert_eq!(
                exp.result(),
                Some(mod_exp(base, key, modulus)),
                "case {case} (seed {case}): {base}^{key:#x} mod {modulus}, w={w}"
            );
        }
    }

    /// All bits an attacker recovers from the schedule are correct
    /// (soundness of the partial-recovery analysis).
    #[test]
    fn recovered_bits_are_sound() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let key = rng.gen_range(1..=u64::MAX);
            let w = rng.gen_range(1..=6);
            let exp = run_exp(3, key, 999_999_937, w);
            let bits = 64 - key.leading_zeros();
            let known = recover_bits_from_trace(exp.trace(), bits, w);
            let at = format!("case {case} (seed {case}): key {key:#x} w={w}");
            assert!(known.len() <= bits as usize, "{at}");
            for (idx, bit) in known.iter().enumerate() {
                if let Some(b) = bit {
                    let true_bit = (key >> (bits as usize - 1 - idx)) & 1 == 1;
                    assert_eq!(*b, true_bit, "{at}: bit {idx} wrong");
                }
            }
        }
    }
}
