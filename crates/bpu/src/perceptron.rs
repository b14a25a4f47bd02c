//! A perceptron directional predictor (Jiménez & Lin, 2001) — a
//! first-class predictor backend (wrapped by
//! [`PerceptronBackend`](crate::PerceptronBackend)).
//!
//! The paper cites perceptron predictors among modern designs (§2, [31]).
//! This is the stack's structural counter-example: per-branch state is a
//! weight vector, not a small saturating counter, so BranchScope's
//! prime-probe FSM strategy has nothing to saturate and the attack degrades
//! toward chance. Build cores on it with
//! [`BackendKind::Perceptron`](crate::BackendKind) or `--bpu perceptron`;
//! the `backend_sweep` experiment and `bscope-mitigations` tests measure
//! the live attack against it, and the `perceptron_ablation` bench covers
//! throughput.

use crate::counter::Outcome;
use crate::ghr::GlobalHistoryRegister;
use crate::VirtAddr;

/// A perceptron branch predictor: one weight vector per table entry, dotted
/// with the global history bits (+1 for taken, −1 for not-taken).
///
/// ```
/// use bscope_bpu::{GlobalHistoryRegister, Outcome, PerceptronPredictor};
///
/// let mut ghr = GlobalHistoryRegister::new(16);
/// let mut p = PerceptronPredictor::new(512, 16);
/// for _ in 0..32 {
///     let pred = p.predict(0x1000, &ghr);
///     p.train(0x1000, &ghr, Outcome::Taken);
///     ghr.push(Outcome::Taken);
///     let _ = pred;
/// }
/// assert_eq!(p.predict(0x1000, &ghr), Outcome::Taken);
/// ```
#[derive(Debug, Clone)]
pub struct PerceptronPredictor {
    /// weights[entry][0] is the bias weight; the rest pair with GHR bits.
    weights: Vec<Vec<i16>>,
    history_bits: u32,
    threshold: i32,
    mask: u64,
}

impl PerceptronPredictor {
    /// Creates a perceptron table of `entries` perceptrons over
    /// `history_bits` bits of global history.
    ///
    /// The training threshold uses the θ = ⌊1.93·h + 14⌋ rule from the
    /// original paper.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits` is zero
    /// or greater than 63.
    #[must_use]
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two, got {entries}");
        assert!(
            (1..=63).contains(&history_bits),
            "history_bits must be in 1..=63, got {history_bits}"
        );
        PerceptronPredictor {
            weights: vec![vec![0; history_bits as usize + 1]; entries],
            history_bits,
            threshold: (1.93 * f64::from(history_bits) + 14.0) as i32,
            mask: (entries - 1) as u64,
        }
    }

    /// Number of perceptrons in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the table is empty (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Table index for a branch address.
    #[must_use]
    pub fn index_of(&self, addr: VirtAddr) -> usize {
        (addr & self.mask) as usize
    }

    /// The history-independent *bias* weight for `addr` — the closest thing
    /// a perceptron has to a per-address directional state.
    #[must_use]
    pub fn bias(&self, addr: VirtAddr) -> i16 {
        self.weights[self.index_of(addr)][0]
    }

    /// Overwrites the entry for `addr` with the given bias and all history
    /// weights zeroed — the ground-truth hook backing
    /// [`PredictorBackend::set_pht_state`](crate::PredictorBackend::set_pht_state).
    pub fn set_entry(&mut self, addr: VirtAddr, bias: i16) {
        let idx = self.index_of(addr);
        let w = &mut self.weights[idx];
        w.fill(0);
        w[0] = bias;
    }

    fn output(&self, addr: VirtAddr, ghr: &GlobalHistoryRegister) -> i32 {
        let w = &self.weights[self.index_of(addr)];
        let hist = ghr.value();
        let mut y = i32::from(w[0]);
        for bit in 0..self.history_bits.min(ghr.len()) {
            let x = if (hist >> bit) & 1 == 1 { 1 } else { -1 };
            y += i32::from(w[bit as usize + 1]) * x;
        }
        y
    }

    /// Predicted direction for `addr` under history `ghr`.
    #[must_use]
    pub fn predict(&self, addr: VirtAddr, ghr: &GlobalHistoryRegister) -> Outcome {
        Outcome::from_bool(self.output(addr, ghr) >= 0)
    }

    /// Trains the perceptron on a resolved outcome (call before shifting the
    /// outcome into the GHR, as with gshare).
    pub fn train(&mut self, addr: VirtAddr, ghr: &GlobalHistoryRegister, outcome: Outcome) {
        let y = self.output(addr, ghr);
        let t: i32 = if outcome.is_taken() { 1 } else { -1 };
        let mispredicted = (y >= 0) != outcome.is_taken();
        if mispredicted || y.abs() <= self.threshold {
            let hist = ghr.value();
            let history_bits = self.history_bits.min(ghr.len());
            let idx = self.index_of(addr);
            let w = &mut self.weights[idx];
            w[0] = w[0].saturating_add(t as i16).clamp(-128, 127);
            for bit in 0..history_bits {
                let x: i32 = if (hist >> bit) & 1 == 1 { 1 } else { -1 };
                let idx = bit as usize + 1;
                w[idx] = w[idx].saturating_add((t * x) as i16).clamp(-128, 127);
            }
        }
    }

    /// Convenience: predict, train, and report correctness in one call.
    pub fn execute(
        &mut self,
        addr: VirtAddr,
        ghr: &mut GlobalHistoryRegister,
        outcome: Outcome,
    ) -> bool {
        let pred = self.predict(addr, ghr);
        self.train(addr, ghr, outcome);
        ghr.push(outcome);
        pred == outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut ghr = GlobalHistoryRegister::new(8);
        let mut p = PerceptronPredictor::new(64, 8);
        for _ in 0..16 {
            p.execute(0x42, &mut ghr, Outcome::Taken);
        }
        assert_eq!(p.predict(0x42, &ghr), Outcome::Taken);
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut ghr = GlobalHistoryRegister::new(8);
        let mut p = PerceptronPredictor::new(64, 8);
        let mut outcome = Outcome::Taken;
        for _ in 0..64 {
            p.execute(0x42, &mut ghr, outcome);
            outcome = outcome.flipped();
        }
        let mut correct = 0;
        for _ in 0..20 {
            if p.execute(0x42, &mut ghr, outcome) {
                correct += 1;
            }
            outcome = outcome.flipped();
        }
        assert!(correct >= 19, "perceptron should master T/N alternation, got {correct}/20");
    }

    #[test]
    fn weights_stay_bounded() {
        let mut ghr = GlobalHistoryRegister::new(8);
        let mut p = PerceptronPredictor::new(16, 8);
        for i in 0..5_000u64 {
            p.execute(3, &mut ghr, Outcome::from_bool(i % 7 < 3));
        }
        for w in &p.weights[p.index_of(3)] {
            assert!((-128..=127).contains(&i32::from(*w)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_entry_count() {
        let _ = PerceptronPredictor::new(100, 8);
    }
}
