//! A perceptron directional predictor (Jiménez & Lin, 2001) — one of the
//! direction predictors behind
//! [`PredictorBackend`](crate::PredictorBackend).
//!
//! The paper cites perceptron predictors among modern designs (§2, [31]).
//! This is the stack's structural counter-example: per-branch state is a
//! weight vector, not a small saturating counter, so BranchScope's
//! prime-probe FSM strategy has nothing to saturate and the attack degrades
//! toward chance. Build cores on it with
//! [`BackendKind::Perceptron`](crate::BackendKind) or `--bpu perceptron`;
//! the `backend_sweep` experiment and `bscope-mitigations` tests measure
//! the live attack against it, and simbench's `bpu.execute_ns.perceptron`
//! covers throughput.
//!
//! Every entry's weights sit in one flat table. Each branch is looked up
//! once: [`PredictorBackend::execute`](crate::PredictorBackend::execute),
//! the only commit path, computes the [`output`](PerceptronPredictor::output)
//! once, predicts from it and hands it to
//! [`train`](PerceptronPredictor::train).

use crate::counter::Outcome;
use crate::ghr::GlobalHistoryRegister;
use crate::VirtAddr;
use std::ops::Range;

/// A perceptron branch predictor: one weight vector per table entry, dotted
/// with the global history bits (+1 for taken, −1 for not-taken).
#[derive(Debug, Clone)]
pub(crate) struct PerceptronPredictor {
    /// Every entry's weights in one flat table of rows of `history_bits + 1`:
    /// a row's first weight is the bias, the rest pair with GHR bits.
    /// Weights are 8-bit and saturate rather than wrap.
    weights: Vec<i8>,
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
    pub(crate) fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two, got {entries}");
        assert!(
            (1..=63).contains(&history_bits),
            "history_bits must be in 1..=63, got {history_bits}"
        );
        PerceptronPredictor {
            weights: vec![0; entries * (history_bits as usize + 1)],
            history_bits,
            threshold: (1.93 * f64::from(history_bits) + 14.0) as i32,
            mask: (entries - 1) as u64,
        }
    }

    /// Where the weight row of the entry for `addr` sits in the table.
    fn row(&self, addr: VirtAddr) -> Range<usize> {
        let stride = self.history_bits as usize + 1;
        let start = (addr & self.mask) as usize * stride;
        start..start + stride
    }

    /// The history-independent *bias* weight for `addr` — the closest thing
    /// a perceptron has to a per-address directional state.
    #[must_use]
    pub(crate) fn bias(&self, addr: VirtAddr) -> i8 {
        self.weights[self.row(addr).start]
    }

    /// Overwrites the entry for `addr` with the given bias and all history
    /// weights zeroed — the ground-truth hook backing
    /// [`PredictorBackend::set_pht_state`](crate::PredictorBackend::set_pht_state).
    pub(crate) fn set_entry(&mut self, addr: VirtAddr, bias: i8) {
        let row = self.row(addr);
        let w = &mut self.weights[row];
        w.fill(0);
        w[0] = bias;
    }

    /// The perceptron output for `addr` under history `ghr`: the bias plus
    /// every history weight signed by its bit. It predicts taken when
    /// `≥ 0`, and [`train`](Self::train) reuses it for the same branch.
    #[must_use]
    pub(crate) fn output(&self, addr: VirtAddr, ghr: &GlobalHistoryRegister) -> i32 {
        debug_assert_eq!(ghr.len(), self.history_bits, "GHR width");
        let hist = ghr.value();
        let w = &self.weights[self.row(addr)];
        let mut y = i32::from(w[0]);
        for (bit, &weight) in w[1..].iter().enumerate() {
            let x = if (hist >> bit) & 1 == 1 { 1 } else { -1 };
            y += i32::from(weight) * x;
        }
        y
    }

    /// Trains the perceptron on a resolved outcome, given the
    /// [`output`](Self::output) it computed for this branch under the same
    /// history (call before shifting the outcome into the GHR, as with
    /// gshare).
    pub(crate) fn train(
        &mut self,
        addr: VirtAddr,
        ghr: &GlobalHistoryRegister,
        y: i32,
        outcome: Outcome,
    ) {
        let mispredicted = (y >= 0) != outcome.is_taken();
        if mispredicted || y.abs() <= self.threshold {
            let t: i8 = if outcome.is_taken() { 1 } else { -1 };
            let hist = ghr.value();
            let row = self.row(addr);
            let w = &mut self.weights[row];
            w[0] = w[0].saturating_add(t);
            for (bit, weight) in w[1..].iter_mut().enumerate() {
                let x = if (hist >> bit) & 1 == 1 { 1 } else { -1 };
                *weight = weight.saturating_add(t * x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One dynamic branch: compute the output, train, shift the outcome
    /// into the history. Returns whether the prediction was correct.
    fn step(
        p: &mut PerceptronPredictor,
        ghr: &mut GlobalHistoryRegister,
        addr: VirtAddr,
        outcome: Outcome,
    ) -> bool {
        let y = p.output(addr, ghr);
        p.train(addr, ghr, y, outcome);
        ghr.push(outcome);
        (y >= 0) == outcome.is_taken()
    }

    #[test]
    fn learns_biased_branch() {
        let mut ghr = GlobalHistoryRegister::new(8);
        let mut p = PerceptronPredictor::new(64, 8);
        for _ in 0..16 {
            step(&mut p, &mut ghr, 0x42, Outcome::Taken);
        }
        assert!(p.output(0x42, &ghr) >= 0, "a taken-biased branch predicts taken");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut ghr = GlobalHistoryRegister::new(8);
        let mut p = PerceptronPredictor::new(64, 8);
        let mut outcome = Outcome::Taken;
        for _ in 0..64 {
            step(&mut p, &mut ghr, 0x42, outcome);
            outcome = outcome.flipped();
        }
        let mut correct = 0;
        for _ in 0..20 {
            if step(&mut p, &mut ghr, 0x42, outcome) {
                correct += 1;
            }
            outcome = outcome.flipped();
        }
        assert!(correct >= 19, "perceptron should master T/N alternation, got {correct}/20");
    }

    /// Training past the 8-bit range saturates the weights instead of
    /// wrapping them. With y = 0 every call trains, and the all-not-taken
    /// history drives each history weight to the other extreme (`!bias`).
    #[test]
    fn weights_stay_bounded() {
        let ghr = GlobalHistoryRegister::new(8);
        let mut p = PerceptronPredictor::new(16, 8);
        for (outcome, bias) in [(Outcome::Taken, i8::MAX), (Outcome::NotTaken, i8::MIN)] {
            (0..300).for_each(|_| p.train(3, &ghr, 0, outcome));
            let row = &p.weights[p.row(3)];
            assert_eq!(row[0], bias, "bias after training {outcome:?}");
            assert!(row[1..].iter().all(|&w| w == !bias), "history weights: {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_entry_count() {
        let _ = PerceptronPredictor::new(100, 8);
    }
}
