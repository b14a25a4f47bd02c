//! Prediction accuracy accounting.

use std::fmt;

/// Running counts of predictions made by a BPU, overall and per component.
///
/// The simulated equivalent of the `BR_INST_RETIRED` / `BR_MISP_RETIRED`
/// performance counters the paper's spy reads (§7), kept at BPU level for
/// experiment bookkeeping. Per-context counters live in `bscope-uarch`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Conditional branches predicted.
    pub branches: u64,
    /// Branches whose predicted direction was wrong.
    pub mispredictions: u64,
    /// Branches whose direction the address-indexed PHT provided.
    pub bimodal_used: u64,
    /// Branches whose direction a history-indexed component provided
    /// ([`Prediction::two_level`](crate::Prediction::two_level)): the
    /// hybrid's gshare side, a confident tagged TAGE component, or the
    /// perceptron.
    pub gshare_used: u64,
}

impl PredictionStats {
    /// Fresh zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        PredictionStats::default()
    }

    /// Records one resolved branch. Adds the flags as integers instead of
    /// branching on them, so an unpredictable outcome stream costs the
    /// host no mispredictions here.
    #[inline]
    pub fn record(&mut self, two_level: bool, mispredicted: bool) {
        self.branches += 1;
        self.mispredictions += u64::from(mispredicted);
        self.gshare_used += u64::from(two_level);
        self.bimodal_used += u64::from(!two_level);
    }

    /// Misprediction rate in `[0, 1]`; zero when no branches were recorded.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    /// Fraction of branches a history-indexed component predicted.
    #[must_use]
    fn gshare_fraction(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.gshare_used as f64 / self.branches as f64
        }
    }
}

impl fmt::Display for PredictionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} branches, {} mispredicted ({:.2}%), {:.1}% two-level",
            self.branches,
            self.mispredictions,
            100.0 * self.misprediction_rate(),
            100.0 * self.gshare_fraction(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rates() {
        let mut s = PredictionStats::new();
        s.record(false, true);
        s.record(true, false);
        s.record(true, false);
        s.record(true, true);
        assert_eq!(s.branches, 4);
        assert_eq!(s.mispredictions, 2);
        assert_eq!(s.bimodal_used, 1);
        assert_eq!(s.gshare_used, 3);
        assert!((s.misprediction_rate() - 0.5).abs() < 1e-12);
        assert!((s.gshare_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = PredictionStats::new();
        assert_eq!(s.misprediction_rate(), 0.0);
        assert_eq!(s.gshare_fraction(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!PredictionStats::new().to_string().is_empty());
    }
}
