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
    /// Branches routed to the 1-level (bimodal) component.
    pub bimodal_used: u64,
    /// Branches routed to the 2-level (gshare) component.
    pub gshare_used: u64,
}

impl PredictionStats {
    /// Fresh zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        PredictionStats::default()
    }

    /// Records one resolved branch.
    pub fn record(&mut self, used_gshare: bool, mispredicted: bool) {
        self.branches += 1;
        if mispredicted {
            self.mispredictions += 1;
        }
        if used_gshare {
            self.gshare_used += 1;
        } else {
            self.bimodal_used += 1;
        }
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

    /// Fraction of branches routed to the 2-level component.
    #[must_use]
    pub fn gshare_fraction(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.gshare_used as f64 / self.branches as f64
        }
    }

    /// Difference of two snapshots (`self` must be the later one).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` has larger counts.
    #[must_use]
    pub fn since(&self, earlier: &PredictionStats) -> PredictionStats {
        debug_assert!(self.branches >= earlier.branches);
        PredictionStats {
            branches: self.branches - earlier.branches,
            mispredictions: self.mispredictions - earlier.mispredictions,
            bimodal_used: self.bimodal_used - earlier.bimodal_used,
            gshare_used: self.gshare_used - earlier.gshare_used,
        }
    }

    /// Resets all counts to zero.
    pub fn reset(&mut self) {
        *self = PredictionStats::default();
    }
}

impl fmt::Display for PredictionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} branches, {} mispredicted ({:.2}%), {:.1}% via gshare",
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
    fn since_subtracts_snapshots() {
        let mut s = PredictionStats::new();
        s.record(false, true);
        let snap = s;
        s.record(true, false);
        s.record(true, true);
        let delta = s.since(&snap);
        assert_eq!(delta.branches, 2);
        assert_eq!(delta.mispredictions, 1);
        assert_eq!(delta.gshare_used, 2);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!PredictionStats::new().to_string().is_empty());
    }
}
