//! Performance counter model.

/// Hardware performance counters as visible to one hardware thread.
///
/// The paper's spy (Listing 3) brackets its probing branch with reads of the
/// branch-misprediction counter and stores the difference. On real hardware
/// these counters are per-logical-CPU, so activity of the sibling SMT thread
/// does **not** leak into them — the simulated core therefore only counts
/// branches executed by the foreground context, not injected noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// `BR_INST_RETIRED.CONDITIONAL` — conditional branches retired.
    pub branches_retired: u64,
    /// `BR_MISP_RETIRED.CONDITIONAL` — mispredicted conditional branches.
    pub branch_misses: u64,
}

impl PerfCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        PerfCounters::default()
    }

    /// Records one retired conditional branch (branch-free: the miss flag
    /// is added as an integer).
    #[inline]
    pub fn record_branch(&mut self, mispredicted: bool) {
        self.branches_retired += 1;
        self.branch_misses += u64::from(mispredicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_branches_and_misses() {
        let mut c = PerfCounters::new();
        c.record_branch(true);
        c.record_branch(false);
        c.record_branch(true);
        assert_eq!(c, PerfCounters { branches_retired: 3, branch_misses: 2 });
    }
}
