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
    /// Core cycle counter (`CPU_CLK_UNHALTED`-like; equals the TSC here).
    pub cycles: u64,
}

impl PerfCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        PerfCounters::default()
    }

    /// Records one retired conditional branch.
    pub fn record_branch(&mut self, mispredicted: bool, latency: u64) {
        self.branches_retired += 1;
        if mispredicted {
            self.branch_misses += 1;
        }
        self.cycles += latency;
    }

    /// Counter deltas since an earlier snapshot.
    ///
    /// Intended invariant: `earlier` is a snapshot taken *before* `self`
    /// on the same context, so every field of `self` is `>=` the
    /// corresponding field of `earlier`. The subtraction saturates at zero
    /// rather than assuming it: counters on real hardware can be reset or
    /// sampled out of order, and an out-of-order snapshot used to panic on
    /// underflow in debug builds (and wrap to garbage in release builds)
    /// instead of degrading to a zero delta.
    #[must_use]
    pub fn since(&self, earlier: &PerfCounters) -> PerfCounters {
        PerfCounters {
            branches_retired: self.branches_retired.saturating_sub(earlier.branches_retired),
            branch_misses: self.branch_misses.saturating_sub(earlier.branch_misses),
            cycles: self.cycles.saturating_sub(earlier.cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let mut c = PerfCounters::new();
        c.record_branch(true, 130);
        let snap = c;
        c.record_branch(false, 80);
        c.record_branch(true, 140);
        let d = c.since(&snap);
        assert_eq!(d.branches_retired, 2);
        assert_eq!(d.branch_misses, 1);
        assert_eq!(d.cycles, 220);
    }

    /// Regression test: snapshots taken out of order must yield a zero
    /// delta, not a debug-build underflow panic.
    #[test]
    fn out_of_order_snapshots_saturate_instead_of_panicking() {
        let mut c = PerfCounters::new();
        c.record_branch(true, 130);
        let later = c;
        c.record_branch(false, 80);
        let d = later.since(&c); // swapped arguments: earlier is newer
        assert_eq!(d, PerfCounters::new());
        // Partial inversion (one field behind, others ahead) also degrades
        // field-wise rather than panicking.
        let skewed = PerfCounters { branches_retired: 0, branch_misses: 5, cycles: 100 };
        let d = c.since(&skewed);
        assert_eq!(d.branches_retired, 2);
        assert_eq!(d.branch_misses, 0);
        assert_eq!(d.cycles, 110);
    }
}
