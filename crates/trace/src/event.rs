//! The trace event vocabulary.

/// An attack or harness stage whose extent is marked by
/// [`TraceEvent::SpanBegin`] / [`TraceEvent::SpanEnd`] pairs carrying the
/// simulated timestamp, so a trace reader can attribute the predictor
/// events between them to a stage of the attack round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Stage 1: priming the target PHT entry (the targeted prime, plus the
    /// history-reinforcement rounds on history-indexed backends).
    Prime,
    /// Stage 2: the spy's wait window around the victim trigger (the
    /// `usleep` of the paper's Listing 3) — the interval in which the
    /// primed entry is exposed to background noise.
    VictimWindow,
    /// Stage 3: the back-to-back probe pair reading the entry back.
    Probe,
    /// Execution of a Listing-1 randomization block (PHT scrambling).
    Randomize,
}

impl Span {
    /// Stable lower-case name used in JSONL output and metric keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Span::Prime => "prime",
            Span::VictimWindow => "victim_window",
            Span::Probe => "probe",
            Span::Randomize => "randomize",
        }
    }

    /// The counter key a [`crate::MetricsRegistry`] files this span under.
    #[must_use]
    pub(crate) fn counter_key(self) -> &'static str {
        match self {
            Span::Prime => "spans/prime",
            Span::VictimWindow => "spans/victim_window",
            Span::Probe => "spans/probe",
            Span::Randomize => "spans/randomize",
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured event. Plain `Copy` data with **no wall-clock anywhere**:
/// the only time is the simulated TSC, so traces are a pure function of the
/// seed and compare byte-for-byte across runs, machines and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// One conditional branch retired by the simulated core: the full
    /// predictor decision (predicted direction, whether the hybrid's
    /// selector chose the 2-level side, BTB hit) plus, for a timed branch,
    /// the latency the `rdtscp` pair around it read.
    Branch {
        /// Hardware context (logical CPU) that executed the branch.
        ctx: u32,
        /// Virtual address of the branch instruction.
        addr: u64,
        /// Actual direction.
        taken: bool,
        /// Predicted direction.
        predicted_taken: bool,
        /// Whether the branch mispredicted (as recorded by the counters,
        /// i.e. after any measurement fuzzing).
        mispredicted: bool,
        /// Whether the selector chose the 2-level (gshare) side.
        two_level: bool,
        /// Whether the BTB held the branch's target.
        btb_hit: bool,
        /// Measured latency in cycles: `Some` only when the branch was
        /// timed, since a latency exists only where code brackets the
        /// branch with `rdtscp`.
        latency: Option<u64>,
    },
    /// A taken branch installed (or refreshed) its BTB entry.
    BtbInstall {
        /// Virtual address of the branch.
        addr: u64,
        /// Branch target installed.
        target: u64,
    },
    /// A burst of background (SMT-sibling) noise branches hit the shared
    /// BPU. Recorded as a count, not per branch — noise exists to perturb
    /// the predictor, not to fill the trace.
    NoiseBurst {
        /// Number of noise branches injected.
        injected: u32,
    },
    /// A [`Span`] opened at simulated time `tsc`.
    SpanBegin {
        /// The stage that opened.
        span: Span,
        /// Simulated timestamp counter at entry.
        tsc: u64,
    },
    /// A [`Span`] closed at simulated time `tsc`.
    SpanEnd {
        /// The stage that closed.
        span: Span,
        /// Simulated timestamp counter at exit.
        tsc: u64,
    },
}

/// An event stamped with its per-tracer sequence number. Sequence numbers
/// are dense and start at zero for every trial, so `(trial_index, seq)`
/// totally orders a run's trace regardless of the thread count that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Position of this event in its tracer's emission order.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_are_stable() {
        assert_eq!(Span::Prime.name(), "prime");
        assert_eq!(Span::VictimWindow.name(), "victim_window");
        assert_eq!(Span::Probe.name(), "probe");
        assert_eq!(Span::Randomize.name(), "randomize");
        assert_eq!(Span::Probe.to_string(), "probe");
    }
}
