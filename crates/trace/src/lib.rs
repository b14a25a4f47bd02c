//! Structured event tracing and metrics for the BranchScope stack.
//!
//! Every layer of the reproduction — the predictor backends, the simulated
//! core, the attack stages, the trial-runner — is a deterministic function
//! of its seed, yet until this crate the only window into a surprising
//! result was `println!` archaeology. `bscope-trace` provides the missing
//! instrument: a lightweight, allocation-frugal structured-event layer that
//! is **exactly zero-cost when disabled** (one branch on an `Option` per
//! emit site, no event construction) and **deterministic when enabled**
//! (events carry only simulated time, never wall-clock, so the same seed
//! produces the same trace on any machine and any thread count).
//!
//! The pieces:
//!
//! * [`TraceEvent`] — the event vocabulary: per-branch predictor decisions
//!   (direction, selector choice, BTB hit, and the latency of a timed
//!   branch), BTB installs,
//!   background-noise bursts, and begin/end markers for attack-stage
//!   [`Span`]s (prime, victim window, probe, randomization block);
//! * [`TraceSink`] — where events go. [`RingSink`] keeps the most recent
//!   `capacity` events *and* feeds every event (kept or evicted) into a
//!   [`MetricsRegistry`], so aggregate statistics stay exact even when the
//!   ring wraps;
//! * [`Tracer`] — the handle the instrumented code holds: disabled by
//!   default, enabled by installing a sink. [`Tracer::emit_with`] takes a
//!   closure so a disabled tracer never constructs the event;
//! * [`MetricsRegistry`] — named monotonic counters plus log2-bucketed
//!   latency histograms with exact mean/min/max and bucket-resolution
//!   percentiles; registries merge deterministically across trials;
//! * [`jsonl`] — hand-rolled JSON-Lines rendering of traces (the workspace
//!   has no serialisation dependency), one event per line, with addresses
//!   and seeds as hex strings so no value is squeezed through an `f64`.
//!
//! The crate has no dependencies and does no I/O; writing a trace to disk
//! is the caller's business (the experiments binary does it atomically).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod jsonl;
mod metrics;
mod sink;

pub use event::{Span, TraceEvent, TracedEvent};
pub use metrics::MetricsRegistry;
pub use sink::{RingSink, TraceCapture, TraceSink};

/// The handle instrumented code holds: either disabled (the default — one
/// `Option` check per emit site, nothing constructed, nothing stored) or
/// attached to a [`TraceSink`] that receives every event with a
/// monotonically increasing per-tracer sequence number.
///
/// `Default` is the disabled tracer, so instrumented structures can own a
/// `Tracer` unconditionally and callers can `std::mem::take` it to move a
/// live tracer in and out (the experiments harness threads one tracer
/// through each trial this way).
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
    seq: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .field("seq", &self.seq)
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer: every emit is a single branch and nothing more.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer recording into a fresh [`RingSink`] that keeps the most
    /// recent `capacity` events (and exact aggregate metrics for all of
    /// them, evicted or not).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn ring(capacity: usize) -> Self {
        Tracer::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// A tracer recording into an arbitrary sink.
    #[must_use]
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink), seq: 0 }
    }

    /// Whether a sink is attached. Emit sites may use this to skip work
    /// beyond event construction (which [`Tracer::emit_with`] already
    /// defers).
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one event. The closure runs only when a sink is attached,
    /// so a disabled tracer never pays for building the event.
    #[inline]
    pub fn emit_with(&mut self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &mut self.sink {
            let seq = self.seq;
            self.seq += 1;
            sink.record(seq, &build());
        }
    }

    /// Detaches the sink and returns everything it captured; the tracer
    /// reverts to disabled. A disabled tracer drains to an empty capture.
    pub fn drain(&mut self) -> TraceCapture {
        self.seq = 0;
        match self.sink.take() {
            Some(mut sink) => sink.drain(),
            None => TraceCapture::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch(latency: u64) -> TraceEvent {
        TraceEvent::Branch {
            ctx: 0,
            addr: 0x30_0000,
            taken: true,
            predicted_taken: false,
            mispredicted: true,
            two_level: false,
            btb_hit: false,
            latency: Some(latency),
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit_with(|| panic!("disabled tracer must not construct events"));
        let capture = t.drain();
        assert!(capture.events.is_empty());
        assert!(capture.metrics.is_empty());
    }

    #[test]
    fn ring_tracer_records_with_increasing_seq() {
        let mut t = Tracer::ring(16);
        assert!(t.is_enabled());
        for i in 0..5 {
            t.emit_with(|| branch(80 + i));
        }
        let capture = t.drain();
        assert!(!t.is_enabled(), "drain detaches the sink");
        assert_eq!(capture.events.len(), 5);
        assert_eq!(capture.dropped, 0);
        let seqs: Vec<u64> = capture.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(capture.metrics.counter("branches"), 5);
    }

    #[test]
    fn ring_eviction_keeps_newest_and_counts_all() {
        let mut t = Tracer::ring(3);
        for i in 0..10 {
            t.emit_with(|| branch(i));
        }
        let capture = t.drain();
        assert_eq!(capture.events.len(), 3);
        assert_eq!(capture.dropped, 7);
        assert_eq!(capture.events[0].seq, 7, "oldest events evicted first");
        // Metrics see every event, including the evicted ones.
        assert_eq!(capture.metrics.counter("branches"), 10);
    }

    #[test]
    fn same_emission_sequence_gives_identical_captures() {
        let run = || {
            let mut t = Tracer::ring(8);
            for i in 0..20 {
                t.emit_with(|| branch(50 + i * 3));
                if i % 4 == 0 {
                    t.emit_with(|| TraceEvent::SpanBegin { span: Span::Probe, tsc: i * 100 });
                    t.emit_with(|| TraceEvent::SpanEnd { span: Span::Probe, tsc: i * 100 + 7 });
                }
            }
            t.drain()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.dropped, b.dropped);
    }
}
