//! Trace sinks: where emitted events go.

use crate::event::{TraceEvent, TracedEvent};
use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;

/// Everything a sink captured: the retained events (in emission order),
/// exact aggregate metrics over *all* recorded events (including any the
/// sink evicted), and how many events were evicted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCapture {
    /// Retained events in emission order.
    pub events: Vec<TracedEvent>,
    /// Aggregates over every recorded event, evicted or not.
    pub metrics: MetricsRegistry,
    /// Events evicted to respect the sink's capacity.
    pub dropped: u64,
}

/// Destination for trace events. Sinks must be `Send`: the trial runner
/// hands each worker thread its own tracer, and instrumented structures
/// owning a tracer must not lose their `Send`-ness.
pub trait TraceSink: Send {
    /// Records one event with its per-tracer sequence number.
    fn record(&mut self, seq: u64, event: &TraceEvent);

    /// Returns everything captured so far, resetting the sink.
    fn drain(&mut self) -> TraceCapture;
}

/// A bounded ring buffer of the most recent `capacity` events.
///
/// Allocation-frugal: the backing store is allocated once at construction
/// and eviction reuses it, so a trial emitting millions of events performs
/// no per-event allocation. Every event — kept or evicted — is folded into
/// a [`MetricsRegistry`], so aggregate counts and latency statistics remain
/// exact however small the ring.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TracedEvent>,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl RingSink {
    /// A ring keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a ring sink needs room for at least one event");
        RingSink {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
            metrics: MetricsRegistry::default(),
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, seq: u64, event: &TraceEvent) {
        self.metrics.observe_event(event);
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TracedEvent { seq, event: *event });
    }

    fn drain(&mut self) -> TraceCapture {
        TraceCapture {
            events: std::mem::take(&mut self.events).into(),
            metrics: std::mem::take(&mut self.metrics),
            dropped: std::mem::replace(&mut self.dropped, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drain_resets() {
        let mut s = RingSink::new(2);
        for i in 0..5 {
            s.record(i, &TraceEvent::NoiseBurst { injected: 1 });
        }
        let first = s.drain();
        assert_eq!(first.events.len(), 2);
        assert_eq!(first.dropped, 3);
        assert_eq!(first.metrics.counter("noise_branches"), 5);
        let second = s.drain();
        assert!(second.events.is_empty());
        assert_eq!(second.dropped, 0);
        assert!(second.metrics.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_capacity_rejected() {
        let _ = RingSink::new(0);
    }
}
