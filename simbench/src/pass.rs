//! One pass: a plan's trials fanned out through `bscope-harness`, each
//! timed on the host, optionally traced.

use crate::workload::{run_trial, Plan, SimCounts, TrialOutput};
use bscope_harness::{run_trials_with, trial_seed, FaultPolicy, RunOptions};
use bscope_trace::{MetricsRegistry, TraceCapture, TraceEvent, TraceSink, TracedEvent, Tracer};
use std::time::Instant;

/// Whether a pass lends each trial's core a live tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// Disabled tracers: the end-to-end configuration.
    Off,
    /// Every trial records exact metrics; the plan's replay trial also keeps
    /// its first `stream_cap` foreground branches for the ladder.
    On {
        /// Branch events kept from the replay trial.
        stream_cap: usize,
    },
}

/// One trial of a pass. `output` is `None` when the trial panicked.
#[derive(Debug)]
pub struct TrialRecord {
    /// Simulated result and counts.
    pub output: Option<TrialOutput>,
    /// Host ns for the whole trial (system build included).
    pub host_ns: u64,
    /// Host ns spent building the trial's system.
    pub setup_ns: u64,
    /// The tracer's capture, in traced passes.
    pub capture: Option<TraceCapture>,
}

/// The result of one pass over a plan.
#[derive(Debug)]
pub struct Pass {
    /// Plan index of the first trial the pass ran.
    pub start: usize,
    /// Per-trial records in trial order, starting at trial `start`.
    pub records: Vec<TrialRecord>,
    /// Host ns of the whole runner call.
    pub wall_ns: u64,
}

impl Pass {
    /// Every trial's output, or `None` if any trial panicked.
    #[must_use]
    pub fn outputs(&self) -> Option<Vec<TrialOutput>> {
        self.records.iter().map(|r| r.output.clone()).collect()
    }

    /// Counts summed over the trials that completed.
    #[must_use]
    pub fn counts(&self) -> SimCounts {
        let mut total = SimCounts::default();
        for out in self.records.iter().filter_map(|r| r.output.as_ref()) {
            total.add(&out.counts);
        }
        total
    }

    /// Trial metrics from the tracer, merged over the pass.
    #[must_use]
    pub fn trace_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::default();
        for capture in self.records.iter().filter_map(|r| r.capture.as_ref()) {
            merged.merge(&capture.metrics);
        }
        merged
    }

    /// Host ns of the completed trials, summed.
    #[must_use]
    pub fn trial_ns_total(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.output.is_some())
            .map(|r| r.host_ns)
            .sum()
    }
}

/// Runs pass number `pass` of `plan` (the trials of `plan.slot(pass)`) on
/// `threads` workers. Trial `i` of the plan always runs with
/// `trial_seed(plan.base_seed, i)`, whichever pass runs it. A panicking
/// trial is recorded and skipped, not propagated, so it counts as failed.
#[must_use]
pub fn run_pass(plan: &Plan, pass: usize, threads: usize, tracing: Tracing) -> Pass {
    let opts = RunOptions {
        threads,
        policy: FaultPolicy::RecordAndSkip,
        fault: None,
    };
    let slot = plan.slot(pass);
    let start = Instant::now();
    let report = run_trials_with(slot.len(), plan.base_seed, &opts, |i, _| {
        let idx = slot.start + i;
        let seed = trial_seed(plan.base_seed, idx as u64);
        let mut tracer = match tracing {
            Tracing::Off => Tracer::disabled(),
            Tracing::On { stream_cap } => {
                let cap = if idx == plan.replay_trial {
                    stream_cap
                } else {
                    0
                };
                Tracer::with_sink(Box::new(StreamSink::new(cap)))
            }
        };
        let trial_start = Instant::now();
        let (output, setup_ns) = run_trial(&plan.trials[idx], &plan.stability, seed, &mut tracer);
        let host_ns = trial_start.elapsed().as_nanos() as u64;
        let capture = (tracing != Tracing::Off).then(|| tracer.drain());
        (output, host_ns, setup_ns, capture)
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let records = report
        .results
        .into_iter()
        .map(|result| match result {
            Some((output, host_ns, setup_ns, capture)) => TrialRecord {
                output: Some(output),
                host_ns,
                setup_ns,
                capture,
            },
            None => TrialRecord {
                output: None,
                host_ns: 0,
                setup_ns: 0,
                capture: None,
            },
        })
        .collect();
    Pass {
        start: slot.start,
        records,
        wall_ns,
    }
}

/// A trace sink that folds every event into exact metrics, as the ring sink
/// does, and keeps the first `cap` foreground branch events in order: the
/// branch stream the per-layer ladder replays.
#[derive(Debug)]
pub struct StreamSink {
    cap: usize,
    events: Vec<TracedEvent>,
    metrics: MetricsRegistry,
    dropped: u64,
}

impl StreamSink {
    /// A sink keeping at most `cap` branch events.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        StreamSink {
            cap,
            events: Vec::with_capacity(cap),
            metrics: MetricsRegistry::default(),
            dropped: 0,
        }
    }
}

impl TraceSink for StreamSink {
    fn record(&mut self, seq: u64, event: &TraceEvent) {
        self.metrics.observe_event(event);
        if let TraceEvent::Branch { .. } = event {
            if self.events.len() < self.cap {
                self.events.push(TracedEvent { seq, event: *event });
            } else {
                self.dropped += 1;
            }
        }
    }

    fn drain(&mut self) -> TraceCapture {
        TraceCapture {
            events: std::mem::take(&mut self.events),
            metrics: std::mem::take(&mut self.metrics),
            dropped: std::mem::replace(&mut self.dropped, 0),
        }
    }
}

/// The foreground branch stream `(ctx, addr, taken)` of a capture.
#[must_use]
pub fn branch_stream(capture: &TraceCapture) -> Vec<(u32, u64, bool)> {
    capture
        .events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::Branch {
                ctx, addr, taken, ..
            } => Some((ctx, addr, taken)),
            _ => None,
        })
        .collect()
}
