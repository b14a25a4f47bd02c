//! Shared experiment plumbing: scale factors, the headline-metric sink
//! behind `--json`, trial-runner glue (thread count + fault injection),
//! and small output helpers.

use bscope_bpu::BackendKind;
use bscope_harness::{run_trials_traced, FaultPlan, FaultPolicy, RunOptions, TrialTrace};
use bscope_uarch::Tracer;
use std::sync::{Mutex, PoisonError};

/// Experiment scale: `full()` approaches the paper's sample sizes where
/// affordable; `quick` (the `--quick` flag) runs everything in seconds for
/// smoke testing.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Whether this is the reduced (smoke-test) scale.
    pub quick: bool,
    /// Base seed for all experiment randomness.
    pub seed: u64,
    /// Worker threads for trial-parallel experiments (`0` = all cores).
    /// Results are thread-count-invariant (see `bscope-harness`), so this
    /// only affects wall-clock.
    pub threads: usize,
    /// Direction-predictor substrate (`--bpu`) honoured by the
    /// backend-aware experiments; backend-agnostic experiments always run
    /// the paper's hybrid model.
    pub backend: BackendKind,
    /// Deterministic fault injection for the trial-parallel experiments
    /// (`--inject-fault`); `None` in normal runs.
    pub fault: Option<FaultPlan>,
    /// Whether trial-parallel experiments capture structured traces
    /// (`--trace`/`--metrics`). Off by default: the disabled path hands
    /// every trial a no-op tracer that never allocates or builds events.
    pub trace: bool,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            quick: false,
            seed: 0xB5C0_9E01,
            threads: 0,
            backend: BackendKind::Hybrid,
            fault: None,
            trace: false,
        }
    }

    #[cfg(test)]
    pub fn quick() -> Self {
        Scale { quick: true, ..Scale::full() }
    }

    /// Picks a sample size by scale.
    pub fn n(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Newest events kept per trial when tracing is on. The ring keeps the tail
/// of the trial (its metrics stay exact for everything evicted); 1024 spans
/// a full attack round comfortably while bounding JSONL output.
pub const TRACE_EVENTS_PER_TRIAL: usize = 1024;

/// Runs `n` trials through the deterministic parallel runner with this
/// scale's thread count and fault plan. Seeds derive from
/// `scale.seed ^ salt`, so results are bit-identical for every thread
/// count.
///
/// Each trial receives a [`Tracer`]: disabled (no-op) unless `scale.trace`
/// is set, in which case per-trial captures accumulate in a global sink the
/// main loop drains per experiment (see [`drain_traces`]).
///
/// # Panics
///
/// A panicking (or injected-fault) trial is re-raised with its trial index
/// and seed attached; the binary's per-experiment isolation turns that
/// into a failure entry in the `--json` report.
pub fn trials<T, F>(scale: &Scale, n: usize, salt: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64, &mut Tracer) -> T + Sync,
{
    let opts =
        RunOptions { threads: scale.threads, policy: FaultPolicy::Propagate, fault: scale.fault };
    let capacity = if scale.trace { Some(TRACE_EVENTS_PER_TRIAL) } else { None };
    let (report, traces) = run_trials_traced(n, scale.seed ^ salt, &opts, capacity, f);
    if !traces.is_empty() {
        traces_sink().extend(traces);
    }
    report.expect_complete()
}

/// Per-trial traces captured by [`trials`] since the last drain. Same
/// scoping discipline as the metric sink: the main loop drains it per
/// experiment when `--trace`/`--metrics` is active.
static TRACES: Mutex<Vec<TrialTrace>> = Mutex::new(Vec::new());

fn traces_sink() -> std::sync::MutexGuard<'static, Vec<TrialTrace>> {
    TRACES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes every trace captured since the last drain, in trial order within
/// each `trials` call and call order across calls.
pub fn drain_traces() -> Vec<TrialTrace> {
    std::mem::take(&mut traces_sink())
}

/// Installs the trial's tracer on `sys`'s core for the duration of `body`,
/// then reclaims it so the harness can collect the capture. With tracing
/// disabled this is a pair of no-op moves. (A panicking `body` loses the
/// capture along with the trial — the trial's report entry carries the
/// failure instead.)
pub fn with_tracer<T>(
    sys: &mut bscope_os::System,
    tracer: &mut Tracer,
    body: impl FnOnce(&mut bscope_os::System) -> T,
) -> T {
    sys.core_mut().set_tracer(std::mem::take(tracer));
    let out = body(sys);
    *tracer = sys.core_mut().take_tracer();
    out
}

/// Headline metrics reported by experiments since the last drain; the main
/// loop scopes the sink per experiment (see [`MetricScope`]) when emitting
/// `--json`.
static METRICS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Locks the sink, recovering from poisoning: a panicking experiment must
/// not wedge metric recording for every later experiment in the run.
fn metrics_sink() -> std::sync::MutexGuard<'static, Vec<(String, f64)>> {
    METRICS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records a headline result (e.g. a table cell or summary fraction) for
/// the `--json` report. No-op unless drained by the main loop.
pub fn metric(name: impl Into<String>, value: f64) {
    metrics_sink().push((name.into(), value));
}

/// Scopes the metric sink to one experiment: everything recorded between
/// [`MetricScope::enter`] and [`MetricScope::finish`] belongs to that
/// experiment — including metrics recorded before a panic, which used to
/// leak into the *next* experiment's `--json` entry once experiments were
/// isolated. Dropping the scope without finishing discards its metrics.
#[must_use = "an unfinished scope discards its metrics on drop"]
pub struct MetricScope {
    _not_send: std::marker::PhantomData<*const ()>, // one experiment at a time
}

impl MetricScope {
    /// Opens a scope, discarding anything stale from before it.
    pub fn enter() -> Self {
        metrics_sink().clear();
        MetricScope { _not_send: std::marker::PhantomData }
    }

    /// Closes the scope and returns every metric recorded inside it, even
    /// if the experiment subsequently panicked part-way.
    pub fn finish(self) -> Vec<(String, f64)> {
        std::mem::take(&mut metrics_sink())
    }
}

impl Drop for MetricScope {
    fn drop(&mut self) {
        metrics_sink().clear();
    }
}

/// Simple text bar for terminal "plots".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max <= 0.0 { 0 } else { ((value / max) * width as f64).round() as usize };
    let filled = filled.min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

/// Mean of a u64 sample.
pub fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<u64>() as f64 / v.len() as f64
}

/// Percentile (nearest-rank) of a u64 sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    // The metric sink is global, so these tests must not run concurrently
    // with each other; a single test covers all scope semantics.
    #[test]
    fn metric_scope_isolates_experiments_even_across_panics() {
        // Metrics recorded before the scope are stale and discarded.
        metric("stale/metric", 1.0);
        let scope = MetricScope::enter();
        metric("exp1/a", 1.5);
        // The experiment panics mid-way, as an isolated experiment might.
        let _ = std::panic::catch_unwind(|| {
            metric("exp1/b", 2.5);
            panic!("experiment dies after recording metrics");
        });
        let got = scope.finish();
        assert_eq!(got, vec![("exp1/a".to_owned(), 1.5), ("exp1/b".to_owned(), 2.5)]);

        // The next experiment's scope must start empty: nothing leaked.
        let scope = MetricScope::enter();
        metric("exp2/a", 3.0);
        assert_eq!(scope.finish(), vec![("exp2/a".to_owned(), 3.0)]);

        // A dropped (unfinished) scope discards its metrics.
        {
            let _scope = MetricScope::enter();
            metric("abandoned", 9.0);
        }
        let scope = MetricScope::enter();
        assert!(scope.finish().is_empty());
    }

    #[test]
    fn trials_match_plain_runner_and_honor_fault_plans() {
        let mut scale = Scale::quick();
        scale.threads = 2;
        let out = trials(&scale, 8, 0xABC, |idx, seed, _| (idx, seed));
        let opts = RunOptions { threads: 1, ..RunOptions::default() };
        let plain = bscope_harness::run_trials_with(8, scale.seed ^ 0xABC, &opts, |i, s| (i, s));
        assert_eq!(out, plain.expect_complete());

        scale.fault = Some(bscope_harness::FaultPlan::keyed(0).panic_on_index(3));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trials(&scale, 8, 0xABC, |idx, seed, _| (idx, seed))
        }))
        .expect_err("injected fault must propagate");
        let msg = bscope_harness::panic_message(&*err);
        assert!(msg.contains("trial 3"), "fault names its trial: {msg}");
    }

    // The trace sink is global (like the metric sink), so one test covers
    // capture + drain semantics end to end.
    #[test]
    fn traced_trials_feed_the_sink_and_untraced_ones_do_not() {
        use bscope_uarch::TraceEvent;
        let _ = drain_traces(); // discard anything stale
        let mut scale = Scale::quick();
        scale.threads = 1;

        // trace = false: tracer is disabled, sink stays empty.
        let _ = trials(&scale, 3, 0x11, |_, _, tracer| {
            assert!(!tracer.is_enabled());
        });
        assert!(drain_traces().is_empty());

        // trace = true: one TrialTrace per trial, in trial order, stamped
        // with the replay seed.
        scale.trace = true;
        let _ = trials(&scale, 3, 0x11, |idx, _, tracer| {
            for _ in 0..=idx {
                tracer.emit_with(|| TraceEvent::NoiseBurst { injected: 1 });
            }
        });
        let traces = drain_traces();
        assert_eq!(traces.len(), 3);
        for (idx, t) in traces.iter().enumerate() {
            assert_eq!(t.trial_index, idx);
            assert_eq!(t.seed, bscope_harness::trial_seed(scale.seed ^ 0x11, idx as u64));
            assert_eq!(t.events.len(), idx + 1);
            assert_eq!(t.metrics.counter("noise_branches"), (idx + 1) as u64);
        }
        // The drain emptied the sink.
        assert!(drain_traces().is_empty());
    }
}
