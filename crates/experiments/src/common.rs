//! Shared experiment plumbing: scale factors, the per-experiment record
//! of headline metrics, checked claims and trial traces behind `--json`,
//! `--trace` and `--metrics`, trial-runner glue (thread count + fault
//! injection), and small output helpers.

use crate::claim::Claim;
use bscope_bpu::BackendKind;
use bscope_harness::{run_trials_with, FaultPlan, FaultPolicy, RunOptions};
use bscope_trace::TraceCapture;
use bscope_uarch::Tracer;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What one experiment produced besides its printout: the headline
/// metrics it recorded (for `--json` and `--check`) and its trials'
/// traces (empty unless `--trace`/`--metrics`).
#[derive(Debug, Default)]
pub struct Record {
    /// Metrics in the order the experiment recorded them.
    pub metrics: Vec<(String, f64)>,
    /// Per-trial traces, in trial order within each [`trials`] call and
    /// call order across calls.
    pub traces: Vec<TrialCapture>,
}

/// Experiment scale: `full()` approaches the paper's sample sizes where
/// affordable; `quick` (the `--quick` flag) runs everything in seconds for
/// smoke testing. The main loop gives each experiment its own `Scale`,
/// so each gets an empty [`Record`].
#[derive(Debug)]
pub struct Scale {
    /// Whether this is the reduced (smoke-test) scale.
    pub quick: bool,
    /// Base seed for all experiment randomness.
    pub seed: u64,
    /// Worker threads for every experiment's trials (`0` = all cores).
    /// Results are thread-count-invariant (see `bscope-harness`), so this
    /// only affects wall-clock.
    pub threads: usize,
    /// Direction-predictor substrate (`--bpu`) honoured by table2 and
    /// capacity; backend_sweep runs every backend and the other
    /// experiments always run the paper's hybrid model.
    pub backend: BackendKind,
    /// Deterministic fault injection into an experiment's trials
    /// (`--inject-fault`); `None` in normal runs.
    pub fault: Option<FaultPlan>,
    /// Whether trials capture structured traces (`--trace`/`--metrics`).
    /// Off by default: the disabled path hands every trial a no-op tracer
    /// that never allocates or builds events.
    pub trace: bool,
    /// Everything the experiment records; the main loop reads it once the
    /// experiment returns or fails.
    pub record: Mutex<Record>,
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
            record: Mutex::default(),
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

    /// Records a headline result (e.g. a table cell or summary fraction)
    /// for the `--json` report.
    pub fn metric(&self, name: impl Into<String>, value: f64) {
        self.lock_record().metrics.push((name.into(), value));
    }

    /// Prints `claim` on one line and records its verdict as
    /// `claims/<name>` (1, 0 or −1).
    pub fn claim(&self, name: &str, claim: &Claim) {
        println!("  {claim}");
        self.metric(format!("claims/{name}"), f64::from(claim.verdict as i8));
    }

    /// Locks the record, recovering from poisoning: metrics recorded before
    /// a panic still belong to the experiment's report entry.
    fn lock_record(&self) -> MutexGuard<'_, Record> {
        self.record.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the record, leaving it empty.
    pub fn take_record(&self) -> Record {
        std::mem::take(&mut self.lock_record())
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
/// is set, in which case it is a ring of [`TRACE_EVENTS_PER_TRIAL`] slots
/// built, used and drained inside the trial, and the per-trial captures
/// are appended to `scale`'s [`Record`]. A trace's position depends only
/// on its trial index, so the recorded traces are as thread-count-invariant
/// as the results.
///
/// # Panics
///
/// A panicking (or injected-fault) trial is re-raised with its trial index
/// and seed attached; the binary's per-experiment isolation turns that
/// into a failure entry in the `--json` report. The failed call adds no
/// traces to the record.
pub fn trials<T, F>(scale: &Scale, n: usize, salt: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64, &mut Tracer) -> T + Sync,
{
    let opts =
        RunOptions { threads: scale.threads, policy: FaultPolicy::Propagate, fault: scale.fault };
    let report = run_trials_with(n, scale.seed ^ salt, &opts, |idx, seed| {
        if !scale.trace {
            return (f(idx, seed, &mut Tracer::disabled()), None);
        }
        let mut tracer = Tracer::ring(TRACE_EVENTS_PER_TRIAL);
        let value = f(idx, seed, &mut tracer);
        (value, Some((idx, seed, tracer.drain())))
    });
    let (values, traces): (Vec<T>, Vec<_>) = report.expect_complete().into_iter().unzip();
    scale.lock_record().traces.extend(traces.into_iter().flatten());
    values
}

/// One trial's trace: `(trial_index, seed, capture)`. The seed makes any
/// trace line replayable in isolation (`trial_seed(base_seed, trial_index)`
/// reproduces the trial exactly).
pub type TrialCapture = (usize, u64, TraceCapture);

/// Asserts that `compute` gives the same result at 1, 2 and 8 worker
/// threads of a quick-scale run.
#[cfg(test)]
pub fn assert_thread_count_invariant<T>(compute: impl Fn(&Scale) -> T)
where
    T: PartialEq + std::fmt::Debug,
{
    let sequential = compute(&Scale { threads: 1, ..Scale::quick() });
    for threads in [2, 8] {
        assert_eq!(compute(&Scale { threads, ..Scale::quick() }), sequential, "threads={threads}");
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

/// Percentile of a sorted u64 sample: the element at the linear rank
/// `p / 100 * (len - 1)`, rounded to the nearest index (no interpolation).
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

    #[test]
    fn each_experiment_keeps_its_metrics_even_across_panics() {
        let scale = Scale::quick();
        scale.metric("exp1/a", 1.5);
        // The experiment panics mid-way, as an isolated experiment might.
        let _ = std::panic::catch_unwind(|| {
            scale.metric("exp1/b", 2.5);
            panic!("experiment dies after recording metrics");
        });
        // The next experiment is built from the same base, as the main loop
        // does, and its record starts empty: nothing leaked into it.
        let next = Scale { record: Default::default(), ..scale };
        assert!(next.lock_record().metrics.is_empty());
        next.metric("exp2/a", 3.0);

        let got = scale.take_record().metrics;
        assert_eq!(got, vec![("exp1/a".to_owned(), 1.5), ("exp1/b".to_owned(), 2.5)]);
        assert_eq!(next.take_record().metrics, vec![("exp2/a".to_owned(), 3.0)]);
    }

    #[test]
    fn trials_match_plain_runner_and_honor_fault_plans() {
        let mut scale = Scale::quick();
        scale.threads = 2;
        let out = trials(&scale, 8, 0xABC, |idx, seed, _| (idx, seed));
        let opts = RunOptions { threads: 1, ..RunOptions::default() };
        let plain = bscope_harness::run_trials_with(8, scale.seed ^ 0xABC, &opts, |i, s| (i, s));
        assert_eq!(out, plain.expect_complete());

        scale.fault = Some(FaultPlan { panic_on_index: 3 });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trials(&scale, 8, 0xABC, |idx, seed, _| (idx, seed))
        }))
        .expect_err("injected fault must propagate");
        let msg = bscope_harness::panic_message(&*err);
        assert!(msg.contains("trial 3"), "fault names its trial: {msg}");
    }

    #[test]
    fn traced_trials_feed_the_record_and_untraced_ones_do_not() {
        use bscope_harness::{splitmix64, trial_seed};
        use bscope_uarch::TraceEvent;
        // Emits idx + 1 events and returns a seed-derived value, so a
        // tracing-induced change in results or ordering would show.
        fn body(idx: usize, seed: u64, tracer: &mut Tracer) -> u64 {
            for _ in 0..=idx {
                tracer.emit_with(|| TraceEvent::NoiseBurst { injected: 1 });
            }
            splitmix64(seed ^ idx as u64)
        }
        let mut scale = Scale::quick();
        scale.threads = 1;

        // trace = false: tracer is disabled, the record stays empty.
        let untraced = trials(&scale, 5, 0x11, |idx, seed, tracer| {
            assert!(!tracer.is_enabled());
            body(idx, seed, tracer)
        });
        assert!(scale.take_record().traces.is_empty());

        // trace = true: identical results, and one capture per trial, in
        // trial order, stamped with the replay seed.
        scale.trace = true;
        assert_eq!(trials(&scale, 5, 0x11, body), untraced, "tracing must not change results");
        let traces = scale.take_record().traces;
        assert_eq!(traces.len(), 5);
        for (i, (idx, seed, capture)) in traces.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*seed, trial_seed(scale.seed ^ 0x11, i as u64));
            assert_eq!(capture.events.len(), i + 1);
            assert_eq!(capture.events[0].seq, 0, "per-trial sequence numbers restart at zero");
            assert_eq!(capture.metrics.counter("noise_branches"), (i + 1) as u64);
        }
        // Taking the record emptied it.
        assert!(scale.take_record().traces.is_empty());

        // The recorded traces do not depend on the thread count.
        scale.threads = 3;
        assert_eq!(trials(&scale, 5, 0x11, body), untraced);
        assert_eq!(scale.take_record().traces, traces, "threads=3 trace diverged");

        // A propagated trial failure leaves no partial traces behind to
        // leak into the next experiment.
        scale.fault = Some(FaultPlan { panic_on_index: 1 });
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| trials(&scale, 5, 0x11, body)))
            .expect_err("injected fault must propagate");
        assert!(scale.take_record().traces.is_empty(), "a failed run must not feed the record");
    }
}
