//! Deterministic parallel trial-runner with panic isolation.
//!
//! Every experiment in this repo is a Monte Carlo loop: run N independent
//! simulated trials, aggregate. This crate runs those trials across
//! threads while keeping the output a pure function of `(n, base_seed)`:
//!
//! * each trial's RNG seed is derived from `(base_seed, trial_index)` by
//!   [`trial_seed`] — never from a worker index or scheduling order;
//! * results come back in trial order regardless of which worker ran
//!   which trial.
//!
//! So a [`run_trials_with`] run is bit-identical for any
//! `opts.threads`, including 1 — verified by tests here and regression tests
//! in the experiments binary. This replaces per-worker seed sharding
//! (previously in fig4), where changing the thread count changed which
//! seeds were run and therefore the results.
//!
//! Work distribution is a shared atomic counter, so long and short trials
//! interleave without any static partitioning assumptions.
//!
//! # Fault tolerance
//!
//! A panicking trial no longer takes the whole run (or process) down
//! silently. Every trial body executes under [`std::panic::catch_unwind`];
//! what happens next is governed by a [`FaultPolicy`]:
//!
//! * [`FaultPolicy::Propagate`] (the default) re-raises the
//!   panic of the lowest-index failed trial, with the trial index and seed
//!   prepended so the failure is attributable and replayable;
//! * [`FaultPolicy::RecordAndSkip`] records each failure as a
//!   [`TrialError`] and keeps going; the resulting [`TrialReport`] (a
//!   `None` slot per failed trial plus the index-sorted failure list) is
//!   bit-identical across thread counts, because trial seeds — and
//!   therefore which trials fail — never depend on scheduling.
//!
//! [`FaultPlan`] provides deterministic fault *injection* for exercising
//! these paths in CI: per-trial panic/delay decisions keyed off the trial
//! seed, so an injected fault fires on the same trials for every thread
//! count.
//!
//! # Tracing
//!
//! [`run_trials_traced`] extends the same contract to observability: each
//! trial gets its own [`bscope_trace::Tracer`] and the captured events come
//! back as [`TrialTrace`]s stamped with `(trial_index, seed)`, collected in
//! trial order. A run's concatenated trace is therefore bit-identical
//! across thread counts, just like its results.

#![forbid(unsafe_code)]

use bscope_trace::{MetricsRegistry, TracedEvent, Tracer};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// SplitMix64 mixing step: maps any `u64` to a well-scrambled `u64`.
///
/// This is the finalizer from Vigna's SplitMix64; single-bit input
/// differences flip about half the output bits, so consecutive trial
/// indices yield statistically independent seeds.
#[inline]
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed for trial `trial_idx` of a run with `base_seed`.
///
/// Pure function of its arguments: independent of thread count, worker
/// identity, and scheduling. XORing the mixed index into the mixed base
/// (rather than `base ^ idx` directly) decorrelates both low-bit-only
/// base seeds and consecutive indices.
#[inline]
#[must_use]
pub fn trial_seed(base_seed: u64, trial_idx: u64) -> u64 {
    splitmix64(base_seed) ^ splitmix64(trial_idx.wrapping_add(0x5EED))
}

/// Resolves a requested thread count: `0` means available parallelism.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }
}

/// What the runner does when a trial panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Re-raise the panic of the lowest-index failed trial, with the trial
    /// index and seed prepended to the payload. This is the default.
    #[default]
    Propagate,
    /// Record each failure as a [`TrialError`], leave `None` in that
    /// trial's result slot, and keep running the remaining trials. The
    /// resulting [`TrialReport`] is bit-identical across thread counts.
    RecordAndSkip,
}

/// One trial's failure: which trial, its (replayable) seed, and the panic
/// payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialError {
    /// Index of the failed trial.
    pub index: usize,
    /// The seed the trial ran with (`trial_seed(base_seed, index)`), so the
    /// failure can be replayed in isolation.
    pub seed: u64,
    /// The panic payload, if it was a string (the overwhelmingly common
    /// case), or a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {} (seed {:#018x}) panicked: {}", self.index, self.seed, self.message)
    }
}

impl std::error::Error for TrialError {}

/// Renders a `catch_unwind` payload as text (`&str` / `String` payloads
/// verbatim, anything else as a placeholder).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Outcome of a [`run_trials_with`] run: per-trial results in trial order
/// (`None` where the trial panicked under [`FaultPolicy::RecordAndSkip`])
/// plus the failures sorted by trial index.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReport<T> {
    /// One slot per trial, in trial order; `None` marks a skipped failure.
    pub results: Vec<Option<T>>,
    /// All trial failures, sorted by trial index.
    pub failures: Vec<TrialError>,
}

impl<T> TrialReport<T> {
    /// `true` when every trial produced a result.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Unwraps a fully successful report into the plain result vector.
    ///
    /// # Panics
    ///
    /// Panics with the first failure if any trial failed.
    #[must_use]
    pub fn expect_complete(self) -> Vec<T> {
        if let Some(first) = self.failures.first() {
            panic!("{first}");
        }
        self.results.into_iter().map(|r| r.expect("complete report has all results")).collect()
    }
}

/// Deterministic per-trial fault injection: panic and/or delay decisions
/// keyed off the trial seed (and optionally a specific trial index), so an
/// injected fault fires on the same trials regardless of thread count.
///
/// Delays perturb *scheduling* without touching results — useful for
/// demonstrating that [`FaultPolicy::RecordAndSkip`] output really is
/// invariant under worker-interleaving changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    salt: u64,
    panic_one_in: u64,
    panic_on_index: Option<usize>,
    delay_one_in: u64,
    delay_micros: u64,
}

/// Prefix of every panic message raised by [`FaultPlan::apply`].
pub const INJECTED_FAULT_PREFIX: &str = "injected fault";

impl FaultPlan {
    /// An inert plan (injects nothing) keyed with `salt`; chain the
    /// builder methods to arm it.
    #[must_use]
    pub fn keyed(salt: u64) -> Self {
        FaultPlan { salt, panic_one_in: 0, panic_on_index: None, delay_one_in: 0, delay_micros: 0 }
    }

    /// Panic on roughly one in `one_in` trials, selected by the trial seed
    /// (`0` disables seed-keyed panics).
    #[must_use]
    pub fn panic_one_in(mut self, one_in: u64) -> Self {
        self.panic_one_in = one_in;
        self
    }

    /// Panic on exactly the trial with this index.
    #[must_use]
    pub fn panic_on_index(mut self, index: usize) -> Self {
        self.panic_on_index = Some(index);
        self
    }

    /// Sleep `micros` on roughly one in `one_in` trials (seed-keyed), to
    /// shake worker scheduling without changing any result.
    #[must_use]
    pub fn delay_one_in(mut self, one_in: u64, micros: u64) -> Self {
        self.delay_one_in = one_in;
        self.delay_micros = micros;
        self
    }

    /// Whether the plan panics this trial. Pure function of `(index, seed)`.
    #[must_use]
    pub fn should_panic(&self, index: usize, seed: u64) -> bool {
        if self.panic_on_index == Some(index) {
            return true;
        }
        self.panic_one_in > 0 && splitmix64(seed ^ self.salt).is_multiple_of(self.panic_one_in)
    }

    /// Applies the plan to one trial: possibly sleeps, then possibly
    /// panics with a message carrying the trial index and seed.
    ///
    /// # Panics
    ///
    /// Panics when [`FaultPlan::should_panic`] selects this trial — that
    /// is the plan's entire purpose.
    pub fn apply(&self, index: usize, seed: u64) {
        if self.delay_one_in > 0
            && self.delay_micros > 0
            && splitmix64(seed ^ self.salt ^ 0xDE1A).is_multiple_of(self.delay_one_in)
        {
            std::thread::sleep(Duration::from_micros(self.delay_micros));
        }
        if self.should_panic(index, seed) {
            panic!("{INJECTED_FAULT_PREFIX} at trial {index} (seed {seed:#018x})");
        }
    }
}

/// Options for [`run_trials_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Worker threads (`0` = available parallelism).
    pub threads: usize,
    /// What to do when a trial panics.
    pub policy: FaultPolicy,
    /// Optional deterministic fault injection applied before each trial.
    pub fault: Option<FaultPlan>,
}

/// Runs `n` independent trials of `f` and returns a [`TrialReport`]:
/// results in trial order, with panicking trials handled per
/// `opts.policy`.
///
/// `f` receives `(trial_idx, seed)` with `seed = trial_seed(base_seed,
/// trial_idx)`; it must derive all its randomness from that seed. Under
/// that contract the report is bit-identical for every value of
/// `opts.threads` (`0` means all available cores).
///
/// # Panics
///
/// Under [`FaultPolicy::Propagate`], re-raises the panic of the
/// lowest-index failed trial with its index and seed prepended.
pub fn run_trials_with<T, F>(n: usize, base_seed: u64, opts: &RunOptions, f: F) -> TrialReport<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = resolve_threads(opts.threads).min(n.max(1));
    // Runs one trial under catch_unwind. `AssertUnwindSafe` is sound here
    // for the same reason it is in rayon-style runners: on Err we either
    // abort the whole run (Propagate) or record the failure and never read
    // this trial's partial state — each trial owns its state, derived only
    // from (index, seed).
    let one_trial = |idx: usize| -> Result<T, TrialError> {
        let seed = trial_seed(base_seed, idx as u64);
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &opts.fault {
                plan.apply(idx, seed);
            }
            f(idx, seed)
        }))
        .map_err(|payload| TrialError { index: idx, seed, message: panic_message(&*payload) })
    };

    let mut failures: Vec<TrialError>;
    let results: Vec<Option<T>>;
    if threads <= 1 {
        failures = Vec::new();
        let mut out = Vec::with_capacity(n);
        for idx in 0..n {
            match one_trial(idx) {
                Ok(v) => out.push(Some(v)),
                Err(e) => {
                    if opts.policy == FaultPolicy::Propagate {
                        panic!("{e}");
                    }
                    failures.push(e);
                    out.push(None);
                }
            }
        }
        results = out;
    } else {
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let failed: Mutex<Vec<TrialError>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    match one_trial(idx) {
                        Ok(v) => *slots[idx].lock().expect("trial slot poisoned") = Some(v),
                        Err(e) => {
                            failed.lock().expect("failure list poisoned").push(e);
                            if opts.policy == FaultPolicy::Propagate {
                                // No point finishing the run we are about
                                // to abandon; results are discarded.
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                });
            }
        });

        failures = failed.into_inner().expect("failure list poisoned");
        failures.sort_by_key(|e| e.index);
        if opts.policy == FaultPolicy::Propagate {
            if let Some(first) = failures.first() {
                panic!("{first}");
            }
        }
        results = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("trial slot poisoned"))
            .collect();
    }

    if opts.policy == FaultPolicy::RecordAndSkip {
        debug_assert!(
            results.iter().filter(|r| r.is_none()).count() == failures.len(),
            "every empty slot must have a matching failure"
        );
    }
    TrialReport { results, failures }
}

/// One trial's trace: the events its tracer captured, stamped with the
/// `(trial_index, seed)` pair that makes any line replayable in isolation
/// (`trial_seed(base_seed, trial_index)` reproduces the trial exactly).
///
/// Collected in trial order by [`run_trials_traced`], so the concatenated
/// trace of a run is bit-identical for every thread count — the same
/// guarantee the runner gives for results extends to observability.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialTrace {
    /// Index of the trial that produced these events.
    pub trial_index: usize,
    /// The trial's seed (`trial_seed(base_seed, trial_index)`).
    pub seed: u64,
    /// Retained events in emission order (per-trial `seq` starts at 0).
    pub events: Vec<TracedEvent>,
    /// Exact aggregates over every event the trial emitted, including any
    /// the ring sink evicted.
    pub metrics: MetricsRegistry,
    /// Events evicted by the trial's ring sink.
    pub dropped: u64,
}

/// Traced variant of [`run_trials_with`]: each trial additionally receives
/// a `&mut Tracer` — ring-buffered with `capacity.unwrap()` slots when
/// `capacity` is `Some`, disabled (and free) when `None` — and the traces
/// come back as [`TrialTrace`]s in trial order alongside the report.
///
/// The tracer is constructed, used and drained entirely inside the trial,
/// so trial isolation and thread-count invariance are preserved by
/// construction: a trace line's position depends only on
/// `(trial_index, seq)`, never on scheduling. With `capacity = None` the
/// trace list is empty and the only cost over [`run_trials_with`] is
/// passing the disabled tracer.
///
/// Trials that panic under [`FaultPolicy::RecordAndSkip`] contribute no
/// trace (their events unwound with them); their failure is still listed
/// in the report.
///
/// # Panics
///
/// Under [`FaultPolicy::Propagate`], re-raises the panic of the
/// lowest-index failed trial, exactly as [`run_trials_with`].
pub fn run_trials_traced<T, F>(
    n: usize,
    base_seed: u64,
    opts: &RunOptions,
    capacity: Option<usize>,
    f: F,
) -> (TrialReport<T>, Vec<TrialTrace>)
where
    T: Send,
    F: Fn(usize, u64, &mut Tracer) -> T + Sync,
{
    let combined = run_trials_with(n, base_seed, opts, |idx, seed| {
        let mut tracer = match capacity {
            Some(cap) => Tracer::ring(cap),
            None => Tracer::disabled(),
        };
        let value = f(idx, seed, &mut tracer);
        (value, tracer.drain())
    });

    let mut results = Vec::with_capacity(n);
    let mut traces = Vec::with_capacity(if capacity.is_some() { n } else { 0 });
    for (idx, slot) in combined.results.into_iter().enumerate() {
        match slot {
            Some((value, capture)) => {
                results.push(Some(value));
                if capacity.is_some() {
                    traces.push(TrialTrace {
                        trial_index: idx,
                        seed: trial_seed(base_seed, idx as u64),
                        events: capture.events,
                        metrics: capture.metrics,
                        dropped: capture.dropped,
                    });
                }
            }
            None => results.push(None),
        }
    }
    (TrialReport { results, failures: combined.failures }, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Default options (propagate panics, no injection) on `threads` workers.
    fn opts(threads: usize) -> RunOptions {
        RunOptions { threads, ..RunOptions::default() }
    }

    #[test]
    fn seeds_are_pure_and_distinct() {
        assert_eq!(trial_seed(7, 3), trial_seed(7, 3));
        let seeds: HashSet<u64> = (0..10_000).map(|i| trial_seed(0xB5C0_9E01, i)).collect();
        assert_eq!(seeds.len(), 10_000, "trial seeds must not collide in practice");
        // A low-entropy base seed must still give unrelated streams.
        assert_ne!(trial_seed(0, 0) & 0xFFFF_FFFF, trial_seed(1, 0) & 0xFFFF_FFFF);
    }

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs for the standard SplitMix64 finalizer,
        // state = input (output of the first next() call).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn results_come_back_in_trial_order() {
        let out = run_trials_with(100, 42, &opts(4), |idx, _seed| idx * 3).expect_complete();
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_invariant_across_thread_counts() {
        // The tentpole property: same base seed => identical results for
        // any thread count. Each trial folds its seed through some mixing
        // so ordering bugs would corrupt the comparison.
        let run = |threads| {
            run_trials_with(64, 0xDEAD_BEEF, &opts(threads), |idx, seed| {
                let mut acc = seed;
                for _ in 0..(idx % 7) {
                    acc = splitmix64(acc);
                }
                (idx, acc)
            })
            .expect_complete()
        };
        let reference = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
        let out = run_trials_with(16, 1, &opts(0), |_idx, seed| seed);
        assert_eq!(out, run_trials_with(16, 1, &opts(1), |_idx, seed| seed));
    }

    #[test]
    fn handles_zero_and_one_trials() {
        assert!(run_trials_with(0, 9, &opts(8), |idx, _| idx).expect_complete().is_empty());
        assert_eq!(run_trials_with(1, 9, &opts(8), |idx, _| idx).expect_complete(), vec![0]);
    }

    #[test]
    fn all_trials_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_trials_with(257, 5, &opts(8), |idx, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            idx
        })
        .expect_complete();
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let out = run_trials_with(3, 11, &opts(64), |idx, seed| (idx, seed)).expect_complete();
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].1, trial_seed(11, 2));
    }

    // --- fault tolerance ---

    /// Runs `body` under catch_unwind and returns the panic payload text.
    fn panic_text(body: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = catch_unwind(body).expect_err("body must panic");
        panic_message(&*payload)
    }

    #[test]
    fn propagating_panic_names_trial_index_and_seed() {
        for threads in [1, 4] {
            let msg = panic_text(move || {
                let _ = run_trials_with(16, 0xB5C0_9E01, &opts(threads), |idx, _seed| {
                    assert!(idx != 7, "boom");
                    idx
                });
            });
            let seed = trial_seed(0xB5C0_9E01, 7);
            assert!(msg.contains("trial 7"), "missing index in: {msg}");
            assert!(msg.contains(&format!("{seed:#018x}")), "missing seed in: {msg}");
            assert!(msg.contains("boom"), "missing payload in: {msg}");
        }
    }

    #[test]
    fn skip_policy_records_failures_and_keeps_going() {
        let opts = RunOptions { threads: 1, policy: FaultPolicy::RecordAndSkip, fault: None };
        let report = run_trials_with(10, 3, &opts, |idx, _seed| {
            assert!(idx % 4 != 1, "trial dies");
            idx * 2
        });
        assert_eq!(report.failures.len(), 3); // trials 1, 5, 9
        assert_eq!(report.failures.iter().map(|e| e.index).collect::<Vec<_>>(), vec![1, 5, 9]);
        for e in &report.failures {
            assert_eq!(e.seed, trial_seed(3, e.index as u64));
            assert!(e.message.contains("trial dies"));
        }
        assert_eq!(report.results.len(), 10);
        assert!(report.results[1].is_none() && report.results[5].is_none());
        assert_eq!(report.results[2], Some(4));
        assert!(!report.is_complete());
    }

    #[test]
    fn skip_policy_output_is_thread_count_invariant() {
        // Panics are seed-keyed and a seed-keyed delay shakes scheduling;
        // the report must still be identical for every thread count.
        let plan = FaultPlan::keyed(0xFA17).panic_one_in(5).delay_one_in(3, 200);
        let run = |threads| {
            let opts = RunOptions { threads, policy: FaultPolicy::RecordAndSkip, fault: Some(plan) };
            run_trials_with(48, 0xB5C0_9E01, &opts, |idx, seed| (idx, splitmix64(seed)))
        };
        let reference = run(1);
        assert!(!reference.is_complete(), "plan should fault some trials");
        assert!(reference.failures.len() < 48, "plan should not fault every trial");
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn fault_plan_is_deterministic_and_targeted() {
        let plan = FaultPlan::keyed(9).panic_on_index(4);
        assert!(plan.should_panic(4, 12345));
        assert!(!plan.should_panic(5, 12345));
        let msg = panic_text(move || plan.apply(4, trial_seed(1, 4)));
        assert!(msg.starts_with(INJECTED_FAULT_PREFIX));
        assert!(msg.contains("trial 4"));

        // Seed-keyed selection is a pure function of the seed.
        let keyed = FaultPlan::keyed(0xAB).panic_one_in(4);
        let hits: Vec<bool> = (0..64).map(|i| keyed.should_panic(i, trial_seed(7, i as u64))).collect();
        assert_eq!(
            hits,
            (0..64).map(|i| keyed.should_panic(i, trial_seed(7, i as u64))).collect::<Vec<_>>()
        );
        assert!(hits.iter().any(|&h| h) && !hits.iter().all(|&h| h));
    }

    // --- tracing ---

    use bscope_trace::TraceEvent;

    /// A deterministic trial body that emits through the tracer: the seed
    /// drives both the result and the emitted events.
    fn traced_body(idx: usize, seed: u64, tracer: &mut Tracer) -> u64 {
        let mut acc = seed;
        for round in 0..(idx % 5) + 1 {
            acc = splitmix64(acc);
            let latency = 60 + (acc % 100);
            tracer.emit_with(|| TraceEvent::Branch {
                ctx: 0,
                addr: 0x1000 + round as u64,
                taken: acc & 1 == 1,
                predicted_taken: acc & 2 == 2,
                mispredicted: acc & 3 == 3,
                two_level: false,
                btb_hit: true,
                latency,
            });
        }
        acc
    }

    #[test]
    fn traced_runner_matches_untraced_results_and_stamps_traces() {
        let opts = RunOptions::default();
        let (report, traces) = run_trials_traced(12, 0xB5C0_9E01, &opts, Some(64), traced_body);
        let plain = run_trials_with(12, 0xB5C0_9E01, &opts, |idx, seed| {
            traced_body(idx, seed, &mut Tracer::disabled())
        });
        assert_eq!(report, plain, "tracing must not change results");
        assert_eq!(traces.len(), 12);
        for (idx, t) in traces.iter().enumerate() {
            assert_eq!(t.trial_index, idx, "traces come back in trial order");
            assert_eq!(t.seed, trial_seed(0xB5C0_9E01, idx as u64), "stamped with the replay seed");
            assert_eq!(t.events.len(), idx % 5 + 1);
            assert_eq!(t.metrics.counter("branches"), (idx % 5 + 1) as u64);
            assert_eq!(t.events[0].seq, 0, "per-trial sequence numbers restart at zero");
        }
    }

    #[test]
    fn traces_are_thread_count_invariant() {
        let run = |threads| {
            let opts = RunOptions { threads, ..RunOptions::default() };
            run_trials_traced(24, 0xFACE, &opts, Some(64), traced_body)
        };
        let (ref_report, ref_traces) = run(1);
        for threads in [2, 3, 8] {
            let (report, traces) = run(threads);
            assert_eq!(report, ref_report, "threads={threads}");
            assert_eq!(traces, ref_traces, "threads={threads} trace diverged");
        }
    }

    #[test]
    fn no_capacity_means_no_traces_and_no_ring() {
        let calls = AtomicUsize::new(0);
        let opts = RunOptions::default();
        let (report, traces) = run_trials_traced(8, 5, &opts, None, |idx, seed, tracer| {
            assert!(!tracer.is_enabled(), "capacity=None hands trials a disabled tracer");
            calls.fetch_add(1, Ordering::Relaxed);
            traced_body(idx, seed, tracer)
        });
        assert!(traces.is_empty());
        assert_eq!(report.results.len(), 8);
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn failed_trials_contribute_no_trace_but_are_reported() {
        let plan = FaultPlan::keyed(0x7E57).panic_on_index(3);
        let opts =
            RunOptions { threads: 1, policy: FaultPolicy::RecordAndSkip, fault: Some(plan) };
        let (report, traces) = run_trials_traced(6, 9, &opts, Some(16), traced_body);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 3);
        assert!(report.results[3].is_none());
        assert_eq!(traces.len(), 5, "the failed trial's trace unwound with it");
        assert!(traces.iter().all(|t| t.trial_index != 3));
    }

    #[test]
    fn trial_error_display_is_replayable() {
        let e = TrialError { index: 12, seed: 0xABCD, message: "oops".into() };
        let s = e.to_string();
        assert!(s.contains("trial 12") && s.contains("0x000000000000abcd") && s.contains("oops"));
    }
}
