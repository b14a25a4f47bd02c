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
//! There is one worker loop. Each worker claims the next trial index from
//! a shared atomic counter, so long and short trials interleave without
//! any static partitioning, and keeps its own `(index, result)` pairs; the
//! runner puts them back in trial order at the end. With one thread the
//! calling thread runs the loop and nothing is spawned; with more, each
//! worker is a scoped thread. Either way every trial takes the same path.
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
//! these paths in CI: it panics the trial with one index, so the injected
//! fault fires on the same trial, with the same seed, for every thread
//! count.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// Deterministic fault injection: panics the trial with index
/// `panic_on_index`, with a message carrying that trial's index and seed.
/// Which trial fails never depends on the thread count.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Index of the trial that panics.
    pub panic_on_index: usize,
}

/// Prefix of every panic message an armed [`FaultPlan`] raises.
const INJECTED_FAULT_PREFIX: &str = "injected fault";

impl FaultPlan {
    /// Applies the plan to one trial.
    ///
    /// # Panics
    ///
    /// Panics when `index` is the plan's trial — that is the plan's entire
    /// purpose.
    fn apply(&self, index: usize, seed: u64) {
        if self.panic_on_index == index {
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

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                break;
            }
            let result = one_trial(idx);
            if result.is_err() && opts.policy == FaultPolicy::Propagate {
                // No point finishing the run we are about to abandon.
                abort.store(true, Ordering::Relaxed);
            }
            done.push((idx, result));
        }
        done
    };
    // A lone worker is the calling thread, so one thread spawns nothing.
    // Otherwise every worker is a scoped thread and the calling thread only
    // collects: running trials on it as well measured a few percent slower
    // on the two-thread `covert_table2` benchmark workload.
    let mut done = if threads == 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    };
    done.sort_unstable_by_key(|&(idx, _)| idx);

    // In trial order, so Propagate re-raises the lowest-index failure.
    let mut results = Vec::with_capacity(done.len());
    let mut failures = Vec::new();
    for (_, result) in done {
        match result {
            Ok(v) => results.push(Some(v)),
            Err(e) if opts.policy == FaultPolicy::Propagate => panic!("{e}"),
            Err(e) => {
                failures.push(e);
                results.push(None);
            }
        }
    }
    TrialReport { results, failures }
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
    fn one_thread_runs_every_trial_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_trials_with(8, 2, &opts(1), |_, _| std::thread::current().id());
        assert!(out.expect_complete().iter().all(|&id| id == caller));
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
        assert!(!report.failures.is_empty());
    }

    #[test]
    fn skip_policy_output_is_thread_count_invariant() {
        // Panics are seed-keyed and a seed-keyed sleep in the trial shakes
        // scheduling; the report must still be identical for every thread
        // count.
        let run = |threads| {
            let opts = RunOptions { threads, policy: FaultPolicy::RecordAndSkip, fault: None };
            run_trials_with(48, 0xB5C0_9E01, &opts, |idx, seed| {
                if splitmix64(seed ^ 0xDE1A).is_multiple_of(3) {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                assert!(!splitmix64(seed ^ 0xFA17).is_multiple_of(5), "seed-keyed fault");
                (idx, splitmix64(seed))
            })
        };
        let reference = run(1);
        assert!(!reference.failures.is_empty(), "plan should fault some trials");
        assert!(reference.failures.len() < 48, "plan should not fault every trial");
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn fault_plan_panics_its_trial_at_every_thread_count() {
        let plan = FaultPlan { panic_on_index: 4 };
        plan.apply(5, 12345); // any other trial runs normally
        for threads in [1, 3] {
            let opts = RunOptions { threads, policy: FaultPolicy::RecordAndSkip, fault: Some(plan) };
            let report = run_trials_with(8, 1, &opts, |idx, _| idx);
            assert_eq!(report.failures.len(), 1, "threads={threads}");
            let e = &report.failures[0];
            assert_eq!((e.index, e.seed), (4, trial_seed(1, 4)));
            assert!(e.message.starts_with(INJECTED_FAULT_PREFIX));
            assert!(e.message.contains(&format!("trial 4 (seed {:#018x})", e.seed)));
        }
    }

    #[test]
    fn trial_error_display_is_replayable() {
        let e = TrialError { index: 12, seed: 0xABCD, message: "oops".into() };
        let s = e.to_string();
        assert!(s.contains("trial 12") && s.contains("0x000000000000abcd") && s.contains("oops"));
    }
}
