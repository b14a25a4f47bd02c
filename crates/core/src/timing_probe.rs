//! Timing-based branch-event detection (paper §8).
//!
//! When the attacker cannot read performance counters, mispredictions are
//! detected through their latency cost via `rdtscp`: a mispredicted branch
//! restarts the pipeline and costs tens of extra cycles (Fig. 7). Because
//! the *first* execution of a branch is polluted by instruction-cache
//! misses, the paper executes each branch twice and relies on the second
//! measurement, and amortises residual noise by averaging several
//! measurements (Fig. 8).

use crate::decode::run_probe;
use crate::error::AttackError;
use crate::probe::{ProbeKind, ProbePattern};
use bscope_bpu::{Outcome, PhtState, VirtAddr};
use bscope_os::{CpuView, Pid, System};

/// Classifier separating correctly-predicted from mispredicted branch
/// latencies.
///
/// Calibrated from labelled samples (the attacker can generate those on its
/// own branches: train an entry to a strong state, then execute agreeing /
/// disagreeing branches and time them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingDetector {
    threshold: f64,
}

impl TimingDetector {
    /// Builds a detector from labelled latency samples: the threshold is
    /// the midpoint of the two sample means.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidParameter`] if either sample set is
    /// empty or the means are not separated (hits at least as slow as
    /// misses).
    fn from_samples(hits: &[u64], misses: &[u64]) -> Result<Self, AttackError> {
        if hits.is_empty() || misses.is_empty() {
            return Err(AttackError::InvalidParameter(
                "calibration needs at least one sample of each class".to_owned(),
            ));
        }
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let (mh, mm) = (mean(hits), mean(misses));
        if mh >= mm {
            return Err(AttackError::InvalidParameter(format!(
                "hit mean {mh:.1} not below miss mean {mm:.1}; latencies are not separable"
            )));
        }
        Ok(TimingDetector { threshold: (mh + mm) / 2.0 })
    }

    /// Calibrates against the live machine by timing branches with known
    /// prediction outcomes (the pre-attack step an attacker would run).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidParameter`] if `samples` is zero or
    /// the hit and miss latency means are not separated (hits at least as
    /// slow as misses).
    pub fn calibrate(
        sys: &mut System,
        spy: Pid,
        samples: usize,
    ) -> Result<Self, AttackError> {
        let hits = collect_latency_samples(sys, spy, samples, false, false);
        let misses = collect_latency_samples(sys, spy, samples, true, false);
        TimingDetector::from_samples(&hits, &misses)
    }

    /// Decision threshold in cycles.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Runs the stage-3 probe through the timing channel instead of the
    /// performance counters: each probing branch hit if its latency is at
    /// most the threshold.
    pub fn probe_with_timing(
        &self,
        cpu: &mut CpuView<'_>,
        addr: VirtAddr,
        kind: ProbeKind,
    ) -> ProbePattern {
        let first = cpu.timed_branch_at_abs(addr, kind.outcome());
        let second = cpu.timed_branch_at_abs(addr, kind.outcome());
        let hit = |latency: u64| latency as f64 <= self.threshold;
        ProbePattern::from_hits(hit(first), hit(second))
    }
}

/// Generates `n` labelled latency samples on the live machine:
/// `mispredicted` selects whether the timed branch agrees with its trained
/// (strongly-taken) entry; `cold` flushes the i-cache before the timed
/// execution so it is a first-execution measurement (Fig. 7/8's "1st
/// measurement" condition).
///
/// Each sample uses a fresh branch address so entries and cache lines start
/// untouched.
#[must_use]
pub fn collect_latency_samples(
    sys: &mut System,
    spy: Pid,
    n: usize,
    mispredicted: bool,
    cold: bool,
) -> Vec<u64> {
    (0..n).map(|_| latency_sample(sys, spy, mispredicted, cold)).collect()
}

/// One sample of [`collect_latency_samples`]: trains a fresh branch
/// strongly taken with a three-branch block, optionally flushes the
/// i-cache, then times the branch once more.
fn latency_sample(sys: &mut System, spy: Pid, mispredicted: bool, cold: bool) -> u64 {
    // A branch address never timed before (derived from the monotone
    // retired-branch count), so stale PHT / BTB / selector state from
    // earlier samples cannot corrupt the label.
    let addr = 0x100_0000 + sys.cpu(spy).counters().branches_retired * 7;
    sys.cpu(spy).block_at_abs(addr, &[(0, Outcome::Taken); 3]);
    if cold {
        sys.core_mut().icache_mut().flush();
    }
    let outcome = if mispredicted { Outcome::NotTaken } else { Outcome::Taken };
    sys.cpu(spy).timed_branch_at_abs(addr, outcome)
}

/// Latency statistics of the two probing branches for a given PHT entry
/// state (one bar group of Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeLatencyStats {
    /// State the entry was set to before each probe pair.
    pub state: PhtState,
    /// Mean latency of the first probing branch.
    pub first_mean: f64,
    /// Standard deviation of the first probing branch latency.
    pub first_std: f64,
    /// Mean latency of the second probing branch.
    pub second_mean: f64,
    /// Standard deviation of the second probing branch latency.
    pub second_std: f64,
    /// Expected prediction pattern for this state and probe direction.
    pub expected: ProbePattern,
}

/// Measures probe-pair latencies as a function of the starting PHT state
/// (Fig. 9): the entry is repeatedly forced into `state`, probed with
/// `kind`, and both measurements are collected.
///
/// # Panics
///
/// Panics if `reps` is zero: there would be no latency to average.
pub fn probe_latency_by_state(
    sys: &mut System,
    spy: Pid,
    state: PhtState,
    kind: ProbeKind,
    reps: usize,
) -> ProbeLatencyStats {
    assert!(reps > 0, "need at least one probe pair");
    let addr = 0x7d_0000u64;
    // Expected pattern from the FSM model (ground truth for the figure
    // annotation).
    let expected = run_probe(&mut sys.core().profile().counter_kind.counter_in(state), kind);
    let mut firsts = Vec::with_capacity(reps);
    let mut seconds = Vec::with_capacity(reps);
    for _ in 0..reps {
        // Evict the BTB entry and restart the chooser — the state a fresh
        // prime stage leaves behind — so the figure measures the PHT effect
        // in isolation, as the paper's controlled experiments do.
        sys.core_mut().bpu_mut().forget_branch(addr);
        sys.core_mut().bpu_mut().set_pht_state(addr, state);
        let mut cpu = sys.cpu(spy);
        firsts.push(cpu.timed_branch_at_abs(addr, kind.outcome()));
        seconds.push(cpu.timed_branch_at_abs(addr, kind.outcome()));
    }
    let stats = |v: &[u64]| {
        let mean = v.iter().sum::<u64>() as f64 / v.len() as f64;
        let var = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
        (mean, var.sqrt())
    };
    let (first_mean, first_std) = stats(&firsts);
    let (second_mean, second_std) = stats(&seconds);
    ProbeLatencyStats { state, first_mean, first_std, second_mean, second_std, expected }
}

/// Detection error rate of the timing channel as a function of the number
/// of averaged measurements (one point of Fig. 8): the fraction of trials
/// in which the mean of `k` hit-latencies is at least the mean of `k`
/// miss-latencies.
///
/// # Panics
///
/// Panics if `k` or `trials` is zero: there would be no measurement to
/// average or no trial to count.
pub fn detection_error_rate(
    sys: &mut System,
    spy: Pid,
    k: usize,
    trials: usize,
    cold: bool,
) -> f64 {
    assert!(
        k > 0 && trials > 0,
        "need at least one measurement and one trial, got k {k}, trials {trials}"
    );
    let mut mean = |mispredicted| {
        (0..k).map(|_| latency_sample(sys, spy, mispredicted, cold)).sum::<u64>() as f64 / k as f64
    };
    // The hit samples of a trial are drawn before its miss samples.
    let wrong = (0..trials).filter(|_| mean(false) >= mean(true)).count();
    wrong as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::run_spy;
    use bscope_bpu::{BackendKind, MicroarchProfile};
    use bscope_os::AslrPolicy;

    fn setup() -> (System, Pid) {
        let mut sys = System::new(MicroarchProfile::skylake(), 44);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        (sys, spy)
    }

    #[test]
    fn calibration_separates_classes() {
        let (mut sys, spy) = setup();
        let det = TimingDetector::calibrate(&mut sys, spy, 500).unwrap();
        // Threshold must sit between the Fig. 7 means (≈85 and ≈135).
        assert!((90.0..132.0).contains(&det.threshold()), "threshold {}", det.threshold());
    }

    #[test]
    fn from_samples_validates() {
        assert!(TimingDetector::from_samples(&[], &[100]).is_err());
        assert!(TimingDetector::from_samples(&[100], &[90]).is_err(), "inverted means");
        let det = TimingDetector::from_samples(&[80, 90], &[130, 140]).unwrap();
        assert!((det.threshold() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn single_warm_measurement_error_near_ten_percent() {
        // Fig. 8: the second (warm) measurement misclassifies ≈10 % of
        // single-shot trials.
        let (mut sys, spy) = setup();
        let rate = detection_error_rate(&mut sys, spy, 1, 2_000, false);
        assert!((0.04..0.20).contains(&rate), "warm single-shot error {rate:.3}");
    }

    #[test]
    fn cold_measurements_are_less_reliable() {
        let (mut sys, spy) = setup();
        let cold = detection_error_rate(&mut sys, spy, 1, 1_500, true);
        let warm = detection_error_rate(&mut sys, spy, 1, 1_500, false);
        assert!(cold > warm, "cold {cold:.3} must exceed warm {warm:.3}");
        assert!((0.10..0.40).contains(&cold), "cold error {cold:.3}");
    }

    #[test]
    fn averaging_drives_error_toward_zero() {
        let (mut sys, spy) = setup();
        let e10 = detection_error_rate(&mut sys, spy, 10, 800, false);
        assert!(e10 < 0.02, "ten averaged measurements leave {e10:.3}");
    }

    #[test]
    fn timing_probe_matches_counter_probe_statistically() {
        let (mut sys, spy) = setup();
        let det = TimingDetector::calibrate(&mut sys, spy, 800).unwrap();
        let addr = 0x7e_0000u64;
        let mut correct = 0;
        let trials = 300;
        for i in 0..trials {
            let state = if i % 2 == 0 { PhtState::StronglyNotTaken } else { PhtState::WeaklyNotTaken };
            sys.core_mut().bpu_mut().forget_branch(addr);
            sys.core_mut().bpu_mut().set_pht_state(addr, state);
            let want = match state {
                PhtState::StronglyNotTaken => ProbePattern::MM,
                _ => ProbePattern::MH,
            };
            let got = det.probe_with_timing(&mut sys.cpu(spy), addr, ProbeKind::TakenTaken);
            if got == want {
                correct += 1;
            }
        }
        let accuracy = f64::from(correct) / f64::from(trials);
        assert!(accuracy > 0.6, "per-branch timing probe accuracy {accuracy:.3}");
    }

    #[test]
    fn figure9_states_are_separable_by_second_measurement() {
        let (mut sys, spy) = setup();
        // Probing WN and SN with TT: first measurements both mispredict,
        // second measurement differs (MH vs MM) — Fig. 9's separation.
        let wn = probe_latency_by_state(&mut sys, spy, PhtState::WeaklyNotTaken, ProbeKind::TakenTaken, 2_000);
        let sn = probe_latency_by_state(&mut sys, spy, PhtState::StronglyNotTaken, ProbeKind::TakenTaken, 2_000);
        assert_eq!(wn.expected, ProbePattern::MH);
        assert_eq!(sn.expected, ProbePattern::MM);
        assert!(
            sn.second_mean - wn.second_mean > 30.0,
            "second-probe means must separate: SN {:.1} vs WN {:.1}",
            sn.second_mean,
            wn.second_mean
        );
        assert!((sn.first_mean - wn.first_mean).abs() < 10.0, "first probes both mispredict");
    }

    #[test]
    fn training_block_matches_the_per_branch_fallback() {
        // A ring tracer sends every training block down
        // `SimCore::execute_block`'s per-branch fallback; without it the
        // blocks take the fast path. Both must measure the same latencies
        // and leave the same machine behind.
        let run = |traced| {
            let (mut latencies, mut rates) = (Vec::new(), Vec::new());
            let (state, _, branches) = run_spy(BackendKind::Hybrid, traced, |sys, spy, _| {
                for cold in [true, false] {
                    for mispredicted in [false, true] {
                        latencies.extend(collect_latency_samples(sys, spy, 40, mispredicted, cold));
                    }
                }
                for cold in [true, false] {
                    rates.push(detection_error_rate(sys, spy, 3, 20, cold));
                }
            });
            (state, branches.len(), latencies, rates)
        };
        let (traced_state, traced_branches, traced_latencies, traced_rates) = run(true);
        let (fast_state, _, fast_latencies, fast_rates) = run(false);
        // 160 collected samples and 2 × 2 × 20 × 3 detection samples, each
        // three training branches and one timed branch.
        assert_eq!(traced_branches, (160 + 240) * 4, "the fallback ran branch by branch");
        assert_eq!(traced_latencies, fast_latencies);
        assert_eq!(traced_rates, fast_rates);
        assert_eq!(traced_state, fast_state);
    }

    #[test]
    #[should_panic(expected = "at least one measurement and one trial")]
    fn detection_without_measurements_panics() {
        let (mut sys, spy) = setup();
        let _ = detection_error_rate(&mut sys, spy, 0, 10, false);
    }

    #[test]
    #[should_panic(expected = "at least one measurement and one trial")]
    fn detection_without_trials_panics() {
        let (mut sys, spy) = setup();
        let _ = detection_error_rate(&mut sys, spy, 1, 0, false);
    }

    #[test]
    #[should_panic(expected = "at least one probe pair")]
    fn probe_latency_without_reps_panics() {
        let (mut sys, spy) = setup();
        let _ = probe_latency_by_state(&mut sys, spy, PhtState::StronglyTaken, ProbeKind::TakenTaken, 0);
    }
}
