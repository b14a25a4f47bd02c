//! Timing-based branch-event detection (paper §8).
//!
//! When the attacker cannot read performance counters, mispredictions are
//! detected through their latency cost via `rdtscp`: a mispredicted branch
//! restarts the pipeline and costs tens of extra cycles (Fig. 7). Because
//! the *first* execution of a branch is polluted by instruction-cache
//! misses, the paper executes each branch twice and relies on the second
//! measurement, and amortises residual noise by averaging several
//! measurements (Fig. 8).

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
    pub fn from_samples(hits: &[u64], misses: &[u64]) -> Result<Self, AttackError> {
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
    /// Propagates [`TimingDetector::from_samples`] errors.
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

    /// Classifies the mean of `measurements`: `true` = mispredicted.
    ///
    /// # Panics
    ///
    /// Panics if `measurements` is empty.
    #[must_use]
    pub fn classify_mean(&self, measurements: &[u64]) -> bool {
        assert!(!measurements.is_empty(), "need at least one measurement");
        let mean = measurements.iter().sum::<u64>() as f64 / measurements.len() as f64;
        mean > self.threshold
    }

    /// Runs the stage-3 probe through the timing channel instead of the
    /// performance counters: each probing branch's latency is classified
    /// individually.
    pub fn probe_with_timing(
        &self,
        cpu: &mut CpuView<'_>,
        addr: VirtAddr,
        kind: ProbeKind,
    ) -> ProbePattern {
        let first = cpu.branch_at_abs(addr, kind.outcome()).latency;
        let second = cpu.branch_at_abs(addr, kind.outcome()).latency;
        ProbePattern::from_hits(!self.classify_mean(&[first]), !self.classify_mean(&[second]))
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
    let base = 0x100_0000u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Every sample uses a branch address never timed before (derived
        // from the monotone retired-branch count), so stale PHT / BTB /
        // selector state from earlier samples cannot corrupt the labels.
        let addr = base + sys.cpu(spy).counters().branches_retired * 7;
        {
            let mut cpu = sys.cpu(spy);
            for _ in 0..3 {
                cpu.branch_at_abs(addr, Outcome::Taken);
            }
        }
        if cold {
            sys.core_mut().icache_mut().flush();
        }
        let outcome = if mispredicted { Outcome::NotTaken } else { Outcome::Taken };
        out.push(sys.cpu(spy).branch_at_abs(addr, outcome).latency);
    }
    out
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

/// Resets the non-PHT front-end context of a characterization branch:
/// evicts its BTB entry and clears its selector entry, the state a fresh
/// prime stage would leave behind. Characterization experiments (Figs. 7–9)
/// use this between repetitions so they measure the PHT effect in
/// isolation, exactly as the paper's controlled single-process experiments
/// do.
fn reset_branch_context(sys: &mut System, addr: VirtAddr) {
    let bpu = sys.core_mut().bpu_mut();
    bpu.btb_mut().evict(addr);
    if let Some(hybrid) = bpu.as_hybrid_mut() {
        hybrid.selector_mut().set_level(addr, 0);
    }
}

/// Measures probe-pair latencies as a function of the starting PHT state
/// (Fig. 9): the entry is repeatedly forced into `state`, probed with
/// `kind`, and both measurements are collected.
pub fn probe_latency_by_state(
    sys: &mut System,
    spy: Pid,
    state: PhtState,
    kind: ProbeKind,
    reps: usize,
) -> ProbeLatencyStats {
    let addr = 0x7d_0000u64;
    let counter_kind = sys.core().profile().counter_kind;
    let mut firsts = Vec::with_capacity(reps);
    let mut seconds = Vec::with_capacity(reps);
    let mut expected = ProbePattern::HH;
    for _ in 0..reps {
        reset_branch_context(sys, addr);
        sys.core_mut().bpu_mut().set_pht_state(addr, state);
        // Expected pattern from the FSM model (ground truth for the figure
        // annotation).
        let mut c = counter_kind.counter_in(state);
        let f = c.access(kind.outcome());
        let s = c.access(kind.outcome());
        expected = ProbePattern::from_hits(f, s);
        let mut cpu = sys.cpu(spy);
        firsts.push(cpu.branch_at_abs(addr, kind.outcome()).latency);
        seconds.push(cpu.branch_at_abs(addr, kind.outcome()).latency);
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
pub fn detection_error_rate(
    sys: &mut System,
    spy: Pid,
    k: usize,
    trials: usize,
    cold: bool,
) -> f64 {
    let mut wrong = 0usize;
    for _ in 0..trials {
        let hits = collect_latency_samples(sys, spy, k, false, cold);
        let misses = collect_latency_samples(sys, spy, k, true, cold);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        if mean(&hits) >= mean(&misses) {
            wrong += 1;
        }
    }
    wrong as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::MicroarchProfile;
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
        assert!(det.classify_mean(&[150]));
        assert!(!det.classify_mean(&[80]));
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
            super::reset_branch_context(&mut sys, addr);
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
    #[should_panic(expected = "at least one measurement")]
    fn classify_empty_panics() {
        let det = TimingDetector::from_samples(&[80], &[130]).unwrap();
        let _ = det.classify_mean(&[]);
    }
}
