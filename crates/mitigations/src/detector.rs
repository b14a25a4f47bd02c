//! Attack-footprint detection (§10.2 "a class of solutions may focus on
//! detecting the attack footprint and invoking mitigations such as freezing
//! or killing the attacker process").

use bscope_os::{Pid, System};
use bscope_uarch::PerfCounters;

/// Verdict for one monitored window of a process's execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionSample {
    /// Branches the process retired during the window.
    pub branches: u64,
    /// Its misprediction rate in the window.
    pub misprediction_rate: f64,
    /// Whether this window matches the attack signature.
    pub flagged: bool,
}

/// A sampling detector watching a process's performance counters for the
/// BranchScope footprint.
///
/// The spy's stage-1 randomization code is pathological by design: long
/// runs of *pattern-free* branches whose misprediction rate is pinned near
/// 50 % — far above anything a trained predictor shows for real programs
/// (typically a few percent). The detector flags a process when a window
/// with enough branches sustains a misprediction rate above the threshold;
/// an OS (outside SGX) could then freeze or kill it, or an enclave could
/// remap itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackDetector {
    /// Minimum branches per window before a verdict is attempted.
    pub min_branches: u64,
    /// Misprediction rate above which a window is flagged.
    pub rate_threshold: f64,
    /// Consecutive flagged windows required to report an attack.
    pub windows_to_convict: u32,
}

impl AttackDetector {
    /// A configuration separating the spy (~50 % mispredictions) from
    /// ordinary workloads (<20 %).
    #[must_use]
    pub fn new() -> Self {
        AttackDetector { min_branches: 200, rate_threshold: 0.35, windows_to_convict: 3 }
    }

    /// Evaluates one monitoring window from two counter snapshots.
    #[must_use]
    pub fn evaluate_window(
        &self,
        before: &PerfCounters,
        after: &PerfCounters,
    ) -> DetectionSample {
        let delta = after.since(before);
        let rate = if delta.branches_retired == 0 {
            0.0
        } else {
            delta.branch_misses as f64 / delta.branches_retired as f64
        };
        DetectionSample {
            branches: delta.branches_retired,
            misprediction_rate: rate,
            flagged: delta.branches_retired >= self.min_branches && rate >= self.rate_threshold,
        }
    }

    /// Runs `windows` monitoring windows around `step`, which executes one
    /// quantum of the monitored process's work, and reports whether the
    /// process was convicted (enough consecutive flagged windows).
    pub fn monitor(
        &self,
        sys: &mut System,
        pid: Pid,
        windows: usize,
        mut step: impl FnMut(&mut System),
    ) -> (bool, Vec<DetectionSample>) {
        let mut samples = Vec::with_capacity(windows);
        let mut consecutive = 0u32;
        let mut convicted = false;
        for _ in 0..windows {
            let before = sys.cpu(pid).counters();
            step(sys);
            let after = sys.cpu(pid).counters();
            let sample = self.evaluate_window(&before, &after);
            consecutive = if sample.flagged { consecutive + 1 } else { 0 };
            convicted |= consecutive >= self.windows_to_convict;
            samples.push(sample);
        }
        (convicted, samples)
    }
}

impl Default for AttackDetector {
    fn default() -> Self {
        AttackDetector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::{MicroarchProfile, Outcome};
    use bscope_core::{AttackConfig, BranchScope};
    use bscope_os::AslrPolicy;

    #[test]
    fn spy_running_branchscope_is_convicted() {
        let profile = MicroarchProfile::skylake();
        let mut sys = System::new(profile.clone(), 0xDE7);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let target = sys.process(victim).vaddr_of(0x6d);
        let mut attack = BranchScope::new(AttackConfig::for_profile(&profile)).unwrap();

        let detector = AttackDetector::new();
        let (convicted, samples) = detector.monitor(&mut sys, spy, 8, |sys| {
            // One attack round per window: prime + victim + probe.
            attack.read_bit(sys, spy, target, |sys| {
                sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
            });
        });
        assert!(convicted, "the spy's random-branch prime is a blatant footprint: {samples:?}");
        assert!(samples.iter().filter(|s| s.flagged).count() >= 3);
    }

    #[test]
    fn ordinary_workload_is_not_flagged() {
        let mut sys = System::new(MicroarchProfile::skylake(), 0xBEB);
        let app = sys.spawn("app", AslrPolicy::Disabled);
        // A loop-heavy program: a few well-predicted branches repeated.
        let detector = AttackDetector::new();
        let (convicted, samples) = detector.monitor(&mut sys, app, 8, |sys| {
            let mut cpu = sys.cpu(app);
            for i in 0..300u64 {
                // 7 taken loop iterations, one not-taken exit, repeatedly.
                cpu.branch_at(0x50, Outcome::from_bool(i % 8 != 7));
            }
        });
        assert!(!convicted, "benign workload convicted: {samples:?}");
        let worst = samples
            .iter()
            .map(|s| s.misprediction_rate)
            .fold(0.0f64, f64::max);
        assert!(worst < 0.35, "benign misprediction rate too high: {worst}");
    }

    #[test]
    fn tiny_windows_are_inconclusive() {
        let detector = AttackDetector::new();
        let before = PerfCounters::new();
        let mut after = PerfCounters::new();
        for _ in 0..10 {
            after.record_branch(true);
        }
        let sample = detector.evaluate_window(&before, &after);
        assert!(!sample.flagged, "too few branches for a verdict");
        assert!((sample.misprediction_rate - 1.0).abs() < 1e-12);
    }
}
