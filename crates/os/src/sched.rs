//! Victim-slowdown scheduling.

use crate::process::{Pid, Workload};
use crate::system::System;

/// Summary of one scheduled attack interleaving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Attack rounds (prime → victim slice → probe) executed.
    pub rounds: usize,
    /// Total victim steps granted across all rounds.
    pub victim_steps: usize,
}

/// Models the victim-slowdown scheduling the paper assumes (§3, §7): the
/// spy arranges — e.g. by abusing the Linux scheduler as in Gullasch et al.
/// or by a performance-degradation attack — that the victim advances only a
/// small, fixed number of steps between two spy turns.
///
/// One call to [`SlowdownScheduler::round`] is one attack iteration:
/// the spy's *pre* closure runs (stage 1, prime), the victim is granted its
/// slice (stage 2, typically exactly one secret branch), and the spy's
/// *post* closure runs (stage 3, probe).
///
/// ```
/// use bscope_bpu::{MicroarchProfile, Outcome};
/// use bscope_os::{AslrPolicy, CpuView, SlowdownScheduler, System, Workload};
///
/// struct OneBranch;
/// impl Workload for OneBranch {
///     fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
///         cpu.branch_at(0x6d, Outcome::Taken);
///         true
///     }
/// }
///
/// let mut sys = System::new(MicroarchProfile::skylake(), 9);
/// let victim = sys.spawn("victim", AslrPolicy::Disabled);
/// let sched = SlowdownScheduler::single_step();
/// let mut w = OneBranch;
/// let trace = sched.round(&mut sys, victim, &mut w, |_| {}, |_| {});
/// assert_eq!(trace.victim_steps, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowdownScheduler {
    victim_steps_per_slice: usize,
}

impl SlowdownScheduler {
    /// Scheduler granting the victim `steps` workload steps per slice.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    #[must_use]
    pub fn new(steps: usize) -> Self {
        assert!(steps > 0, "a schedule slice must grant at least one step");
        SlowdownScheduler { victim_steps_per_slice: steps }
    }

    /// The high-resolution setting: exactly one victim step per slice —
    /// "allow it to execute a single branch instruction during the context
    /// switch" (§7).
    #[must_use]
    pub fn single_step() -> Self {
        SlowdownScheduler::new(1)
    }

    /// Runs one attack round. Returns the trace for this round.
    pub fn round<W: Workload>(
        &self,
        sys: &mut System,
        victim: Pid,
        workload: &mut W,
        pre: impl FnOnce(&mut System),
        post: impl FnOnce(&mut System),
    ) -> ScheduleTrace {
        pre(sys);
        let mut cpu = sys.cpu(victim);
        let steps = workload.run(&mut cpu, self.victim_steps_per_slice);
        post(sys);
        ScheduleTrace { rounds: 1, victim_steps: steps }
    }

    /// Runs rounds until the workload completes or `max_rounds` is reached,
    /// invoking `pre`/`post` around every victim slice.
    pub fn run<W: Workload>(
        &self,
        sys: &mut System,
        victim: Pid,
        workload: &mut W,
        max_rounds: usize,
        mut pre: impl FnMut(&mut System),
        mut post: impl FnMut(&mut System),
    ) -> ScheduleTrace {
        let mut trace = ScheduleTrace::default();
        for _ in 0..max_rounds {
            let round = self.round(sys, victim, workload, &mut pre, &mut post);
            trace.rounds += round.rounds;
            trace.victim_steps += round.victim_steps;
            if round.victim_steps < self.victim_steps_per_slice {
                break; // workload finished mid-slice
            }
        }
        trace
    }
}

impl Default for SlowdownScheduler {
    fn default() -> Self {
        SlowdownScheduler::single_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::AslrPolicy;
    use crate::system::CpuView;
    use bscope_bpu::{MicroarchProfile, Outcome};

    struct CountedBranches {
        remaining: usize,
    }

    impl Workload for CountedBranches {
        fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
            if self.remaining == 0 {
                return false;
            }
            self.remaining -= 1;
            cpu.branch_at(0x100, Outcome::Taken);
            self.remaining > 0
        }
    }

    #[test]
    fn round_interleaves_pre_victim_post() {
        let mut sys = System::new(MicroarchProfile::haswell(), 7);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        let mut w = CountedBranches { remaining: 10 };
        let order = std::cell::RefCell::new(Vec::new());
        SlowdownScheduler::single_step().round(
            &mut sys,
            victim,
            &mut w,
            |_| order.borrow_mut().push("pre"),
            |_| order.borrow_mut().push("post"),
        );
        assert_eq!(*order.borrow(), ["pre", "post"]);
        let _ = spy;
        assert_eq!(w.remaining, 9, "exactly one victim step granted");
    }

    #[test]
    fn run_stops_when_workload_finishes() {
        let mut sys = System::new(MicroarchProfile::haswell(), 8);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let mut w = CountedBranches { remaining: 3 };
        let trace = SlowdownScheduler::new(2).run(&mut sys, victim, &mut w, 100, |_| {}, |_| {});
        assert_eq!(trace.victim_steps, 3);
        assert_eq!(trace.rounds, 2, "3 steps at 2 per slice = 2 rounds");
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_step_slice_is_rejected() {
        let _ = SlowdownScheduler::new(0);
    }
}
