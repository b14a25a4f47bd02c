//! The system: one shared core plus a process table.

use crate::process::{AslrPolicy, Pid, Process};
use bscope_bpu::{BackendKind, MicroarchProfile, Outcome, VirtAddr};
use bscope_uarch::{
    BpuPolicy, BranchEvent, ConfigError, MeasurementFuzz, NoiseConfig, PerfCounters, SimCore,
    Tracer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A single-core system hosting co-resident processes.
///
/// All processes share the core's BPU (the virtual-core sharing of the
/// paper's threat model); each gets its own hardware context for
/// performance counters and its own address-space base.
///
/// ```
/// use bscope_bpu::{MicroarchProfile, Outcome};
/// use bscope_os::{AslrPolicy, System};
///
/// let mut sys = System::new(MicroarchProfile::skylake(), 42);
/// let victim = sys.spawn("victim", AslrPolicy::Disabled);
/// let spy = sys.spawn("spy", AslrPolicy::Disabled);
/// // Same offset in both processes maps to the same virtual address —
/// // the collision placement from the paper's §7.
/// assert_eq!(sys.process(victim).vaddr_of(0x6d), sys.process(spy).vaddr_of(0x6d));
/// sys.cpu(spy).branch_at(0x6d, Outcome::Taken);
/// ```
#[derive(Debug)]
pub struct System {
    core: SimCore,
    processes: Vec<Process>,
    rng: StdRng,
}

impl System {
    /// Creates a single-core system of the given microarchitecture — the
    /// co-resident setting of the paper's threat model (§3) — on the
    /// paper's hybrid predictor.
    #[must_use]
    pub fn new(profile: MicroarchProfile, seed: u64) -> Self {
        System::with_backend(profile, BackendKind::Hybrid, seed)
    }

    /// Creates a single-core system on an explicit predictor backend;
    /// [`System::new`] is the [`BackendKind::Hybrid`] special case.
    #[must_use]
    pub fn with_backend(profile: MicroarchProfile, backend: BackendKind, seed: u64) -> Self {
        System {
            core: SimCore::with_backend(backend.build(profile), seed),
            processes: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5353_5353),
        }
    }

    /// Enables background noise on the core, or disables it with `None`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`NoiseConfig::validate`], leaving
    /// the previous noise configuration in place.
    pub fn set_noise(&mut self, noise: Option<NoiseConfig>) -> Result<(), ConfigError> {
        self.core.set_noise(noise)
    }

    /// Builder-style noise configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`NoiseConfig::validate`].
    pub fn with_noise(mut self, noise: NoiseConfig) -> Result<Self, ConfigError> {
        self.set_noise(Some(noise))?;
        Ok(self)
    }

    /// Installs a hardware mitigation policy on the core (§10.2).
    pub fn set_policy(&mut self, policy: Box<dyn BpuPolicy>) {
        self.core.set_policy(policy);
    }

    /// Installs or removes measurement-channel fuzzing on the core (§10.2).
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`MeasurementFuzz::validate`],
    /// leaving the previous fuzz configuration in place.
    pub fn set_measurement_fuzz(&mut self, fuzz: Option<MeasurementFuzz>) -> Result<(), ConfigError> {
        self.core.set_measurement_fuzz(fuzz)
    }

    /// Spawns a process on the core and returns its pid.
    pub fn spawn(&mut self, name: &str, aslr: AslrPolicy) -> Pid {
        let pid = Pid(self.processes.len() as u32);
        let ctx = pid.0; // one hardware context per process in this model
        self.processes.push(Process::new(ctx, name, aslr, &mut self.rng));
        pid
    }

    /// Process metadata.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned by this system.
    #[must_use]
    pub fn process(&self, pid: Pid) -> &Process {
        &self.processes[pid.0 as usize]
    }

    /// Number of spawned processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// A CPU view for `pid`: the handle through which the process executes
    /// branches on the shared core.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned by this system.
    pub fn cpu(&mut self, pid: Pid) -> CpuView<'_> {
        CpuView { core: &mut self.core, proc: &self.processes[pid.0 as usize] }
    }

    /// Direct access to the shared core.
    #[must_use]
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// Exclusive access to the shared core.
    #[must_use]
    pub fn core_mut(&mut self) -> &mut SimCore {
        &mut self.core
    }

    /// Installs `tracer` on the core for the duration of `body`, then
    /// hands it back so the caller can drain its capture. With a disabled
    /// tracer this is a pair of no-op moves. (A panicking `body` loses the
    /// capture.)
    pub fn with_tracer<T>(
        &mut self,
        tracer: &mut Tracer,
        body: impl FnOnce(&mut System) -> T,
    ) -> T {
        self.core.set_tracer(std::mem::take(tracer));
        let out = body(self);
        *tracer = self.core.take_tracer();
        out
    }
}

/// A process's handle onto the shared core.
///
/// Mirrors what user-space code can actually do on the paper's machines:
/// execute its own branches (at process-relative offsets or absolute
/// addresses), read the timestamp counter, and read its own performance
/// counters. It cannot touch other processes' memory — that is the secret
/// the attack must infer through the BPU.
#[derive(Debug)]
pub struct CpuView<'a> {
    core: &'a mut SimCore,
    proc: &'a Process,
}

impl CpuView<'_> {
    /// Executes a conditional branch at a code-segment offset. Untimed:
    /// see [`CpuView::timed_branch_at_abs`] for an `rdtscp`-bracketed one.
    pub fn branch_at(&mut self, offset: u64, outcome: Outcome) -> BranchEvent {
        let addr = self.proc.vaddr_of(offset);
        self.core.execute_branch_in(self.proc.ctx(), addr, outcome, None)
    }

    /// Executes a conditional branch at an absolute virtual address —
    /// the spy uses this after placing its code to collide with the victim.
    pub fn branch_at_abs(&mut self, addr: VirtAddr, outcome: Outcome) -> BranchEvent {
        self.core.execute_branch_in(self.proc.ctx(), addr, outcome, None)
    }

    /// Executes a straight-line block of conditional branches at absolute
    /// addresses `base + offset`, each resolving to its outcome — the same
    /// as one [`CpuView::branch_at_abs`] per branch, through
    /// [`SimCore::execute_block`].
    pub fn block_at_abs(&mut self, base: VirtAddr, branches: &[(u32, Outcome)]) {
        self.core.execute_block(self.proc.ctx(), base, branches);
    }

    /// Executes a conditional branch at an absolute virtual address between
    /// two `rdtscp` reads and returns what the pair measured (§8, Fig. 7).
    /// The branch itself behaves exactly as under
    /// [`CpuView::branch_at_abs`].
    pub fn timed_branch_at_abs(&mut self, addr: VirtAddr, outcome: Outcome) -> u64 {
        self.core.execute_timed_branch_in(self.proc.ctx(), addr, outcome).1
    }

    /// Reads the timestamp counter (`rdtscp`).
    #[must_use]
    pub fn rdtscp(&self) -> u64 {
        self.core.rdtscp()
    }

    /// The microarchitecture this process runs on — public knowledge the
    /// attacker uses to size its priming code (`/proc/cpuinfo` equivalent).
    #[must_use]
    pub fn profile(&self) -> &bscope_bpu::MicroarchProfile {
        self.core.profile()
    }

    /// Reads this process's performance counters.
    #[must_use]
    pub fn counters(&self) -> PerfCounters {
        self.core.counters(self.proc.ctx())
    }

    /// Spends `cycles` cycles of non-branch work.
    pub fn work(&mut self, cycles: u64) {
        self.core.advance_cycles(cycles);
    }

    /// Escape hatch to the core for attack tooling that documents its own
    /// realism constraints (e.g. the stability experiment's ground-truth
    /// checks in tests).
    #[must_use]
    pub fn core_mut(&mut self) -> &mut SimCore {
        self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bscope_bpu::PhtState;

    #[test]
    fn processes_get_distinct_contexts() {
        let mut sys = System::new(MicroarchProfile::haswell(), 1);
        let a = sys.spawn("a", AslrPolicy::Disabled);
        let b = sys.spawn("b", AslrPolicy::Disabled);
        assert_ne!(sys.process(a).ctx(), sys.process(b).ctx());
        assert_eq!(sys.process_count(), 2);
    }

    #[test]
    fn counters_are_isolated_between_processes() {
        let mut sys = System::new(MicroarchProfile::haswell(), 2);
        let a = sys.spawn("a", AslrPolicy::Disabled);
        let b = sys.spawn("b", AslrPolicy::Disabled);
        sys.cpu(a).branch_at(0x10, Outcome::Taken);
        sys.cpu(a).branch_at(0x10, Outcome::Taken);
        sys.cpu(b).branch_at(0x10, Outcome::Taken);
        assert_eq!(sys.cpu(a).counters().branches_retired, 2);
        assert_eq!(sys.cpu(b).counters().branches_retired, 1);
    }

    #[test]
    fn same_offset_same_entry_across_processes() {
        // The collision that carries the whole attack: both processes place
        // a branch at the same virtual address (same offset, no ASLR) and
        // hit the same bimodal PHT entry.
        let mut sys = System::new(MicroarchProfile::haswell(), 3);
        let victim = sys.spawn("victim", AslrPolicy::Disabled);
        let spy = sys.spawn("spy", AslrPolicy::Disabled);
        for _ in 0..3 {
            sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
        }
        let spy_addr = sys.process(spy).vaddr_of(0x6d);
        assert_eq!(sys.core().bpu().pht_state(spy_addr), PhtState::StronglyTaken);
    }

    #[test]
    fn aslr_breaks_trivial_collisions() {
        let mut sys = System::new(MicroarchProfile::haswell(), 4);
        let victim = sys.spawn("victim", AslrPolicy::Randomized);
        let spy = sys.spawn("spy", AslrPolicy::Randomized);
        assert_ne!(
            sys.process(victim).vaddr_of(0x6d),
            sys.process(spy).vaddr_of(0x6d),
        );
    }

    /// BPU branches (foreground plus background noise) behind `n`
    /// foreground branches of `pid`.
    fn bpu_branches_behind(sys: &mut System, pid: Pid, n: u64) -> u64 {
        let before = sys.core().bpu().stats().branches;
        for i in 0..n {
            sys.cpu(pid).branch_at(i * 3, Outcome::Taken);
        }
        sys.core().bpu().stats().branches - before
    }

    #[test]
    fn invalid_configuration_is_a_typed_error_and_keeps_the_old_one() {
        let mut sys =
            System::new(MicroarchProfile::skylake(), 7).with_noise(NoiseConfig::heavy()).unwrap();
        let p = sys.spawn("spy", AslrPolicy::Disabled);
        let bad_noise = NoiseConfig { taken_bias: 2.0, ..NoiseConfig::heavy() };
        assert!(matches!(
            sys.set_noise(Some(bad_noise)),
            Err(ConfigError::OutOfRange { config: "NoiseConfig", field: "taken_bias", .. })
        ));
        let bad_fuzz = MeasurementFuzz { counter_flip_probability: 1.5, extra_timing_sigma: 0.0 };
        assert!(matches!(
            sys.set_measurement_fuzz(Some(bad_fuzz)),
            Err(ConfigError::OutOfRange { config: "MeasurementFuzz", .. })
        ));
        assert!(bpu_branches_behind(&mut sys, p, 100) > 100, "the heavy noise keeps running");
    }

    #[test]
    fn set_noise_none_silences_background() {
        let mut sys =
            System::new(MicroarchProfile::skylake(), 4).with_noise(NoiseConfig::heavy()).unwrap();
        let p = sys.spawn("spy", AslrPolicy::Disabled);
        sys.set_noise(None).unwrap();
        assert_eq!(bpu_branches_behind(&mut sys, p, 100), 100, "no noise branches once disabled");
    }

    #[test]
    fn work_advances_clock() {
        let mut sys = System::new(MicroarchProfile::skylake(), 6);
        let p = sys.spawn("p", AslrPolicy::Disabled);
        let t0 = sys.cpu(p).rdtscp();
        sys.cpu(p).work(1_000);
        assert_eq!(sys.cpu(p).rdtscp(), t0 + 1_000);
    }
}
