//! The system: one shared core plus a process table.

use crate::process::{AslrPolicy, Pid, Process};
use bscope_bpu::{BackendKind, MicroarchProfile, Outcome, VirtAddr};
use bscope_uarch::{BranchEvent, NoiseConfig, PerfCounters, SimCore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

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
    cores: Vec<SimCore>,
    processes: Vec<Process>,
    core_of: Vec<usize>,
    rng: StdRng,
}

impl System {
    /// Creates a single-core system of the given microarchitecture — the
    /// co-resident setting of the paper's threat model (§3) — on the
    /// paper's hybrid predictor.
    #[must_use]
    pub fn new(profile: MicroarchProfile, seed: u64) -> Self {
        System::with_cores(profile, seed, 1)
    }

    /// Creates a single-core system on an explicit predictor backend;
    /// [`System::new`] is the [`BackendKind::Hybrid`] special case.
    #[must_use]
    pub fn with_backend(profile: MicroarchProfile, backend: BackendKind, seed: u64) -> Self {
        System::with_cores_backend(profile, backend, seed, 1)
    }

    /// Creates a system with `cores` physical cores, each with its own
    /// (unshared) branch prediction unit. Processes on different cores
    /// share *nothing* the attack can use — the negative control for the
    /// threat model's co-residency requirement.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn with_cores(profile: MicroarchProfile, seed: u64, cores: usize) -> Self {
        System::with_cores_backend(profile, BackendKind::Hybrid, seed, cores)
    }

    /// Creates a multi-core system where every core's BPU is built on the
    /// given predictor backend.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn with_cores_backend(
        profile: MicroarchProfile,
        backend: BackendKind,
        seed: u64,
        cores: usize,
    ) -> Self {
        assert!(cores > 0, "a system needs at least one core");
        System {
            cores: (0..cores)
                .map(|i| {
                    SimCore::with_backend(
                        backend.build(profile.clone()),
                        seed.wrapping_add(i as u64 * 0x9E37),
                    )
                })
                .collect(),
            processes: Vec::new(),
            core_of: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5353_5353),
        }
    }

    /// Enables or disables background noise on every core.
    ///
    /// # Errors
    ///
    /// Returns the [`bscope_uarch::ConfigError`] from
    /// [`NoiseConfig::validate`]; no core's configuration is changed.
    pub fn set_noise(&mut self, noise: Option<NoiseConfig>) -> Result<(), bscope_uarch::ConfigError> {
        if let Some(cfg) = &noise {
            cfg.validate()?;
        }
        for core in &mut self.cores {
            core.set_noise(noise.clone()).expect("validated above");
        }
        Ok(())
    }

    /// Builder-style noise configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`bscope_uarch::ConfigError`] from
    /// [`NoiseConfig::validate`].
    pub fn with_noise(mut self, noise: NoiseConfig) -> Result<Self, bscope_uarch::ConfigError> {
        self.set_noise(Some(noise))?;
        Ok(self)
    }

    /// Installs a hardware mitigation policy on the primary core (§10.2).
    pub fn set_policy(&mut self, policy: Box<dyn bscope_uarch::BpuPolicy>) {
        self.cores[0].set_policy(policy);
    }

    /// Installs or removes measurement-channel fuzzing on every core
    /// (§10.2).
    ///
    /// # Errors
    ///
    /// Returns the [`bscope_uarch::ConfigError`] from
    /// [`bscope_uarch::MeasurementFuzz::validate`]; no core's
    /// configuration is changed.
    pub fn set_measurement_fuzz(
        &mut self,
        fuzz: Option<bscope_uarch::MeasurementFuzz>,
    ) -> Result<(), bscope_uarch::ConfigError> {
        if let Some(f) = &fuzz {
            f.validate()?;
        }
        for core in &mut self.cores {
            core.set_measurement_fuzz(fuzz).expect("validated above");
        }
        Ok(())
    }

    /// Spawns a process on core 0 and returns its pid.
    pub fn spawn(&mut self, name: &str, aslr: AslrPolicy) -> Pid {
        self.spawn_on(name, aslr, 0)
    }

    /// Spawns a process pinned to a specific physical core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn spawn_on(&mut self, name: &str, aslr: AslrPolicy, core: usize) -> Pid {
        assert!(core < self.cores.len(), "core {core} out of range");
        let pid = Pid(self.processes.len() as u32);
        let ctx = pid.0; // one hardware context per process in this model
        self.processes.push(Process::new(pid, ctx, name, aslr, &mut self.rng));
        self.core_of.push(core);
        pid
    }

    /// The physical core a process is pinned to.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned by this system.
    #[must_use]
    pub fn core_of(&self, pid: Pid) -> usize {
        self.core_of[pid.0 as usize]
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
        let proc = &self.processes[pid.0 as usize];
        let core_idx = self.core_of[pid.0 as usize];
        CpuView { core: &mut self.cores[core_idx], proc }
    }

    /// Direct access to the primary core (core 0) — the shared core of the
    /// single-core attack setting.
    #[must_use]
    pub fn core(&self) -> &SimCore {
        &self.cores[0]
    }

    /// Exclusive access to the primary core.
    #[must_use]
    pub fn core_mut(&mut self) -> &mut SimCore {
        &mut self.cores[0]
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
    /// The owning process's metadata.
    #[must_use]
    pub fn process(&self) -> &Process {
        self.proc
    }

    /// Virtual address of the code at `offset` in this process.
    #[must_use]
    pub fn vaddr_of(&self, offset: u64) -> VirtAddr {
        self.proc.vaddr_of(offset)
    }

    /// Executes a conditional branch at a code-segment offset.
    pub fn branch_at(&mut self, offset: u64, outcome: Outcome) -> BranchEvent {
        let addr = self.proc.vaddr_of(offset);
        self.core.execute_branch_in(self.proc.ctx(), addr, outcome, None)
    }

    /// Executes a conditional branch at an absolute virtual address —
    /// the spy uses this after placing its code to collide with the victim.
    pub fn branch_at_abs(&mut self, addr: VirtAddr, outcome: Outcome) -> BranchEvent {
        self.core.execute_branch_in(self.proc.ctx(), addr, outcome, None)
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

/// A [`System`] behind an `Arc<Mutex<_>>` so covert-channel endpoints in
/// different threads (sender/receiver tests, parallel harnesses) can share
/// one machine.
#[derive(Debug, Clone)]
pub struct SharedSystem(Arc<Mutex<System>>);

impl SharedSystem {
    /// Wraps a system for shared access.
    #[must_use]
    pub fn new(system: System) -> Self {
        SharedSystem(Arc::new(Mutex::new(system)))
    }

    /// Runs `f` with exclusive access to the system.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    pub fn with<T>(&self, f: impl FnOnce(&mut System) -> T) -> T {
        f(&mut self.0.lock().expect("system lock poisoned"))
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

    #[test]
    fn shared_system_round_trips() {
        let sys = SharedSystem::new(System::new(MicroarchProfile::skylake(), 5));
        let pid = sys.with(|s| s.spawn("p", AslrPolicy::Disabled));
        let retired = sys.with(|s| {
            s.cpu(pid).branch_at(0, Outcome::Taken);
            s.cpu(pid).counters().branches_retired
        });
        assert_eq!(retired, 1);
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
