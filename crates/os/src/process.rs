//! Processes and address-space layout.

use crate::system::CpuView;
use bscope_bpu::VirtAddr;
use bscope_uarch::ContextId;
use rand::Rng;
use std::fmt;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// How a process's code segment base is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AslrPolicy {
    /// Code is loaded at the fixed conventional base (`0x40_0000`), so
    /// branch virtual addresses are known to everyone — the paper's default
    /// assumption ("the virtual addresses of victim's code are typically
    /// not a secret", §4).
    Disabled,
    /// Code base is randomized; the spy must derandomize it first (the §9
    /// "ASLR value recovery" application).
    Randomized,
}

/// A process: a context id on the shared core plus an address-space layout.
///
/// Only the code segment matters to the BPU, so the layout is simply a base
/// address that offsets every branch the process executes.
#[derive(Debug, Clone)]
pub struct Process {
    ctx: ContextId,
    code_base: VirtAddr,
    name: String,
}

/// Conventional non-ASLR executable base.
pub(crate) const DEFAULT_CODE_BASE: VirtAddr = 0x40_0000;

/// ASLR entropy: bases are drawn from `DEFAULT_CODE_BASE + [0, 2^28)`,
/// page (4 KiB) aligned — comparable to Linux mmap entropy for PIEs.
pub(crate) const ASLR_SPAN: u64 = 1 << 28;

impl Process {
    pub(crate) fn new<R: Rng + ?Sized>(
        ctx: ContextId,
        name: &str,
        policy: AslrPolicy,
        rng: &mut R,
    ) -> Self {
        let code_base = match policy {
            AslrPolicy::Disabled => DEFAULT_CODE_BASE,
            AslrPolicy::Randomized => {
                DEFAULT_CODE_BASE + (rng.gen_range(0..ASLR_SPAN) & !0xfff)
            }
        };
        Process { ctx, code_base, name: name.to_owned() }
    }

    /// The hardware context this process runs in.
    #[must_use]
    pub fn ctx(&self) -> ContextId {
        self.ctx
    }

    /// Base virtual address of the code segment.
    #[must_use]
    pub fn code_base(&self) -> VirtAddr {
        self.code_base
    }

    /// Human-readable name (diagnostics only).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Virtual address of the instruction at `offset` into the code segment.
    #[must_use]
    pub fn vaddr_of(&self, offset: u64) -> VirtAddr {
        self.code_base + offset
    }
}

/// A program that can be executed one step at a time on a [`CpuView`].
///
/// One *step* is the unit the attacker's slowdown gives the victim: in the
/// paper's high-resolution attack, a single secret-dependent branch plus its
/// surrounding non-branch work. Victims and covert-channel senders
/// implement this; the stage-2 trigger of an attack round steps them once.
pub trait Workload {
    /// Executes the next step. Returns `false` when the workload finished.
    fn step(&mut self, cpu: &mut CpuView<'_>) -> bool;

    /// Steps until completion or `max_steps`, whichever comes first.
    /// Returns the number of steps executed.
    fn run(&mut self, cpu: &mut CpuView<'_>, max_steps: usize) -> usize {
        let mut n = 0;
        while n < max_steps {
            n += 1;
            if !self.step(cpu) {
                break;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn disabled_aslr_uses_fixed_base() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = Process::new(0, "victim", AslrPolicy::Disabled, &mut rng);
        assert_eq!(p.code_base(), DEFAULT_CODE_BASE);
        assert_eq!(p.vaddr_of(0x6d), DEFAULT_CODE_BASE + 0x6d);
    }

    #[test]
    fn aslr_bases_are_page_aligned_and_in_span() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = Process::new(0, "v", AslrPolicy::Randomized, &mut rng);
            assert_eq!(p.code_base() & 0xfff, 0, "page aligned");
            assert!(p.code_base() >= DEFAULT_CODE_BASE);
            assert!(p.code_base() < DEFAULT_CODE_BASE + ASLR_SPAN);
        }
    }

    #[test]
    fn aslr_bases_differ_between_processes() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Process::new(0, "a", AslrPolicy::Randomized, &mut rng);
        let b = Process::new(1, "b", AslrPolicy::Randomized, &mut rng);
        assert_ne!(a.code_base(), b.code_base());
    }

    #[test]
    fn pid_displays() {
        assert_eq!(Pid(3).to_string(), "pid 3");
    }
}
