//! SGX enclave model with an attacker-controlled operating system.

use crate::process::{AslrPolicy, Pid, Workload};
use crate::system::System;
use std::error::Error;
use std::fmt;

/// Errors from interacting with an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgxError {
    /// Direct access to enclave memory was attempted from outside.
    ProtectedMemory,
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SgxError::ProtectedMemory => "enclave memory is protected from outside access",
        })
    }
}

impl Error for SgxError {}

/// An SGX-style enclave: a program whose memory the rest of the system
/// cannot read, running co-resident on the shared core.
///
/// SGX protects enclave *memory* (§9.1) but "many CPU hardware resources
/// still remain shared between enclave and non-enclave code" — including
/// the BPU, which is exactly what BranchScope exploits. The enclave's
/// secret lives inside the `Workload`; the only architectural output the
/// outside world gets is [`SgxError::ProtectedMemory`].
///
/// The attacker controls the OS: it runs the enclave one step at a time
/// with [`Enclave::single_step`] and can stop all other activity on the
/// core with [`System::set_noise`]`(None)` ("SGX isolated" rows of
/// Table 3).
#[derive(Debug)]
pub struct Enclave<W> {
    pid: Pid,
    program: W,
    finished: bool,
}

impl<W: Workload> Enclave<W> {
    /// Launches `program` inside a new enclave on `sys`.
    pub fn launch(sys: &mut System, name: &str, program: W) -> Self {
        let pid = sys.spawn(name, AslrPolicy::Disabled);
        Enclave { pid, program, finished: false }
    }

    /// The process id backing this enclave.
    #[must_use]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Whether the enclave program has run to completion.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Attempting to read enclave memory from outside always fails — the
    /// access-control guarantee that makes the *microarchitectural* channel
    /// the only way in.
    ///
    /// # Errors
    ///
    /// Always returns [`SgxError::ProtectedMemory`].
    pub fn read_memory(&self, _addr: u64) -> Result<u8, SgxError> {
        Err(SgxError::ProtectedMemory)
    }

    /// Single-steps the enclave, as the malicious OS of the SGX threat
    /// model does by interrupting it after every instruction (§9.2, as in
    /// branch-shadowing attacks). Returns whether a step ran: once the
    /// program has finished, nothing runs and this returns `false`.
    pub fn single_step(&mut self, sys: &mut System) -> bool {
        if self.finished {
            return false;
        }
        self.finished = !self.program.step(&mut sys.cpu(self.pid));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::CpuView;
    use bscope_bpu::{MicroarchProfile, Outcome, PhtState};

    struct SecretSender {
        bits: Vec<bool>,
        next: usize,
    }

    impl Workload for SecretSender {
        fn step(&mut self, cpu: &mut CpuView<'_>) -> bool {
            if self.next >= self.bits.len() {
                return false;
            }
            cpu.branch_at(0x6d, Outcome::from_bool(self.bits[self.next]));
            self.next += 1;
            self.next < self.bits.len()
        }
    }

    #[test]
    fn memory_is_protected() {
        let mut sys = System::new(MicroarchProfile::skylake(), 1);
        let enclave = Enclave::launch(&mut sys, "enclave", SecretSender {
            bits: vec![true],
            next: 0,
        });
        assert_eq!(enclave.read_memory(0x1000), Err(SgxError::ProtectedMemory));
    }

    #[test]
    fn single_step_runs_one_step() {
        let mut sys = System::new(MicroarchProfile::skylake(), 2);
        let mut enclave = Enclave::launch(&mut sys, "enclave", SecretSender {
            bits: vec![true, false, true],
            next: 0,
        });
        assert!(enclave.single_step(&mut sys));
        assert_eq!(sys.cpu(enclave.pid()).counters().branches_retired, 1);
        assert!(!enclave.finished());
    }

    #[test]
    fn enclave_branches_leak_into_shared_bpu() {
        // The whole point: enclave executes secret-dependent branches, and
        // their effect is visible in the shared PHT from outside.
        let mut sys = System::new(MicroarchProfile::skylake(), 3);
        let mut enclave = Enclave::launch(&mut sys, "enclave", SecretSender {
            bits: vec![true, true, true],
            next: 0,
        });
        let mut steps = 0;
        while enclave.single_step(&mut sys) {
            steps += 1;
        }
        assert_eq!(steps, 3);
        let addr = sys.process(enclave.pid()).vaddr_of(0x6d);
        assert_eq!(sys.core().bpu().pht_state(addr), PhtState::StronglyTaken);
    }

    #[test]
    fn single_step_on_finished_enclave_runs_nothing() {
        let mut sys = System::new(MicroarchProfile::skylake(), 5);
        let mut enclave =
            Enclave::launch(&mut sys, "enclave", SecretSender { bits: vec![true], next: 0 });
        assert!(enclave.single_step(&mut sys), "the last step runs");
        assert!(enclave.finished());
        assert!(!enclave.single_step(&mut sys));
        assert_eq!(sys.cpu(enclave.pid()).counters().branches_retired, 1);
    }
}
