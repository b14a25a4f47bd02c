//! Operating-system model for the BranchScope reproduction.
//!
//! The paper's threat model (§3) needs three things from the system layer:
//!
//! 1. **Co-residency** — victim and spy share a physical core and therefore
//!    a BPU. [`System`] owns one [`SimCore`](bscope_uarch::SimCore) and hands
//!    out per-process [`CpuView`]s onto it.
//! 2. **Victim slowdown** — the spy must interleave prime → one victim
//!    branch → probe. The attack's stage-2 trigger steps the victim's
//!    [`Workload`] exactly once per round, the effect of the
//!    Gullasch-style scheduler abuse the paper cites; SGX attackers get the
//!    same single-stepping from the malicious OS via
//!    [`Enclave::single_step`].
//! 3. **Triggering victim execution** — victims implement [`Workload`]
//!    and are stepped explicitly on their [`CpuView`].
//!
//! It also models the paper's two measurement environments: a noisy
//! multi-tasking system (SMT sibling activity, Table 2) and an
//! attacker-controlled OS attacking an SGX enclave where the noise can be
//! suppressed with [`System::set_noise`]`(None)` (§9, Table 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod process;
mod sgx;
mod system;

pub use process::{AslrPolicy, Pid, Process, Workload};
pub use sgx::{Enclave, SgxError};
pub use system::{CpuView, System};
