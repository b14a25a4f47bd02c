//! Victim programs for the BranchScope reproduction.
//!
//! Each victim executes conditional branches whose directions depend on a
//! secret, which is exactly what BranchScope leaks (paper §7, §9):
//!
//! * [`SecretBranchVictim`] — the paper's Listing 2: one branch per bit of
//!   a secret array (the covert-channel / demonstration victim);
//! * [`MontgomeryLadder`] — modular exponentiation with a per-key-bit
//!   branch, the classic RSA/ECC leak target (§9.2 "Montgomery ladder");
//! * [`IdctVictim`] — libjpeg's inverse-DCT zero-skip optimisation: one
//!   branch per row/column zero test, leaking image block complexity
//!   (§9.2 "libjpeg");
//! * [`AslrVictim`] — a victim with a branch at an ASLR-randomized address,
//!   the derandomization target (§9.2 "ASLR value recovery").
//!
//! All victims implement [`Workload`](bscope_os::Workload), so an attack
//! round's stage-2 trigger can step them exactly once (the slowed-down
//! victim of the threat model), or an [`Enclave`](bscope_os::Enclave) can
//! single-step them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aslr;
mod jpeg;
mod montgomery;
mod secret_branch;
mod sliding_window;

pub use aslr::AslrVictim;
pub use jpeg::{CoefficientBlock, IdctVictim, BLOCK_DIM, IDCT_BRANCH_OFFSET};
pub use montgomery::{mod_exp, MontgomeryLadder};
pub use secret_branch::SecretBranchVictim;
pub use sliding_window::{recover_bits_from_trace, SlidingWindowExp};

/// Code offset of the secret-dependent branch inside every victim binary —
/// the `<victim_f+0x6d>` of the paper's Listing 2 disassembly. Keeping one
/// well-known offset mirrors how an attacker locates the branch in a real
/// binary (by disassembling it).
pub const VICTIM_BRANCH_OFFSET: u64 = 0x6d;
