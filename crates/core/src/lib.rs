//! The BranchScope attack (Evtyushkin et al., ASPLOS 2018).
//!
//! BranchScope infers the direction of a victim's conditional branch by
//! manipulating the *directional* component of the shared branch prediction
//! unit — the pattern history table (PHT) — rather than the branch target
//! buffer targeted by earlier work. The attack proceeds in three stages
//! (paper §4):
//!
//! 1. **Prime** — drive the PHT entry that collides with the victim's
//!    branch into a known strong state, while forcing both processes into
//!    the simply-indexed 1-level prediction mode
//!    ([`RandomizationBlock`], [`TargetedPrime`]);
//! 2. **Victim execution** — let the slowed-down victim execute the target
//!    branch exactly once;
//! 3. **Probe** — execute two spy branches at the colliding address and
//!    observe their prediction outcomes ([`ProbePattern`]) through
//!    performance counters (§7) or `rdtscp` timing (§8,
//!    [`TimingDetector`]), then decode the victim's direction with the
//!    FSM dictionary ([`DirectionDict`], Table 1).
//!
//! On top of the single-bit primitive the crate builds the paper's covert
//! channel ([`covert`]), the PHT reverse-engineering tooling of §6.3
//! ([`reverse`]: state scans, Hamming-distance size discovery) and the
//! randomization-block stability analysis of Fig. 4 ([`stability`]).
//!
//! # Example: reading one victim branch
//!
//! ```
//! use bscope_bpu::{MicroarchProfile, Outcome};
//! use bscope_core::{AttackConfig, BranchScope};
//! use bscope_os::{AslrPolicy, System};
//!
//! let mut sys = System::new(MicroarchProfile::skylake(), 1);
//! let victim = sys.spawn("victim", AslrPolicy::Disabled);
//! let spy = sys.spawn("spy", AslrPolicy::Disabled);
//! let target = sys.process(victim).vaddr_of(0x6d);
//!
//! let mut attack = BranchScope::new(AttackConfig::for_profile(sys.core().profile())).unwrap();
//! let read = attack.read_bit(&mut sys, spy, target, |sys| {
//!     // Stage 2: the triggered victim executes its secret branch once.
//!     sys.cpu(victim).branch_at(0x6d, Outcome::Taken);
//! });
//! assert_eq!(read, Outcome::Taken);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
pub mod covert;
mod decode;
mod error;
mod poison;
mod prime;
mod probe;
pub mod reverse;
pub mod stability;
pub mod timing_probe;

mod randomize;

pub use attack::{AttackConfig, BranchScope, VICTIM_WAIT_CYCLES};
pub use decode::{decode_state, fsm_transition_row, table1, DecodedState, DirectionDict, Table1Row};
pub use error::{AttackError, BscopeError, ConfigError};
pub use poison::BranchPoisoner;
pub use prime::TargetedPrime;
pub use probe::{probe_once, probe_with_counters, ProbeKind, ProbePattern};
pub use randomize::RandomizationBlock;
pub use timing_probe::TimingDetector;
