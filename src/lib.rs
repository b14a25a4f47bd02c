//! BranchScope reproduction — façade crate.
//!
//! Re-exports the full public API of the workspace crates so downstream
//! users (and the `examples/` and `tests/` in this repository) can depend on
//! a single crate:
//!
//! * [`bpu`] — the branch prediction unit model: three predictor backends
//!   (the paper's hybrid of bimodal PHT, gshare and selector; TAGE;
//!   perceptron) behind one BTB and GHR, and the microarchitecture profiles,
//! * [`uarch`] — the simulated CPU core (timing, TSC, i-cache, perf counters),
//! * [`os`] — one shared core, its processes and the SGX enclave model,
//! * [`attack`] — the BranchScope attack itself (prime+probe on the
//!   directional predictor, covert channel, PHT reverse engineering),
//! * [`victims`] — victim programs with secret-dependent branches,
//! * [`mitigations`] — §10 defenses and their evaluation,
//! * [`baselines`] — prior BTB-based attacks,
//! * [`trace`] — structured event tracing and metrics (ring-buffer sinks,
//!   counters/histograms, JSONL rendering) with a zero-cost disabled path.
//!
//! # Quickstart
//!
//! ```
//! use branchscope::bpu::{MicroarchProfile, Outcome};
//! use branchscope::uarch::SimCore;
//!
//! let mut core = SimCore::new(MicroarchProfile::skylake(), 42);
//! let event = core.execute_branch(0x30_0000, Outcome::Taken);
//! assert_eq!(event.outcome, Outcome::Taken);
//! ```

#![forbid(unsafe_code)]

pub use bscope_baselines as baselines;
pub use bscope_bpu as bpu;
pub use bscope_core as attack;
pub use bscope_mitigations as mitigations;
pub use bscope_os as os;
pub use bscope_trace as trace;
pub use bscope_uarch as uarch;
pub use bscope_victims as victims;
