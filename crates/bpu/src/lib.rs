//! Branch prediction unit (BPU) model for the BranchScope reproduction.
//!
//! This crate implements the microarchitectural substrate the BranchScope
//! paper attacks: the front end of Figure 1 — a **branch target buffer**
//! ([`BranchTargetBuffer`]), a direct-mapped cache of branch targets whose
//! *presence* information drives the paper's "new branches are predicted by
//! the 1-level predictor" behaviour (§5.1), and a **global history
//! register** ([`GlobalHistoryRegister`]) — over a hybrid directional
//! predictor in the style of McFarling's combining predictor:
//!
//! * a **1-level bimodal** pattern history table (PHT) of saturating
//!   counters ([`Counter`]) indexed directly by the branch address
//!   (Smith, 1981),
//! * a **2-level gshare** PHT indexed by the branch address XOR-folded with
//!   the global history (Yeh & Patt, 1991; McFarling, 1993),
//! * a **selector / chooser table** picking the component that has been
//!   more accurate for each branch.
//!
//! [`PredictorBackend`] owns the front end once and runs it over one of
//! three direction predictors: that hybrid, a TAGE model or a perceptron
//! model; [`BackendKind`] selects between them — see the [`backend`] module
//! docs for the design rationale. Every backend is parameterised by a
//! [`MicroarchProfile`] that models the three CPUs evaluated in the paper
//! (Sandy Bridge, Haswell, Skylake), including the Skylake peculiarity that
//! makes the strongly-taken and weakly-taken states indistinguishable
//! (Table 1, footnote 1).
//!
//! # Example
//!
//! ```
//! use bscope_bpu::{BackendKind, MicroarchProfile, Outcome};
//!
//! let mut bpu = BackendKind::Hybrid.build(MicroarchProfile::skylake());
//! assert!(!bpu.predict(0x40_0000).two_level, "new branches use the 1-level predictor");
//! // Train a branch at address 0x40_0000 to be always taken: `execute`
//! // predicts and commits one dynamic branch, and is the only commit path.
//! for _ in 0..4 {
//!     bpu.execute(0x40_0000, Outcome::Taken, Some(0x40_0040));
//! }
//! let (prediction, correct) = bpu.execute(0x40_0000, Outcome::Taken, Some(0x40_0040));
//! assert!(correct && prediction.direction == Outcome::Taken);
//! assert_eq!(bpu.btb().lookup(0x40_0000), Some(0x40_0040));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod btb;
mod counter;
mod ghr;
mod hybrid;
mod perceptron;
mod pht;
mod profile;
mod selector;
mod stats;
mod tage;

pub use backend::{BackendKind, Prediction, PredictorBackend};
pub use btb::BranchTargetBuffer;
pub use counter::{Counter, CounterKind, Outcome, PhtState};
pub use ghr::GlobalHistoryRegister;
pub use profile::{Microarch, MicroarchProfile};
pub use stats::PredictionStats;

/// A virtual address of a branch instruction.
///
/// The paper demonstrates (Fig. 5a) that the PHT indexing function operates
/// at single-byte granularity on virtual addresses, so plain `u64` virtual
/// addresses are the natural index domain for every predictor structure.
pub type VirtAddr = u64;
