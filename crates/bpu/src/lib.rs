//! Branch prediction unit (BPU) model for the BranchScope reproduction.
//!
//! This crate implements the microarchitectural substrate the BranchScope
//! paper attacks: a hybrid directional branch predictor in the style of
//! McFarling's combining predictor, composed of
//!
//! * a **1-level bimodal predictor** ([`BimodalPredictor`]) — a pattern
//!   history table (PHT) of 2-bit saturating counters indexed directly by
//!   the branch address (Smith, 1981),
//! * a **2-level gshare predictor** ([`GsharePredictor`]) — a PHT indexed by
//!   the branch address XOR-folded with a global history register
//!   (Yeh & Patt, 1991; McFarling, 1993),
//! * a **selector / chooser table** ([`SelectorTable`]) picking the component
//!   that has been more accurate for each branch,
//! * a **branch target buffer** ([`BranchTargetBuffer`]) — a direct-mapped
//!   cache of branch targets whose *presence* information drives the paper's
//!   "new branches are predicted by the 1-level predictor" behaviour (§5.1),
//!
//! all assembled into a [`HybridPredictor`] and parameterised by a
//! [`MicroarchProfile`] that models the three CPUs evaluated in the paper
//! (Sandy Bridge, Haswell, Skylake), including the Skylake peculiarity that
//! makes the strongly-taken and weakly-taken states indistinguishable
//! (Table 1, footnote 1).
//!
//! The hybrid is one of three interchangeable predictor *backends*: the
//! [`PredictorBackend`] enum is the surface the simulated core needs and
//! dispatches statically over the hybrid, a TAGE model ([`TageBackend`])
//! and a perceptron model ([`PerceptronBackend`]), and [`BackendKind`]
//! selects between them — see the [`backend`] module docs for the design
//! rationale.
//!
//! # Example
//!
//! ```
//! use bscope_bpu::{HybridPredictor, MicroarchProfile, Outcome};
//!
//! let mut bpu = HybridPredictor::new(MicroarchProfile::skylake());
//! // Train a branch at address 0x40_0000 to be always taken.
//! for _ in 0..4 {
//!     let prediction = bpu.predict(0x40_0000);
//!     bpu.update(0x40_0000, Outcome::Taken, Some(0x40_0040), &prediction);
//! }
//! let prediction = bpu.predict(0x40_0000);
//! assert_eq!(prediction.direction, Outcome::Taken);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod bimodal;
mod btb;
mod counter;
mod ghr;
mod gshare;
mod hybrid;
mod perceptron;
mod pht;
mod profile;
mod selector;
mod stats;
mod tage;

pub use backend::{BackendKind, PerceptronBackend, PredictorBackend, TageBackend};
pub use bimodal::BimodalPredictor;
pub use btb::{BranchTargetBuffer, BtbEntry};
pub use counter::{Counter, CounterKind, Outcome, PhtState};
pub use ghr::GlobalHistoryRegister;
pub use gshare::GsharePredictor;
pub use hybrid::{HybridPredictor, Prediction, PredictorKind};
pub use perceptron::PerceptronPredictor;
pub use pht::PatternHistoryTable;
pub use profile::{Microarch, MicroarchProfile, TimingParams};
pub use selector::SelectorTable;
pub use stats::PredictionStats;
pub use tage::{TagePrediction, TagePredictor};

/// A virtual address of a branch instruction.
///
/// The paper demonstrates (Fig. 5a) that the PHT indexing function operates
/// at single-byte granularity on virtual addresses, so plain `u64` virtual
/// addresses are the natural index domain for every predictor structure.
pub type VirtAddr = u64;
