//! Mitigations against BranchScope (paper §10) and their evaluation.
//!
//! Hardware defenses (§10.2) are [`BpuPolicy`](bscope_uarch::BpuPolicy)
//! implementations installed on the simulated core:
//!
//! * [`RandomizedPhtPolicy`] — per-software-entity PHT index randomization,
//!   optionally re-keyed periodically;
//! * [`PartitionedBpuPolicy`] — per-context partitions of the predictor
//!   tables, removing cross-context collisions entirely;
//! * [`NoPredictPolicy`] — flagged sensitive branches bypass the predictor
//!   (static prediction, no BPU updates);
//! * [`StochasticFsmPolicy`] — randomly suppressed FSM updates, the
//!   "more stochastic" prediction FSM of §10.2;
//! * noisy counters/timers via
//!   [`MeasurementFuzz`] (re-exported).
//!
//! The software defense (§10.1) is [`IfConvertedVictim`]: a victim whose
//! secret-dependent branch has been compiled into a `cmov`, executing no
//! conditional branch at all.
//!
//! [`evaluate`] runs the covert-channel benchmark under a mitigation and
//! reports the secret × read [`Confusion`](bscope_core::Confusion): a
//! defense blocks the channel only if the table does not
//! [`leak`](bscope_core::Confusion::leaks) (G-test, p < 0.001), whatever
//! its error rate. At full scale on Skylake, partitioned (4) errs on 74 %
//! of bits and still leaks 0.29 bits per read.
//! [`benign_overhead`] reports what the same defense costs a benign
//! workload in mispredictions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod if_conversion;
mod no_predict;
mod partitioned;
mod randomized_pht;
mod stochastic_fsm;

pub use bscope_uarch::MeasurementFuzz;
pub use eval::{benign_overhead, evaluate, EvalReport, Mitigation};
pub use if_conversion::IfConvertedVictim;
pub use no_predict::NoPredictPolicy;
pub use partitioned::PartitionedBpuPolicy;
pub use randomized_pht::RandomizedPhtPolicy;
pub use stochastic_fsm::StochasticFsmPolicy;
