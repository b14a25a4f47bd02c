//! Host-time benchmark of the BranchScope simulator.
//!
//! The unit of work is one simulated branch, so the headline metric is host
//! nanoseconds per simulated branch. [`workload`] defines four workloads
//! built from the repository's public library calls; [`pass`] runs one
//! workload's fixed work through `bscope-harness`; [`ladder`] replays a
//! workload's branch stream through each layer's entry point for the
//! per-layer figures. See `README.md` beside this crate for the metrics and
//! how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod ladder;
pub mod pass;
pub mod reference;
pub mod stats;
pub mod timer;
pub mod workload;
