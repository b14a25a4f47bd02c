//! Hardware mitigation hooks (paper §10.2).
//!
//! The hardware defenses the paper proposes all make one decision per
//! branch: where the branch meets the shared predictor, and whether it
//! meets it at all. PHT index randomization and BPU partitioning remap the
//! address the predictor structures see; no-prediction for flagged
//! sensitive branches bypasses the predictor; the stochastic FSM predicts
//! but skips the state update. [`BpuPolicy::route`] is that one decision
//! point, returning a [`Route`]; concrete policies live in the
//! `bscope-mitigations` crate. A core with no policy installed is the
//! unmitigated machine and makes no policy call.

use crate::config::ConfigError;
use crate::core_impl::ContextId;
use crate::timing::Draws;
use bscope_bpu::VirtAddr;

/// Stream tag of the measurement-fuzz draws (counter flip, timing jitter).
const FUZZ_STREAM: u64 = 0xF022_F022_D1A7_0002;

/// How one branch meets the shared predictor, as decided by a
/// [`BpuPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Predict and commit the update at this predictor address (the
    /// branch's own address on the unmitigated machine; a remapped one
    /// under index randomization or partitioning).
    Predict(VirtAddr),
    /// Predict at this address but commit nothing: the stochastic-FSM
    /// defense skipping a state transition.
    PredictNoUpdate(VirtAddr),
    /// Bypass the predictor entirely: statically predicted not-taken, no
    /// BPU state read or updated ("the CPU must avoid predicting these
    /// branches, rely always on static prediction and avoid updating any
    /// BPU structures", §10.2).
    Bypass,
}

/// A hardware-level branch prediction policy installed on a core.
pub trait BpuPolicy: std::fmt::Debug + Send {
    /// Routes the branch of context `ctx` at architectural address `addr`,
    /// executing at cycle `tsc`.
    ///
    /// The one rule: the core calls `route` exactly once for every branch,
    /// before the branch touches the BPU — every foreground branch of
    /// every context, timed or not, and every background noise branch,
    /// with `ctx` = [`NOISE_CTX`](crate::NOISE_CTX). A policy that counts
    /// branches (periodic re-keying) therefore counts them all.
    fn route(&mut self, ctx: ContextId, addr: VirtAddr, tsc: u64) -> Route;
}

/// Measurement-channel fuzzing (§10.2 "Other solutions"): degrade the
/// attacker's ability to observe branch outcomes by adding noise to the
/// performance counters and the timing measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementFuzz {
    /// Probability that a branch's misprediction bit is recorded flipped
    /// in the performance counters.
    pub counter_flip_probability: f64,
    /// Additional Gaussian jitter (standard deviation, cycles) added to
    /// every measured latency.
    pub extra_timing_sigma: f64,
}

impl MeasurementFuzz {
    /// A configuration strong enough to defeat single-shot probing.
    #[must_use]
    pub fn strong() -> Self {
        MeasurementFuzz { counter_flip_probability: 0.35, extra_timing_sigma: 60.0 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.counter_flip_probability) {
            return Err(ConfigError::OutOfRange {
                config: "MeasurementFuzz",
                field: "counter_flip_probability",
                value: self.counter_flip_probability,
                constraint: "within [0, 1]",
            });
        }
        if !self.extra_timing_sigma.is_finite() || self.extra_timing_sigma < 0.0 {
            return Err(ConfigError::OutOfRange {
                config: "MeasurementFuzz",
                field: "extra_timing_sigma",
                value: self.extra_timing_sigma,
                constraint: "finite and >= 0",
            });
        }
        Ok(())
    }

    /// The misprediction flag the counters record for foreground branch
    /// `index` of a core seeded with `seed`: flipped with probability
    /// [`counter_flip_probability`](Self::counter_flip_probability). A pure
    /// function of its arguments, like [`timing::sample`](crate::timing::sample).
    #[must_use]
    pub fn fuzz_miss(&self, seed: u64, index: u64, mispredicted: bool) -> bool {
        let flip = self.counter_flip_probability > 0.0
            && Draws::new(seed, index, FUZZ_STREAM).unit() < self.counter_flip_probability;
        mispredicted != flip
    }

    /// The timed latency of foreground branch `index` of a core seeded
    /// with `seed`, with the extra Gaussian jitter applied. A pure function
    /// of its arguments.
    #[must_use]
    pub fn fuzz_latency(&self, seed: u64, index: u64, latency: u64) -> u64 {
        if self.extra_timing_sigma <= 0.0 {
            return latency;
        }
        let mut draws = Draws::new(seed, index, FUZZ_STREAM);
        let _flip = draws.next_u64(); // the counter flip's draw
        let jitter = self.extra_timing_sigma * draws.gaussian();
        (latency as f64 + jitter).max(1.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_flips_at_configured_rate() {
        let fuzz = MeasurementFuzz { counter_flip_probability: 0.5, extra_timing_sigma: 0.0 };
        let flips = (0..10_000).filter(|&i| fuzz.fuzz_miss(1, i, false)).count();
        assert!((4_000..6_000).contains(&flips), "flips {flips}");
    }

    #[test]
    fn zero_fuzz_is_transparent() {
        let fuzz = MeasurementFuzz { counter_flip_probability: 0.0, extra_timing_sigma: 0.0 };
        assert!(fuzz.fuzz_miss(2, 0, true));
        assert!(!fuzz.fuzz_miss(2, 1, false));
        assert_eq!(fuzz.fuzz_latency(2, 2, 120), 120);
    }

    #[test]
    fn timing_fuzz_spreads_latencies() {
        let fuzz = MeasurementFuzz::strong();
        let fuzzed: Vec<u64> = (0..2_000).map(|i| fuzz.fuzz_latency(3, i, 120)).collect();
        let mean = fuzzed.iter().sum::<u64>() as f64 / fuzzed.len() as f64;
        assert!((110.0..130.0).contains(&mean), "jitter is zero-mean: {mean}");
        assert!(fuzzed.iter().any(|&l| l > 200) && fuzzed.iter().any(|&l| l < 40));
        assert_eq!(fuzz.fuzz_latency(3, 7, 120), fuzzed[7], "a pure function of the key");
    }

    #[test]
    fn validate_bounds() {
        MeasurementFuzz::strong().validate().unwrap();
        assert!(MeasurementFuzz { counter_flip_probability: 1.5, extra_timing_sigma: 0.0 }
            .validate()
            .is_err());
        assert!(MeasurementFuzz { counter_flip_probability: 0.0, extra_timing_sigma: -1.0 }
            .validate()
            .is_err());
    }
}
