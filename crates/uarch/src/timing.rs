//! Branch latency and clock-advance model.
//!
//! The paper measures single branch instructions with back-to-back `rdtscp`
//! (§8, Fig. 7): correctly predicted branches average ≈85 cycles (including
//! measurement overhead), mispredicted ones sit ≈50 cycles higher, both with
//! substantial jitter and a heavy upper tail from unrelated stalls, and the
//! *first* (i-cache-cold) execution is slower and noisier — which is why the
//! paper's attacker discards the first measurement (Fig. 8). It reports this
//! one picture for all three of its machines, so the calibration below is
//! constants shared by every profile.
//!
//! A latency exists only where code brackets a branch with `rdtscp`, so
//! the core calls [`sample`] only for timed branches
//! ([`SimCore::execute_timed_branch_in`](crate::SimCore::execute_timed_branch_in)).
//! The sample is a Gaussian plus an occasional exponential spike, drawn from
//! the branch's own key. Every branch, timed or not, advances the core
//! clock by the much smaller straight-line cost of `advance`.

use bscope_harness::splitmix64;

/// Stream tag of the latency draws (Gaussian jitter and spike).
const LATENCY_STREAM: u64 = 0x1A7E_4C7E_D1A7_0001;

/// Mean measured latency of a correctly predicted, i-cache-warm branch
/// (includes `rdtscp` serialisation overhead, as the paper measures).
const BASE_HIT_CYCLES: f64 = 85.0;
/// Mean extra cycles charged for a misprediction (pipeline restart).
const MISPREDICT_PENALTY: f64 = 50.0;
/// Standard deviation of the per-measurement Gaussian jitter.
const JITTER_SIGMA: f64 = 27.0;
/// Mean extra latency on a cold i-cache (first) execution.
const COLD_MISS_EXTRA: f64 = 22.0;
/// Extra jitter standard deviation applied to cold executions.
const COLD_JITTER_SIGMA: f64 = 26.0;
/// Probability that a measurement catches an unrelated stall (interrupt,
/// TLB walk, SMT contention) — the heavy upper tail in Fig. 7.
const SPIKE_PROBABILITY: f64 = 0.02;
/// Mean magnitude of such a spike, in cycles.
const SPIKE_CYCLES: f64 = 45.0;
/// Extra measured cycles when a *taken* branch misses the BTB (front-end
/// fetch redirect). This is the signal BTB-presence attacks time.
const BTB_MISS_TAKEN_EXTRA: f64 = 14.0;
/// A branch plus two `rdtscp` reads can never be arbitrarily fast; the
/// floor approximates the measurement overhead itself.
const LATENCY_FLOOR: f64 = BASE_HIT_CYCLES * 0.65;

/// Wall-clock cost of one branch in straight-line (untimed) code. Distinct
/// from the measured latency above: an `rdtscp`-bracketed branch
/// serialises the pipeline, while ordinary branches retire at throughput.
const THROUGHPUT_CYCLES: u64 = 2;
/// Extra wall-clock cycles a misprediction stalls the pipeline for.
const MISPREDICT_STALL: u64 = 18;
/// Extra wall-clock cycles for an instruction-cache miss.
const COLD_STALL: u64 = 30;
/// Wall-clock counterpart of the BTB-miss redirect bubble.
const BTB_MISS_TAKEN_STALL: u64 = 8;

/// [`advance`] for each combination of its three flags (bit 0
/// mispredicted, bit 1 cold, bit 2 taken BTB miss), so the per-branch
/// clock step is a table read with no branch on the flags.
const ADVANCE: [u64; 8] = {
    let mut table = [0; 8];
    let mut index = 0;
    while index < 8 {
        table[index] = THROUGHPUT_CYCLES
            + MISPREDICT_STALL * (index & 1) as u64
            + COLD_STALL * (index >> 1 & 1) as u64
            + BTB_MISS_TAKEN_STALL * (index >> 2) as u64;
        index += 1;
    }
    table
};

/// A short counter-based source of uniforms: a `splitmix64` chain keyed by
/// (core seed, foreground-branch index, stream tag).
///
/// Every draw is a pure function of that key, so a value is the same
/// whether it is computed eagerly on every branch or lazily on the few the
/// caller observes, and drawing it moves no other branch's value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draws(u64);

impl Draws {
    /// The draws of stream `stream` for foreground branch `index` of a core
    /// seeded with `seed`.
    pub(crate) fn new(seed: u64, index: u64, stream: u64) -> Self {
        Draws(splitmix64(seed ^ stream) ^ index)
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal sample via the Box–Muller transform.
    pub(crate) fn gaussian(&mut self) -> f64 {
        let u1 = 1.0 - self.unit(); // (0, 1], so the log is finite
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The latency an `rdtscp` pair around foreground branch `index` of a
/// core seeded with `seed` reads. A taken branch that missed the BTB
/// (`taken_btb_miss`) is additionally charged the front-end
/// fetch-redirect bubble — the signal prior BTB-presence attacks time
/// (§11).
///
/// A pure function of its arguments: the jitter and spike come from
/// the `(seed, index)` key, not from a shared stream.
#[must_use]
pub fn sample(seed: u64, index: u64, mispredicted: bool, cold: bool, taken_btb_miss: bool) -> u64 {
    let mut draws = Draws::new(seed, index, LATENCY_STREAM);
    let mut mean = BASE_HIT_CYCLES;
    let mut sigma = JITTER_SIGMA;
    if mispredicted {
        mean += MISPREDICT_PENALTY;
    }
    if taken_btb_miss {
        mean += BTB_MISS_TAKEN_EXTRA;
    }
    if cold {
        mean += COLD_MISS_EXTRA;
        sigma = (sigma * sigma + COLD_JITTER_SIGMA * COLD_JITTER_SIGMA).sqrt();
    }
    let mut cycles = mean + sigma * draws.gaussian();
    if draws.unit() < SPIKE_PROBABILITY {
        // Exponential spike: rare interrupts / SMT contention / TLB walks.
        cycles += SPIKE_CYCLES * -(1.0 - draws.unit()).ln();
    }
    cycles.max(LATENCY_FLOOR).round() as u64
}

/// Wall-clock cycles one branch costs in straight-line code — the amount
/// the core clock advances, timed or not. Unlike [`sample`], which models
/// a serialised `rdtscp`-bracketed measurement, ordinary branches retire
/// near throughput, stalling only on mispredictions, i-cache misses and
/// the BTB-miss redirect bubble of taken branches.
#[inline]
#[must_use]
pub(crate) fn advance(mispredicted: bool, cold: bool, taken_btb_miss: bool) -> u64 {
    ADVANCE[usize::from(mispredicted) | usize::from(cold) << 1 | usize::from(taken_btb_miss) << 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[u64]) -> f64 {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }

    /// `n` samples of one branch class, keyed by indices `0..n` of `seed`.
    fn samples(seed: u64, n: u64, mispredicted: bool, cold: bool) -> Vec<u64> {
        (0..n).map(|i| sample(seed, i, mispredicted, cold, false)).collect()
    }

    #[test]
    fn misprediction_costs_more_on_average() {
        let hits = samples(1, 20_000, false, false);
        let misses = samples(1, 20_000, true, false);
        let (mh, mm) = (mean_of(&hits), mean_of(&misses));
        assert!(
            mm - mh > 35.0,
            "miss mean {mm:.1} should exceed hit mean {mh:.1} by the penalty"
        );
        // Fig. 7 calibration: hit mean in the ~80s, miss mean in the ~130s.
        assert!((80.0..95.0).contains(&mh), "hit mean {mh:.1}");
        assert!((128.0..145.0).contains(&mm), "miss mean {mm:.1}");
    }

    #[test]
    fn cold_executions_are_slower_and_noisier() {
        let warm = samples(2, 20_000, false, false);
        let cold = samples(2, 20_000, false, true);
        assert!(mean_of(&cold) > mean_of(&warm) + 10.0);
        let var = |s: &[u64]| {
            let m = mean_of(s);
            s.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / s.len() as f64
        };
        assert!(var(&cold) > var(&warm), "cold variance must exceed warm variance");
    }

    #[test]
    fn single_measurement_overlap_matches_figure_8() {
        // With one warm measurement each, P(hit sample > miss sample) should
        // sit near 10% — the paper's single-measurement error rate for the
        // second (warm) execution.
        let n = 40_000u64;
        let wrong = (0..n)
            .filter(|&i| {
                sample(3, 2 * i, false, false, false) >= sample(3, 2 * i + 1, true, false, false)
            })
            .count();
        let rate = wrong as f64 / n as f64;
        assert!((0.05..0.18).contains(&rate), "overlap error rate {rate:.3}");
    }

    #[test]
    fn latency_respects_floor() {
        let floor = LATENCY_FLOOR as u64;
        assert!(samples(4, 10_000, false, false).iter().all(|&l| l >= floor));
    }

    #[test]
    fn a_sample_is_a_pure_function_of_its_key() {
        let once = sample(9, 17, true, false, false);
        assert_eq!(once, sample(9, 17, true, false, false));
        let by_index: Vec<u64> = (0..64).map(|i| sample(9, i, false, false, false)).collect();
        assert!(by_index.windows(2).any(|w| w[0] != w[1]), "indices draw independently");
        assert_ne!(samples(9, 64, false, false), samples(10, 64, false, false), "seeds differ");
    }

    #[test]
    fn gaussian_has_unit_moments() {
        let n = 100_000u64;
        let samples: Vec<f64> =
            (0..n).map(|i| Draws::new(5, i, LATENCY_STREAM).gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }
}
