//! Branch latency model, sampled only for branches the caller times.

use bscope_bpu::TimingParams;
use bscope_harness::splitmix64;

/// Stream tag of the latency draws (Gaussian jitter and spike).
const LATENCY_STREAM: u64 = 0x1A7E_4C7E_D1A7_0001;

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

/// Branch latency and clock-advance model.
///
/// The paper measures single branch instructions with back-to-back `rdtscp`
/// (§8, Fig. 7): correctly predicted branches average ≈85 cycles (including
/// measurement overhead), mispredicted ones sit ≈50 cycles higher, both with
/// substantial jitter and a heavy upper tail from unrelated stalls, and the
/// *first* (i-cache-cold) execution is slower and noisier — which is why the
/// paper's attacker discards the first measurement (Fig. 8).
///
/// A latency exists only where code brackets a branch with `rdtscp`, so
/// the core samples [`TimingModel::sample`] only for timed branches
/// ([`SimCore::execute_timed_branch_in`](crate::SimCore::execute_timed_branch_in)).
/// The sample is a Gaussian with parameters from [`TimingParams`], plus an
/// occasional exponential spike, drawn from the branch's own key.
#[derive(Debug, Clone)]
pub struct TimingModel {
    params: TimingParams,
    /// [`TimingModel::advance`] for each combination of its three flags,
    /// indexed by `stall_index`; computed once, so the per-branch clock
    /// step is a table read with no branch on the flags.
    advance: [u64; 8],
}

/// Index of a (mispredicted, cold, taken-BTB-miss) combination.
fn stall_index(mispredicted: bool, cold: bool, taken_btb_miss: bool) -> usize {
    usize::from(mispredicted) | usize::from(cold) << 1 | usize::from(taken_btb_miss) << 2
}

impl TimingModel {
    /// Model with the given parameters.
    #[must_use]
    pub fn new(params: TimingParams) -> Self {
        let stalls = [params.mispredict_stall, params.cold_stall, params.btb_miss_taken_stall];
        let advance = std::array::from_fn(|index| {
            let mut cycles = params.throughput_cycles;
            for (bit, stall) in stalls.into_iter().enumerate() {
                if index >> bit & 1 == 1 {
                    cycles += stall;
                }
            }
            cycles.max(1.0).round() as u64
        });
        TimingModel { params, advance }
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
    pub fn sample(
        &self,
        seed: u64,
        index: u64,
        mispredicted: bool,
        cold: bool,
        taken_btb_miss: bool,
    ) -> u64 {
        let p = &self.params;
        let mut draws = Draws::new(seed, index, LATENCY_STREAM);
        let mut mean = p.base_hit_cycles;
        let mut sigma = p.jitter_sigma;
        if mispredicted {
            mean += p.mispredict_penalty;
        }
        if taken_btb_miss {
            mean += p.btb_miss_taken_extra;
        }
        if cold {
            mean += p.cold_miss_extra;
            sigma = (sigma * sigma + p.cold_jitter_sigma * p.cold_jitter_sigma).sqrt();
        }
        let mut cycles = mean + sigma * draws.gaussian();
        if draws.unit() < p.spike_probability {
            // Exponential spike: rare interrupts / SMT contention / TLB walks.
            cycles += p.spike_cycles * -(1.0 - draws.unit()).ln();
        }
        // A branch plus two rdtscp reads can never be arbitrarily fast; the
        // floor approximates the measurement overhead itself.
        let floor = (p.base_hit_cycles * 0.65).max(1.0);
        cycles.max(floor).round() as u64
    }

    /// Wall-clock cycles one branch costs in straight-line code — the
    /// amount the core clock advances, timed or not. Unlike
    /// [`TimingModel::sample`], which models a serialised
    /// `rdtscp`-bracketed measurement, ordinary branches retire near
    /// throughput, stalling only on mispredictions, i-cache misses and the
    /// BTB-miss redirect bubble of taken branches.
    #[inline]
    #[must_use]
    pub fn advance(&self, mispredicted: bool, cold: bool, taken_btb_miss: bool) -> u64 {
        self.advance[stall_index(mispredicted, cold, taken_btb_miss)]
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::new(TimingParams::paper_calibrated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[u64]) -> f64 {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }

    /// `n` samples of one branch class, keyed by indices `0..n` of `seed`.
    fn samples(seed: u64, n: u64, mispredicted: bool, cold: bool) -> Vec<u64> {
        let model = TimingModel::default();
        (0..n).map(|i| model.sample(seed, i, mispredicted, cold, false)).collect()
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
        let model = TimingModel::default();
        let n = 40_000u64;
        let wrong = (0..n)
            .filter(|&i| {
                model.sample(3, 2 * i, false, false, false)
                    >= model.sample(3, 2 * i + 1, true, false, false)
            })
            .count();
        let rate = wrong as f64 / n as f64;
        assert!((0.05..0.18).contains(&rate), "overlap error rate {rate:.3}");
    }

    #[test]
    fn latency_respects_floor() {
        let floor = (TimingParams::paper_calibrated().base_hit_cycles * 0.65) as u64;
        assert!(samples(4, 10_000, false, false).iter().all(|&l| l >= floor));
    }

    #[test]
    fn a_sample_is_a_pure_function_of_its_key() {
        let model = TimingModel::default();
        let once = model.sample(9, 17, true, false, false);
        assert_eq!(once, model.sample(9, 17, true, false, false));
        let by_index: Vec<u64> = (0..64).map(|i| model.sample(9, i, false, false, false)).collect();
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
