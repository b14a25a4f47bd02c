//! The ladder's repeat timer: time one thing in isolation, repeat the
//! measurement, and report the distribution rather than a single sample.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Host nanoseconds per unit of work over repeated, isolated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Fastest repeat.
    pub min_ns: f64,
    /// Median repeat.
    pub median_ns: f64,
    /// Slowest repeat.
    pub max_ns: f64,
    /// Number of timed repeats.
    pub repeats: usize,
}

impl Timing {
    /// One-line rendering in `unit` (`1.0` = ns, `1e3` = µs, `1e6` = ms).
    #[must_use]
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        format!(
            "min {:.3} / median {:.3} / max {:.3} {unit} over {} repeats",
            self.min_ns / scale,
            self.median_ns / scale,
            self.max_ns / scale,
            self.repeats
        )
    }
}

/// Times `body` `repeats` times. Before each repeat, `prepare` builds fresh
/// state outside the timed region, so every repeat measures the same work
/// from the same starting state. `units` is how many units of work one call
/// of `body` performs (branches, bits, samples); results are per unit.
///
/// # Panics
///
/// Panics if `repeats` or `units` is zero.
pub fn time_repeated<S, T>(
    repeats: usize,
    units: u64,
    mut prepare: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> T,
) -> Timing {
    assert!(
        repeats > 0 && units > 0,
        "timing needs at least one repeat of one unit"
    );
    let per_unit: Vec<f64> = (0..repeats)
        .map(|_| {
            let mut state = prepare();
            let start = Instant::now();
            black_box(body(black_box(&mut state)));
            let ns = start.elapsed().as_nanos() as f64;
            drop(state);
            ns / units as f64
        })
        .collect();
    Timing {
        min_ns: per_unit.iter().copied().fold(f64::INFINITY, f64::min),
        median_ns: median(&per_unit),
        max_ns: per_unit.iter().copied().fold(0.0, f64::max),
        repeats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_ordered_and_grows_with_work() {
        let spin = |n: u64| (0..n).fold(0u64, |acc, x| black_box(acc.wrapping_add(x * x)));
        let small = time_repeated(5, 1, || (), |_| spin(1_000));
        let large = time_repeated(5, 1, || (), |_| spin(1_000_000));
        assert!(small.min_ns <= small.median_ns && small.median_ns <= small.max_ns);
        assert!(large.median_ns > small.median_ns, "{large:?} vs {small:?}");
        assert_eq!(large.repeats, 5);
    }
}
