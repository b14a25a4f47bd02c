//! Order statistics over host-time samples.

/// The `q` quantile of `values` (`0.0..=1.0`), interpolating linearly
/// between order statistics; `NaN` when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// as `(percentile, value)`. With `n` samples that is the value at sorted
/// rank `n - 11`, the `100 * (n - 10) / n`th percentile. `None` when there
/// are too few samples to have any such percentile.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((percentile, sorted[n - TAIL_BEYOND - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let values: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&values, 0.0), 0.0);
        assert_eq!(quantile(&values, 0.1), 1.0);
        assert_eq!(quantile(&values, 0.25), 2.5);
        assert_eq!(quantile(&values, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&values).expect("enough samples");
        assert_eq!(p, 90.0);
        assert_eq!(v, 90.0);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert!(tail(&values[..10]).is_none());
    }
}
