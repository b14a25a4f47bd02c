//! Counters and latency histograms derived from trace events.

use crate::event::TraceEvent;
use std::collections::BTreeMap;

/// Number of log2 buckets: one for zero, one per bit position of a `u64`.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples with exact count, sum, min
/// and max.
///
/// Bucket `0` holds the value `0`; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. Percentiles are therefore bucket-resolution
/// approximations (the reported value is the lower bound of the bucket the
/// rank falls in) while the mean is exact — good enough to tell an
/// 85-cycle predicted branch from a 135-cycle mispredicted one at zero
/// allocation cost, which is what this histogram exists for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; BUCKETS] }
    }
}

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Lower bound of bucket `b` (the value a percentile query reports).
fn bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the samples (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`0` when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (`0` when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket-resolution percentile: the lower bound of the bucket the
    /// nearest-rank `p` (in `0.0..=100.0`) falls in; `0` when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(b);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, n) in self.buckets.iter_mut().zip(other.buckets) {
            *b += n;
        }
    }
}

/// Named monotonic counters plus named log2-bucketed latency histograms.
///
/// Keys are `&'static str` so the per-event hot path performs no
/// allocation; `BTreeMap` keeps [`MetricsRegistry::summary`] output in a
/// deterministic order. Registries from independent trials merge
/// commutatively (counters add, histograms combine), so a per-experiment
/// aggregate is identical for every thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Adds `by` to the named counter.
    fn incr(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Records a sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Current value of a counter (`0` if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds a trace event into the standard counters and histograms:
    /// `branches`, `mispredicts`, `two_level_predictions`, `btb_hits`,
    /// `btb_installs`, `noise_branches`, per-span `spans/...` counts and
    /// the `branch_latency` histogram (timed branches only).
    pub fn observe_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Branch { mispredicted, two_level, btb_hit, latency, .. } => {
                self.incr("branches", 1);
                if mispredicted {
                    self.incr("mispredicts", 1);
                }
                if two_level {
                    self.incr("two_level_predictions", 1);
                }
                if btb_hit {
                    self.incr("btb_hits", 1);
                }
                if let Some(latency) = latency {
                    self.observe("branch_latency", latency);
                }
            }
            TraceEvent::BtbInstall { .. } => self.incr("btb_installs", 1),
            TraceEvent::NoiseBurst { injected } => {
                self.incr("noise_branches", u64::from(injected));
            }
            TraceEvent::SpanBegin { span, .. } => self.incr(span.counter_key(), 1),
            TraceEvent::SpanEnd { .. } => {}
        }
    }

    /// Folds another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&name, &v) in &other.counters {
            self.incr(name, v);
        }
        for (&name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Flattens the registry into `(name, value)` pairs in deterministic
    /// (sorted) order: counters verbatim, each histogram as
    /// `_count`/`_mean`/`_min`/`_p50`/`_p90`/`_p99`/`_max` entries.
    #[must_use]
    pub fn summary(&self) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(self.counters.len() + self.histograms.len() * 7);
        for (&name, &v) in &self.counters {
            out.push((name.to_owned(), v as f64));
        }
        for (&name, h) in &self.histograms {
            out.push((format!("{name}_count"), h.count() as f64));
            out.push((format!("{name}_mean"), h.mean()));
            out.push((format!("{name}_min"), h.min() as f64));
            out.push((format!("{name}_p50"), h.percentile(50.0) as f64));
            out.push((format!("{name}_p90"), h.percentile(90.0) as f64));
            out.push((format!("{name}_p99"), h.percentile(99.0) as f64));
            out.push((format!("{name}_max"), h.max() as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Span;

    #[test]
    fn histogram_tracks_exact_count_sum_min_max() {
        let mut h = Histogram::default();
        for v in [85u64, 90, 135, 140, 88] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 85);
        assert_eq!(h.max(), 140);
        assert!((h.mean() - 107.6).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles_are_bucket_floors() {
        let mut h = Histogram::default();
        // 90 samples in [64, 128), 10 in [128, 256).
        for _ in 0..90 {
            h.observe(100);
        }
        for _ in 0..10 {
            h.observe(200);
        }
        assert_eq!(h.percentile(50.0), 64);
        assert_eq!(h.percentile(99.0), 128);
        assert_eq!(h.percentile(100.0), 128);
        // Zero lands in its own bucket.
        let mut z = Histogram::default();
        z.observe(0);
        assert_eq!(z.percentile(50.0), 0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let sample = |vals: &[u64]| {
            let mut r = MetricsRegistry::default();
            for &v in vals {
                r.observe_event(&TraceEvent::Branch {
                    ctx: 0,
                    addr: 1,
                    taken: true,
                    predicted_taken: v > 100,
                    mispredicted: v > 100,
                    two_level: false,
                    btb_hit: true,
                    latency: Some(v),
                });
            }
            r
        };
        let (a, b) = (sample(&[85, 90, 135]), sample(&[140, 88]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("branches"), 5);
        assert_eq!(ab.counter("mispredicts"), 2);
        assert!(ab.summary().contains(&("branch_latency_count".to_owned(), 5.0)));
    }

    #[test]
    fn observe_event_covers_the_vocabulary() {
        let mut r = MetricsRegistry::default();
        r.observe_event(&TraceEvent::BtbInstall { addr: 1, target: 2 });
        r.observe_event(&TraceEvent::NoiseBurst { injected: 4 });
        r.observe_event(&TraceEvent::SpanBegin { span: Span::Prime, tsc: 0 });
        r.observe_event(&TraceEvent::SpanEnd { span: Span::Prime, tsc: 9 });
        assert_eq!(r.counter("btb_installs"), 1);
        assert_eq!(r.counter("noise_branches"), 4);
        assert_eq!(r.counter("spans/prime"), 1);
    }

    #[test]
    fn summary_is_sorted_and_complete() {
        let mut r = MetricsRegistry::default();
        r.incr("branches", 3);
        r.incr("mispredicts", 1);
        r.observe("branch_latency", 85);
        let summary = r.summary();
        let names: Vec<&str> = summary.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted_counters = names[..2].to_vec();
        sorted_counters.sort_unstable();
        assert_eq!(&names[..2], &sorted_counters[..], "counters in sorted order");
        assert!(names.contains(&"branch_latency_mean"));
        assert!(names.contains(&"branch_latency_p99"));
        assert_eq!(summary[0], ("branches".to_owned(), 3.0));
    }
}
