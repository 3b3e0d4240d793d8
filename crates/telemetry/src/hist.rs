//! Fixed-bucket latency histograms with deterministic quantile summaries.
//!
//! The buckets are powers of two over the full `u64` nanosecond range, so
//! recording is a constant-time bit-length computation with no allocation
//! and no configuration to get wrong. Quantiles interpolate linearly inside
//! the selected bucket over bounds tightened to the observed `[min, max]`,
//! with a single-sample bucket pinned to its lower bound — so a one-sample
//! histogram reports that sample at every quantile and a lone outlier
//! bucket never reports its raw upper edge.

/// Number of buckets: one for zero plus one per possible bit length.
const BUCKETS: usize = 65;

/// A power-of-two-bucket histogram of `u64` samples (nanoseconds).
///
/// Bucket `0` holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]` (the last bucket's upper bound saturates at
/// `u64::MAX`).
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The quantile triple every report prints (Table 5.2-style accounting
/// plus tail visibility for the hot-path work the ROADMAP targets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Lower bound of bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Upper bound of bucket `i` (inclusive; saturates for the top bucket).
    fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), or `None` for an empty histogram.
    ///
    /// Rank selection is "nearest rank with interpolation": the returned
    /// value lies inside the bucket holding the `ceil(q * count)`-th sample.
    /// Within a bucket of `n` samples the rank interpolates over the
    /// *effective* bucket range — the bucket bounds tightened to the
    /// observed global `[min, max]` — with the first in-bucket rank pinned
    /// to the effective lower bound. A bucket holding one sample therefore
    /// reports that bound rather than the bucket's upper edge, so a
    /// single-sample histogram (or a lone outlier bucket) never invents a
    /// value larger than anything recorded near it.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are known exactly: the first-ranked sample is
        // the observed minimum and the last-ranked the observed maximum.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = Self::bucket_lo(i).max(self.min) as f64;
                let hi = Self::bucket_hi(i).min(self.max) as f64;
                // Rank 1 of n sits at the lower bound, rank n at the upper:
                // frac = (rank_in_bucket - 1) / (n - 1), degenerate n = 1
                // pinned to the lower bound.
                let frac = if n <= 1 { 0.0 } else { (rank - seen - 1) as f64 / (n - 1) as f64 };
                let v = lo + (hi - lo) * frac;
                // f64 can overshoot u64::MAX for the top bucket; saturate
                // before the min/max clamp.
                let v = if v >= u64::MAX as f64 { u64::MAX } else { v as u64 };
                return Some(v.clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Count / sum / min / max / p50 / p95 / p99, or `None` when empty.
    pub fn summary(&self) -> Option<Summary> {
        if self.count == 0 {
            return None;
        }
        Some(Summary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50)?,
            p95: self.quantile(0.95)?,
            p99: self.quantile(0.99)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 1..=64usize {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_lo(i)), i);
            assert_eq!(Histogram::bucket_index(Histogram::bucket_hi(i)), i);
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(777), "q={q}");
        }
        let s = h.summary().unwrap();
        assert_eq!((s.count, s.sum, s.min, s.max), (1, 777, 777, 777));
        assert_eq!((s.p50, s.p95, s.p99), (777, 777, 777));
    }

    #[test]
    fn saturated_top_bucket_clamps_to_observed_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 5);
        assert_eq!(h.quantile(0.99), Some(u64::MAX));
        assert_eq!(h.quantile(0.01), Some(u64::MAX - 5));
    }

    #[test]
    fn quantiles_are_monotone_and_within_range() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((1..=1000).contains(&p50));
        // With log2 buckets the error is at most the width of one bucket.
        assert!((384..=1000).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 512, "p99 = {p99}");
    }

    #[test]
    fn single_sample_bucket_reports_its_bound_not_the_bucket_edge() {
        // Two samples in *different* buckets: 5 lands in [4, 7], 100 in
        // [64, 127]. The p50 rank selects the bucket holding only 5; the
        // old interpolation returned the bucket's upper edge (7), a value
        // that was never recorded.
        let mut h = Histogram::new();
        h.record(5);
        h.record(100);
        assert_eq!(h.quantile(0.50), Some(5));
        assert_eq!(h.quantile(0.99), Some(100));
    }

    #[test]
    fn two_samples_in_one_bucket_interpolate_between_them() {
        // 5 and 6 share bucket [4, 7]: rank 1 pins to the observed min,
        // rank 2 to the observed max — never 4 or 7.
        let mut h = Histogram::new();
        h.record(5);
        h.record(6);
        assert_eq!(h.quantile(0.25), Some(5));
        assert_eq!(h.quantile(0.99), Some(6));
    }

    #[test]
    fn samples_exactly_on_bucket_boundaries_stay_exact() {
        // Powers of two sit on bucket lower bounds; each bucket holds one
        // sample, so every quantile must return a recorded power of two.
        let mut h = Histogram::new();
        for exp in 0..=10u32 {
            h.record(1u64 << exp);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let v = h.quantile(q).unwrap();
            assert!(v.is_power_of_two(), "q={q} gave {v}");
        }
        assert_eq!(h.quantile(0.01), Some(1));
        assert_eq!(h.quantile(0.99), Some(1024));
    }

    #[test]
    fn p99_of_single_sample_equals_the_sample_without_min_max_rescue() {
        // The regression this guards: 1000 lands in bucket [512, 1023] and
        // the interpolation itself (not just the global [min, max] clamp)
        // must pin a lone sample to its bound. Pair it with a smaller
        // cohabitant of a lower bucket so the clamp cannot mask a bad edge.
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(3);
        h.record(1000);
        assert_eq!(h.quantile(0.99), Some(1000));
        assert_eq!(h.quantile(0.5), Some(3));
    }

    #[test]
    fn zero_samples_land_in_the_zero_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.summary().unwrap().max, 0);
    }
}
