//! The arithmetic every reported number goes through: percentiles,
//! median-of-trials and MAD. Kept apart so it can be unit-tested without
//! sockets or clocks.

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice.
/// `None` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied()
}

/// Sort a sample in place and return it, NaN-safe.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the even-count midpoint rule (what
/// `statistics.median` computes, so our medians line up with the
/// driver's).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n == 0 {
        return None;
    }
    let hi = *s.get(n / 2)?;
    if n % 2 == 1 {
        return Some(hi);
    }
    let lo = *s.get(n / 2 - 1)?;
    Some((lo + hi) / 2.0)
}

/// Median absolute deviation around the median.
pub fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// One number reported as the median over trials, with the evidence
/// beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// How many per-trial (or per-batch) values the median is over.
    pub n: usize,
}

/// Median / min / max over per-trial values. `None` when no trial
/// produced a value.
pub fn summarize(per_trial: &[f64]) -> Option<Summary> {
    let s = sorted(per_trial.to_vec());
    Some(Summary { median: median(&s)?, min: *s.first()?, max: *s.last()?, n: s.len() })
}

/// The distribution of one sampler row: per-call nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    pub mad: f64,
    pub n: usize,
}

impl Spread {
    /// The same distribution in another unit: every column divided by `k`.
    pub fn divided_by(self, k: f64) -> Spread {
        Spread {
            median: self.median / k,
            p10: self.p10 / k,
            p90: self.p90 / k,
            mad: self.mad / k,
            n: self.n,
        }
    }
}

pub fn spread(values: &[f64]) -> Option<Spread> {
    let s = sorted(values.to_vec());
    Some(Spread {
        median: median(&s)?,
        p10: percentile_sorted(&s, 0.10)?,
        p90: percentile_sorted(&s, 0.90)?,
        mad: mad(&s)?,
        n: s.len(),
    })
}

/// Latencies of one trial reduced to the figures a trial contributes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialFigures {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// Reduce one trial: `latencies_us` are its completed operations,
/// `secs` its length. `None` when the trial completed nothing.
pub fn trial_figures(latencies_us: Vec<f64>, secs: f64) -> Option<TrialFigures> {
    let s = sorted(latencies_us);
    Some(TrialFigures {
        ops_per_s: s.len() as f64 / secs,
        p50_us: percentile_sorted(&s, 0.50)?,
        p90_us: percentile_sorted(&s, 0.90)?,
        p99_us: percentile_sorted(&s, 0.99)?,
        samples: s.len(),
    })
}

/// `(b - a) / a`, the relative difference the noise report prints.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    (b - a) / a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), Some(5.0));
        assert_eq!(percentile_sorted(&s, 0.9), Some(9.0));
        assert_eq!(percentile_sorted(&s, 0.99), Some(10.0));
        assert_eq!(percentile_sorted(&s, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&s, 1.0), Some(10.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(percentile_sorted(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_uses_the_midpoint_on_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mad_is_the_median_distance_from_the_median() {
        // median 3; distances 2 1 0 1 7 -> sorted 0 1 1 2 7 -> 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 10.0]), Some(1.0));
        assert_eq!(mad(&[5.0, 5.0, 5.0]), Some(0.0));
    }

    #[test]
    fn median_of_trials_ignores_one_bad_trial() {
        // Nine quiet trials and one that hit a scheduler hiccup.
        let mut per_trial = vec![100.0; 9];
        per_trial.push(900.0);
        let s = summarize(&per_trial).unwrap();
        assert_eq!(s.median, 100.0);
        assert_eq!((s.min, s.max, s.n), (100.0, 900.0, 10));
    }

    #[test]
    fn trial_figures_count_throughput_over_the_trial_length() {
        let lat: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = trial_figures(lat, 2.0).unwrap();
        assert_eq!(t.ops_per_s, 100.0);
        assert_eq!((t.p50_us, t.p90_us, t.p99_us), (100.0, 180.0, 198.0));
        assert_eq!(t.samples, 200);
        assert!(trial_figures(Vec::new(), 2.0).is_none());
    }

    #[test]
    fn spread_reports_the_sampler_columns() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert_eq!((s.median, s.p10, s.p90, s.n), (15.5, 3.0, 27.0, 30));
        assert_eq!(s.mad, 7.5);
    }

    #[test]
    fn rel_diff_is_signed_and_relative_to_the_first() {
        assert_eq!(rel_diff(100.0, 110.0), 0.10);
        assert_eq!(rel_diff(100.0, 95.0), -0.05);
        assert_eq!(rel_diff(0.0, 5.0), 0.0);
    }
}
