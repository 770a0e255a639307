//! Small statistics helpers used by the experiment harness: means,
//! standard deviations, percentiles and a time-series sampler.

use crate::time::{SimDuration, SimTime};

/// Arithmetic mean; zero for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; zero for fewer than two samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// NaN-safe summary of a sample: non-finite values (NaN, ±inf) are counted
/// and excluded instead of poisoning every downstream aggregate — the same
/// discipline as [`Percentiles`]' `total_cmp` sort, which parks NaNs at the
/// tail rather than panicking mid-experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Finite samples that entered the aggregates.
    pub n: usize,
    /// Non-finite samples that were dropped.
    pub dropped: usize,
    /// Mean of the finite samples; zero when none.
    pub mean: f64,
    /// Sample (n−1) standard deviation of the finite samples; zero for
    /// fewer than two.
    pub stddev: f64,
    /// Half-width of the 95% confidence interval of the mean (normal
    /// approximation, `1.96·s/√n`); zero for fewer than two samples.
    pub ci95: f64,
}

/// Summarize a sample, skipping non-finite values.
pub fn summarize(xs: &[f64]) -> Summary {
    let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    let n = finite.len();
    let dropped = xs.len() - n;
    if n == 0 {
        return Summary {
            dropped,
            ..Summary::default()
        };
    }
    let mean = finite.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return Summary {
            n,
            dropped,
            mean,
            ..Summary::default()
        };
    }
    let var = finite.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
    let stddev = var.sqrt();
    Summary {
        n,
        dropped,
        mean,
        stddev,
        ci95: 1.96 * stddev / (n as f64).sqrt(),
    }
}

/// Percentile by the nearest-rank method (`p` in `[0, 100]`). Returns zero
/// for an empty slice.
///
/// Sorts a copy of the input on every call; when several percentiles of
/// the same sample are needed (the common case in experiment tables),
/// build a [`Percentiles`] once instead.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    Percentiles::from_slice(xs).p(p)
}

/// A sorted sample that serves any number of nearest-rank percentile
/// queries after a single sort.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Take ownership of the sample and sort it once. NaNs sort to the
    /// end (IEEE total order) instead of panicking the whole experiment;
    /// a sample poisoned by NaN then shows up as a NaN tail percentile,
    /// which is debuggable, where a panic mid-run loses the figure.
    pub fn new(mut xs: Vec<f64>) -> Self {
        xs.sort_by(|a, b| a.total_cmp(b));
        Percentiles { sorted: xs }
    }

    /// Copy the sample and sort it once.
    pub fn from_slice(xs: &[f64]) -> Self {
        Self::new(xs.to_vec())
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`); zero when empty.
    pub fn p(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.p(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.p(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.p(99.0)
    }

    /// 99.9th percentile (SLO tail reporting).
    pub fn p999(&self) -> f64 {
        self.p(99.9)
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

/// Samples a cumulative byte counter into fixed-width time buckets, giving a
/// throughput-over-time series (used for the Figure 1 recovery plot).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket: SimDuration,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// A series with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket.as_nanos() > 0, "bucket width must be positive");
        TimeSeries {
            bucket,
            buckets: Vec::new(),
        }
    }

    /// Add `bytes` at time `now` to the containing bucket.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        let idx = (now.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes;
    }

    /// Per-bucket throughput in MB/s.
    pub fn mbps(&self) -> Vec<f64> {
        let secs = self.bucket.as_secs_f64();
        self.buckets
            .iter()
            .map(|&b| b as f64 / 1e6 / secs)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        let s = stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summarize_known_values() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert_eq!(s.dropped, 0);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stddev of the classic set: sqrt(32/7).
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * s.stddev / 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summarize_is_nan_safe() {
        let s = summarize(&[1.0, f64::NAN, 3.0, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(s.n, 2);
        assert_eq!(s.dropped, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(s.stddev.is_finite() && s.ci95.is_finite());
        // All-NaN input degrades to zeros, not NaN.
        let all_bad = summarize(&[f64::NAN, f64::NAN]);
        assert_eq!(all_bad.n, 0);
        assert_eq!(all_bad.dropped, 2);
        assert_eq!(all_bad.mean, 0.0);
        assert_eq!(all_bad.ci95, 0.0);
    }

    #[test]
    fn summarize_degenerate_sizes() {
        assert_eq!(summarize(&[]), Summary::default());
        let one = summarize(&[5.0]);
        assert_eq!((one.n, one.mean, one.stddev, one.ci95), (1, 5.0, 0.0, 0.0));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // p999 distinguishes the extreme tail once the sample is big
        // enough for the nearest rank to move past p99.
        let big: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        let ps = Percentiles::new(big);
        // Nearest-rank with binary 0.99/0.999 can land one rank high.
        assert!((9900.0..=9901.0).contains(&ps.p99()), "{}", ps.p99());
        assert!((9990.0..=9991.0).contains(&ps.p999()), "{}", ps.p999());
        assert!(ps.p999() > ps.p99());
        assert_eq!(Percentiles::new(vec![]).p999(), 0.0);
    }

    #[test]
    fn percentiles_struct_sorts_once_and_agrees() {
        let xs = vec![5.0, 1.0, 9.0, 3.0, 7.0];
        let ps = Percentiles::new(xs.clone());
        for p in [0.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(ps.p(p), percentile(&xs, p));
        }
        assert_eq!(ps.p50(), 5.0);
        assert_eq!(ps.max(), 9.0);
        assert_eq!(ps.len(), 5);
        assert!(Percentiles::new(vec![]).is_empty());
        assert_eq!(Percentiles::new(vec![]).p(50.0), 0.0);
    }

    #[test]
    fn time_series_buckets() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_nanos(100), 1_000_000);
        ts.record(SimTime::from_nanos(1_500_000_000), 2_000_000);
        ts.record(SimTime::from_nanos(1_600_000_000), 1_000_000);
        let mbps = ts.mbps();
        assert_eq!(mbps.len(), 2);
        assert!((mbps[0] - 1.0).abs() < 1e-9);
        assert!((mbps[1] - 3.0).abs() < 1e-9);
    }
}
