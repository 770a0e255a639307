//! A small metrics registry: named counters, time-series gauges, and
//! fixed-bucket latency histograms. Everything is sampled on the
//! simulated clock, so two runs of the same workload produce identical
//! registries — metrics are part of the deterministic output, not a
//! wall-clock side channel.

use sim_core::SimTime;
use std::collections::BTreeMap;

/// Upper bounds (milliseconds) of the fixed histogram buckets; one
/// implicit overflow bucket sits above the last bound.
pub(crate) const LATENCY_BUCKETS_MS: [f64; 14] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
];

/// A fixed-bucket latency histogram (milliseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; LATENCY_BUCKETS_MS.len() + 1],
    count: u64,
    sum_ms: f64,
    max_ms: f64,
    dropped: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; LATENCY_BUCKETS_MS.len() + 1],
            count: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
            dropped: 0,
        }
    }
}

impl Histogram {
    /// Record one observation. Non-finite values would poison `sum_ms`
    /// and every derived mean, so they are dropped and counted instead
    /// (in `dropped`). Counters saturate rather than wrap: a metrics
    /// plane must never panic the run it observes.
    pub(crate) fn observe_ms(&mut self, ms: f64) {
        if !ms.is_finite() {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        let idx = LATENCY_BUCKETS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_ms += ms;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (ms).
    pub(crate) fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// Mean observation (ms); zero when empty.
    pub(crate) fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Largest observation (ms).
    pub(crate) fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Approximate quantile (0..=1) as the upper bound of the bucket the
    /// rank falls into; the overflow bucket reports the observed max.
    pub(crate) fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < LATENCY_BUCKETS_MS.len() {
                    LATENCY_BUCKETS_MS[i]
                } else {
                    self.max_ms
                };
            }
        }
        self.max_ms
    }
}

/// Cap on retained samples per gauge; overflow is counted, not kept.
const GAUGE_SAMPLE_CAP: usize = 1 << 16;

/// Named counters, gauges, and histograms. Names are dotted paths
/// (`block.dispatched`, `cache.dirty_pages`); per-key variants append
/// `/key` (`sched.tokens/3` for pid 3's token level).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Vec<(SimTime, f64)>>,
    hists: BTreeMap<String, Histogram>,
    gauge_dropped: u64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name`, creating it at zero. Saturates at
    /// `u64::MAX` instead of overflowing.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v = v.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Append one gauge sample. Samples past the per-gauge cap are
    /// dropped (and counted) so long runs stay bounded.
    pub(crate) fn gauge(&mut self, name: &str, now: SimTime, value: f64) {
        let series = if let Some(s) = self.gauges.get_mut(name) {
            s
        } else {
            self.gauges.entry(name.to_string()).or_default()
        };
        if series.len() >= GAUGE_SAMPLE_CAP {
            self.gauge_dropped += 1;
            return;
        }
        series.push((now, value));
    }

    /// Record one histogram observation (milliseconds).
    pub fn observe_ms(&mut self, name: &str, ms: f64) {
        if let Some(h) = self.hists.get_mut(name) {
            h.observe_ms(ms);
        } else {
            self.hists
                .entry(name.to_string())
                .or_default()
                .observe_ms(ms);
        }
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if any observation was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All counters, sorted by name.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &[(SimTime, f64)])> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// All histograms, sorted by name.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Counters and histogram summaries as CSV
    /// (`kind,name,count,sum_ms,mean_ms,max_ms,p50_ms,p99_ms`).
    pub fn summary_csv(&self) -> String {
        let mut out = String::from("kind,name,count,sum_ms,mean_ms,max_ms,p50_ms,p99_ms\n");
        for (name, v) in self.counters() {
            out.push_str(&format!("counter,{name},{v},,,,,\n"));
        }
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "histogram,{name},{},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
                h.count(),
                h.sum_ms(),
                h.mean_ms(),
                h.max_ms(),
                h.quantile_ms(0.50),
                h.quantile_ms(0.99),
            ));
        }
        out
    }

    /// Every gauge sample as CSV (`name,t_s,value`).
    pub fn gauges_csv(&self) -> String {
        let mut out = String::from("name,t_s,value\n");
        for (name, series) in self.gauges() {
            for (t, v) in series {
                out.push_str(&format!("{name},{:.6},{v}\n", t.as_secs_f64()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe_ms(0.3); // bucket ≤0.5
        }
        for _ in 0..10 {
            h.observe_ms(40.0); // bucket ≤50
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ms(0.5), 0.5);
        assert_eq!(h.quantile_ms(0.95), 50.0);
        assert!((h.mean_ms() - (90.0 * 0.3 + 10.0 * 40.0) / 100.0).abs() < 1e-9);
        h.observe_ms(5000.0); // overflow bucket reports max
        assert_eq!(h.quantile_ms(1.0), 5000.0);
    }

    #[test]
    fn registry_counters_gauges_hists() {
        let mut r = Registry::new();
        r.add("block.dispatched", 2);
        r.add("block.dispatched", 3);
        assert_eq!(r.counter("block.dispatched"), 5);
        assert_eq!(r.counter("missing"), 0);

        r.gauge("cache.dirty_pages", SimTime::from_nanos(1_000_000), 10.0);
        r.gauge("cache.dirty_pages", SimTime::from_nanos(2_000_000), 12.0);
        assert_eq!(r.gauges["cache.dirty_pages"].len(), 2);

        r.observe_ms("syscall.fsync_ms", 3.0);
        assert_eq!(r.histogram("syscall.fsync_ms").unwrap().count(), 1);

        let csv = r.summary_csv();
        assert!(csv.contains("counter,block.dispatched,5"));
        assert!(csv.contains("histogram,syscall.fsync_ms,1"));
        assert!(r.gauges_csv().contains("cache.dirty_pages,"));
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut r = Registry::new();
        r.add("c", u64::MAX - 1);
        r.add("c", 5);
        assert_eq!(r.counter("c"), u64::MAX);

        let mut h = Histogram::default();
        h.counts[0] = u64::MAX;
        h.count = u64::MAX;
        h.observe_ms(0.01);
        assert_eq!(h.count(), u64::MAX, "saturates, no panic in debug");
    }

    #[test]
    fn non_finite_observations_are_dropped_and_counted() {
        let mut h = Histogram::default();
        h.observe_ms(f64::NAN);
        h.observe_ms(f64::INFINITY);
        h.observe_ms(f64::NEG_INFINITY);
        h.observe_ms(1.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.dropped, 3);
        assert!((h.mean_ms() - 1.0).abs() < 1e-12, "mean stays finite");
    }

    #[test]
    fn empty_histogram_quantiles_are_defined() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ms(0.0), 0.0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.quantile_ms(1.0), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
    }

    #[test]
    fn gauge_cap_counts_drops() {
        let mut r = Registry::new();
        for i in 0..(GAUGE_SAMPLE_CAP + 5) {
            r.gauge("g", SimTime::from_nanos(i as u64), i as f64);
        }
        assert_eq!(r.gauges["g"].len(), GAUGE_SAMPLE_CAP);
        assert_eq!(r.gauge_dropped, 5);
    }
}
