//! Fleet-wide SLO reporting: per-tier and end-to-end latency
//! percentiles over the request samples, exported through the
//! `sim-trace` [`Registry`].

use sim_core::stats::Percentiles;
use sim_trace::Registry;

use crate::shard::{ReqKind, ReqSample};

/// Latency percentiles for one tier of the request path.
#[derive(Debug, Clone)]
pub struct TierSlo {
    /// Tier label (`put e2e`, `put wal`, …).
    pub name: &'static str,
    /// Samples in the tier.
    pub count: usize,
    /// Median, ms.
    pub p50: f64,
    /// 99th percentile, ms.
    pub p99: f64,
    /// 99.9th percentile, ms.
    pub p999: f64,
    /// Worst observed, ms.
    pub max: f64,
}

impl TierSlo {
    fn from_values(name: &'static str, values: &[f64]) -> TierSlo {
        let p = Percentiles::from_slice(values);
        TierSlo {
            name,
            count: p.len(),
            p50: p.p50(),
            p99: p.p99(),
            p999: p.p999(),
            max: p.max(),
        }
    }

    fn render_row(&self, out: &mut String) {
        out.push_str(&format!(
            "  {:<14} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>9.2}\n",
            self.name, self.count, self.p50, self.p99, self.p999, self.max
        ));
    }
}

/// The fleet's SLO table: end-to-end and per-tier percentiles for both
/// request classes.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Put end-to-end (client → quorum commit → client).
    pub put_e2e: TierSlo,
    /// Leader WAL write+fsync service tier.
    pub put_wal: TierSlo,
    /// Replication tier (local durability → quorum).
    pub put_repl: TierSlo,
    /// Get end-to-end.
    pub get_e2e: TierSlo,
    /// Replica read service tier.
    pub get_read: TierSlo,
}

impl SloReport {
    /// Compute the table from raw samples.
    pub fn compute(samples: &[ReqSample]) -> SloReport {
        let mut put_e2e = Vec::new();
        let mut put_wal = Vec::new();
        let mut put_repl = Vec::new();
        let mut get_e2e = Vec::new();
        let mut get_read = Vec::new();
        for s in samples {
            match s.kind {
                ReqKind::Put => {
                    put_e2e.push(s.e2e_ms);
                    put_wal.push(s.service_ms);
                    put_repl.push(s.repl_ms);
                }
                ReqKind::Get => {
                    get_e2e.push(s.e2e_ms);
                    get_read.push(s.service_ms);
                }
            }
        }
        SloReport {
            put_e2e: TierSlo::from_values("put e2e", &put_e2e),
            put_wal: TierSlo::from_values("put wal", &put_wal),
            put_repl: TierSlo::from_values("put repl", &put_repl),
            get_e2e: TierSlo::from_values("get e2e", &get_e2e),
            get_read: TierSlo::from_values("get read", &get_read),
        }
    }

    /// The SLO table, header included.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<14} {:>8} {:>9} {:>9} {:>9} {:>9}\n",
            "tier (ms)", "count", "p50", "p99", "p999", "max"
        ));
        for t in self.tiers() {
            t.render_row(&mut out);
        }
        out
    }

    /// All tiers, table order.
    pub fn tiers(&self) -> [&TierSlo; 5] {
        [
            &self.put_e2e,
            &self.put_wal,
            &self.put_repl,
            &self.get_e2e,
            &self.get_read,
        ]
    }

    /// Export every sample into `reg` as latency histograms plus
    /// per-tier counters (`cluster.put_e2e_ms`, …).
    pub(crate) fn export(samples: &[ReqSample], reg: &mut Registry) {
        for s in samples {
            match s.kind {
                ReqKind::Put => {
                    reg.add("cluster.puts", 1);
                    reg.observe_ms("cluster.put_e2e_ms", s.e2e_ms);
                    reg.observe_ms("cluster.put_wal_ms", s.service_ms);
                    reg.observe_ms("cluster.put_repl_ms", s.repl_ms);
                }
                ReqKind::Get => {
                    reg.add("cluster.gets", 1);
                    reg.observe_ms("cluster.get_e2e_ms", s.e2e_ms);
                    reg.observe_ms("cluster.get_read_ms", s.service_ms);
                }
            }
        }
    }
}

/// Samples whose *arrival* falls in `[from_s, to_s)` — phase analysis
/// for before/during/after flash-crowd comparisons.
pub fn samples_between(samples: &[ReqSample], from_s: f64, to_s: f64) -> Vec<ReqSample> {
    samples
        .iter()
        .filter(|s| {
            let t = s.arrival.as_secs_f64();
            t >= from_s && t < to_s
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn sample(kind: ReqKind, arrival_s: f64, e2e: f64) -> ReqSample {
        ReqSample {
            req: 0,
            shard: 0,
            kind,
            arrival: SimTime::from_nanos((arrival_s * 1e9) as u64),
            done: SimTime::ZERO,
            e2e_ms: e2e,
            service_ms: e2e / 2.0,
            repl_ms: e2e / 4.0,
        }
    }

    #[test]
    fn tiers_split_by_kind_and_percentiles_are_ordered() {
        let samples: Vec<ReqSample> = (0..1000)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    ReqKind::Put
                } else {
                    ReqKind::Get
                };
                sample(kind, i as f64 / 100.0, 1.0 + i as f64 / 10.0)
            })
            .collect();
        let slo = SloReport::compute(&samples);
        assert_eq!(slo.put_e2e.count, 500);
        assert_eq!(slo.get_e2e.count, 500);
        for t in slo.tiers() {
            assert!(
                t.p50 <= t.p99 && t.p99 <= t.p999 && t.p999 <= t.max,
                "{t:?}"
            );
        }
    }

    #[test]
    fn phase_filter_is_half_open_on_arrival() {
        let samples = vec![
            sample(ReqKind::Put, 0.5, 1.0),
            sample(ReqKind::Put, 1.0, 1.0),
            sample(ReqKind::Put, 2.0, 1.0),
        ];
        assert_eq!(samples_between(&samples, 1.0, 2.0).len(), 1);
    }

    #[test]
    fn export_counts_and_histograms() {
        let samples = vec![
            sample(ReqKind::Put, 0.0, 4.0),
            sample(ReqKind::Get, 0.0, 2.0),
            sample(ReqKind::Get, 0.0, 3.0),
        ];
        let mut reg = Registry::new();
        SloReport::export(&samples, &mut reg);
        assert_eq!(reg.counter("cluster.puts"), 1);
        assert_eq!(reg.counter("cluster.gets"), 2);
        assert_eq!(reg.histogram("cluster.get_e2e_ms").unwrap().count(), 2);
    }
}
