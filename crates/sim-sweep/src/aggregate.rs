//! Statistical aggregation of sweep results.
//!
//! Replicates of one grid cell are grouped by (cell label, metric key)
//! and collapsed with [`sim_core::stats::summarize`] into mean, sample
//! stddev, and a 95% confidence half-width. The table renders to CSV
//! and to JSON (hand-rolled — the workspace takes no serialization
//! dependency); both are deterministic: rows are sorted by label then
//! metric, and floats print shortest-round-trip the same way in both,
//! with non-finite values (only possible if every replicate was
//! dropped) pinned to 0 so the JSON stays valid.

use std::collections::BTreeMap;

use sim_core::stats::{summarize, Summary};
use sim_trace::json::{escape, num};

/// Aggregated statistics for one metric of one grid cell.
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// Grid-cell label (e.g. `fig06/sched=cfq`).
    pub label: String,
    /// Metric key (e.g. `a_mean_mbps`).
    pub metric: String,
    /// Replicate summary.
    pub summary: Summary,
}

/// The full aggregated table of a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// One row per (cell, metric), sorted by label then metric.
    pub rows: Vec<MetricRow>,
}

/// Collapse per-replicate samples into a report.
///
/// Input: one `(label, metrics)` pair per executed cell replicate.
/// BTreeMap keys give the deterministic row order for free.
pub(crate) fn aggregate(samples: &[(String, Vec<(String, f64)>)]) -> SweepReport {
    let mut groups: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (label, metrics) in samples {
        for (key, value) in metrics {
            groups
                .entry((label.clone(), key.clone()))
                .or_default()
                .push(*value);
        }
    }
    SweepReport {
        rows: groups
            .into_iter()
            .map(|((label, metric), values)| MetricRow {
                label,
                metric,
                summary: summarize(&values),
            })
            .collect(),
    }
}

impl SweepReport {
    /// Render as CSV: `cell,metric,n,dropped,mean,stddev,ci95`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cell,metric,n,dropped,mean,stddev,ci95\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                r.label,
                r.metric,
                r.summary.n,
                r.summary.dropped,
                num(r.summary.mean),
                num(r.summary.stddev),
                num(r.summary.ci95),
            ));
        }
        out
    }

    /// Render as a JSON array of row objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"cell\": \"{}\", \"metric\": \"{}\", \"n\": {}, \"dropped\": {}, \
                 \"mean\": {}, \"stddev\": {}, \"ci95\": {}}}{}\n",
                escape(&r.label),
                escape(&r.metric),
                r.summary.n,
                r.summary.dropped,
                num(r.summary.mean),
                num(r.summary.stddev),
                num(r.summary.ci95),
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("]\n");
        out
    }

    /// Human-readable `mean ± ci95` table for stdout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_label = "";
        for r in &self.rows {
            if r.label != last_label {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&format!("{}  (n={})\n", r.label, r.summary.n));
                last_label = &r.label;
            }
            out.push_str(&format!(
                "  {:<32} {:>12.3} ± {:.3}  (stddev {:.3})\n",
                r.metric, r.summary.mean, r.summary.ci95, r.summary.stddev
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(String, Vec<(String, f64)>)> {
        vec![
            ("fig01".into(), vec![("tput".into(), 10.0)]),
            ("fig01".into(), vec![("tput".into(), 14.0)]),
            ("fig01".into(), vec![("tput".into(), 12.0)]),
            (
                "fig03".into(),
                vec![("dev".into(), 0.5), ("lat".into(), f64::NAN)],
            ),
        ]
    }

    #[test]
    fn groups_by_label_and_metric() {
        let rep = aggregate(&sample());
        assert_eq!(rep.rows.len(), 3);
        let tput = &rep.rows[0];
        assert_eq!(
            (tput.label.as_str(), tput.metric.as_str()),
            ("fig01", "tput")
        );
        assert_eq!(tput.summary.n, 3);
        assert!((tput.summary.mean - 12.0).abs() < 1e-12);
        assert!(tput.summary.ci95 > 0.0);
        // The NaN sample is dropped, not propagated.
        let lat = rep.rows.iter().find(|r| r.metric == "lat").unwrap();
        assert_eq!(lat.summary.dropped, 1);
        assert_eq!(lat.summary.n, 0);
    }

    #[test]
    fn csv_and_json_are_deterministic_and_well_formed() {
        let rep = aggregate(&sample());
        let csv = rep.to_csv();
        assert!(csv.starts_with("cell,metric,n,dropped,mean,stddev,ci95\n"));
        assert_eq!(csv, aggregate(&sample()).to_csv());
        let json = rep.to_json();
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("\"cell\"").count(), rep.rows.len());
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut samples = sample();
        samples.push(("fig\"x\"\t/sched=cfq".into(), vec![("a\\b".into(), 1.5)]));
        let rep = aggregate(&samples);
        let doc = sim_trace::json::parse(&rep.to_json()).expect("sweep.json parses");
        let rows = doc.as_arr().unwrap();
        assert_eq!(rows.len(), rep.rows.len());
        for (row, want) in rows.iter().zip(&rep.rows) {
            assert_eq!(row.get("cell").and_then(|v| v.as_str()), Some(&*want.label));
            assert_eq!(
                row.get("metric").and_then(|v| v.as_str()),
                Some(&*want.metric)
            );
            assert_eq!(
                row.get("n").and_then(|v| v.as_u64()),
                Some(want.summary.n as u64)
            );
            assert_eq!(
                row.get("mean").and_then(|v| v.as_f64()),
                Some(want.summary.mean)
            );
        }
    }
}
