//! Figure 9 — framework time overhead.
//!
//! A no-op scheduler in the split framework (every hook wired) against the
//! no-op block elevator, with 1–100 threads writing to an SSD. The
//! simulated results must be identical — the framework adds information,
//! not policy — and the wall-clock cost of the hooks is measured by
//! splitbench (`sched.split-noop.ns_per_event` against
//! `sched.noop.ns_per_event` in `benchmark/`).

use sim_workloads::SeqWriter;

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, KB};

/// Thread counts to sweep.
const THREADS: [usize; 3] = [1, 10, 100];

/// Configuration: 5 s quick, 20 s at paper scale.
pub type Config = Timed<5, 20>;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// Number of threads.
    pub threads: usize,
    /// Aggregate throughput under the block-level no-op (MB/s).
    pub block_mbps: f64,
    /// Aggregate throughput under the split no-op (MB/s).
    pub split_mbps: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// One point per thread count.
    pub points: Vec<Point>,
}

fn throughput(cfg: &Config, sched: SchedChoice, threads: usize) -> f64 {
    let (mut w, k) = build_world(Setup::new(sched).on_ssd().seed(cfg.seed));
    let mut pids = Vec::new();
    for _ in 0..threads {
        let file = w.prealloc_file(k, GB, true);
        pids.push(w.spawn(k, Box::new(SeqWriter::new(file, GB, 64 * KB))));
    }
    w.run_for(cfg.duration);
    let stats = &w.kernel(k).stats;
    let total: u64 = pids
        .iter()
        .map(|p| stats.proc(*p).map(|s| s.write_bytes).unwrap_or(0))
        .sum();
    total as f64 / 1e6 / cfg.duration.as_secs_f64()
}

/// Run the sweep.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let points = THREADS
        .iter()
        .map(|&n| Point {
            threads: n,
            block_mbps: throughput(cfg, SchedChoice::Noop, n),
            split_mbps: throughput(cfg, SchedChoice::SplitNoop, n),
        })
        .collect();
    FigResult { points }
}

impl FigResult {
    /// The sweep metrics: both no-ops' aggregate throughput per thread count.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let per_point = |p: &Point| {
            [
                (format!("block_mbps_{}t", p.threads), p.block_mbps),
                (format!("split_mbps_{}t", p.threads), p.split_mbps),
            ]
        };
        self.points.iter().flat_map(per_point).collect()
    }
}

/// `runner fig09`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 9 — framework time overhead (no-op vs no-op, SSD)"
        )?;
        let mut t = Table::new(["threads", "block-noop MB/s", "split-noop MB/s", "delta %"]);
        for p in &self.points {
            let delta = (p.split_mbps - p.block_mbps) / p.block_mbps * 100.0;
            t.row([
                p.threads.to_string(),
                f1(p.block_mbps),
                f1(p.split_mbps),
                format!("{delta:+.2}"),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Profile;

    #[test]
    fn split_framework_adds_no_simulated_overhead() {
        let r = run(&Config::at(Profile::Quick, 0));
        for p in &r.points {
            let rel = (p.split_mbps - p.block_mbps).abs() / p.block_mbps;
            assert!(
                rel < 0.02,
                "split vs block no-op must match at {} threads: {} vs {}",
                p.threads,
                p.split_mbps,
                p.block_mbps
            );
        }
        // And the sweep scales: more threads, no less throughput.
        assert!(r.points[2].block_mbps >= 0.5 * r.points[0].block_mbps);
    }
}
