//! Figure 9 — framework time overhead.
//!
//! A no-op scheduler in the split framework (every hook wired) against the
//! no-op block elevator, with 1–100 threads writing to an SSD. The
//! simulated results must be identical — the framework adds information,
//! not policy — and the wall-clock cost of the hooks is measured by
//! splitbench (`sched.split-noop.ns_per_event` against
//! `sched.noop.ns_per_event` in `benchmark/`).

use sim_core::SimDuration;
use sim_workloads::SeqWriter;

use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, KB};

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Simulated run time.
    pub duration: SimDuration,
    /// Thread counts to sweep.
    pub threads: [usize; 3],
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// Small run for tests.
    pub fn quick() -> Self {
        Config {
            duration: SimDuration::from_secs(5),
            threads: [1, 10, 100],
            seed: 0,
        }
    }

    /// Paper-scale run.
    pub fn paper() -> Self {
        Config {
            duration: SimDuration::from_secs(20),
            ..Self::quick()
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Number of threads.
    pub threads: usize,
    /// Aggregate throughput under the block-level no-op (MB/s).
    pub block_mbps: f64,
    /// Aggregate throughput under the split no-op (MB/s).
    pub split_mbps: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub struct FigResult {
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
pub fn run(cfg: &Config) -> FigResult {
    let points = cfg
        .threads
        .iter()
        .map(|&n| Point {
            threads: n,
            block_mbps: throughput(cfg, SchedChoice::Noop, n),
            split_mbps: throughput(cfg, SchedChoice::SplitNoop, n),
        })
        .collect();
    FigResult { points }
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

    #[test]
    fn split_framework_adds_no_simulated_overhead() {
        let r = run(&Config::quick());
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
