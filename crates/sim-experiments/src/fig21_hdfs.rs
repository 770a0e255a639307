//! Figure 21 — HDFS isolation.
//!
//! Seven workers, four throttled and four unthrottled writer threads,
//! 3× replication. Panel (a): smaller local rate caps on the throttled
//! account give the unthrottled account more throughput, but the
//! throttled account falls short of its theoretical bound
//! `(cap / replication) × workers` because randomly-placed 64 MB blocks
//! leave tokens unused on idle workers. Panel (b): 16 MB blocks
//! re-randomize placement more often, recovering most of the gap.

use sim_apps::dfs::{DfsCluster, DfsConfig};
use sim_core::SimDuration;
use sim_kernel::World;

use crate::registry::{CellOutput, CellRequest, Profile};
use crate::table::{f1, Table};
use crate::MB;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Simulated time per point.
    pub duration: SimDuration,
    /// Rate caps to sweep (bytes/second per worker).
    pub rate_caps: [u64; 3],
    /// Writers per group.
    pub writers_per_group: usize,
    /// Cluster shape.
    pub cluster: DfsConfig,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// Quick: 10 s per point, 5 workers, 2+2 writers, 32 MB blocks.
    /// Paper scale: 30 s, 7 workers, 4+4 writers, 64 MB blocks.
    pub(crate) fn at(profile: Profile, seed: u64) -> Self {
        Config {
            duration: profile.secs(10, 30),
            rate_caps: profile.pick([4 * MB, 8 * MB, 16 * MB], [8 * MB, 16 * MB, 32 * MB]),
            writers_per_group: profile.pick(2, 4),
            cluster: DfsConfig {
                workers: profile.pick(5, 7),
                block_bytes: profile.pick(32 * MB, 64 * MB),
                ..Default::default()
            },
            seed,
        }
    }
}

/// One point of the sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// Local rate cap on the throttled account (MB/s per worker).
    pub cap_mbps: f64,
    /// Throttled account client-visible throughput (MB/s).
    pub throttled_mbps: f64,
    /// Unthrottled account throughput (MB/s).
    pub unthrottled_mbps: f64,
    /// Theoretical bound for the throttled account (MB/s).
    pub bound_mbps: f64,
}

/// Full figure.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// Sweep with the configured (large) block size.
    pub large_blocks: Vec<Point>,
    /// Sweep with blocks a quarter the size (panel b).
    pub small_blocks: Vec<Point>,
}

/// Run one point.
pub(crate) fn run_point(cfg: &Config, block_bytes: u64, cap: u64) -> Point {
    let mut w = World::new();
    let mut cluster = DfsCluster::new(
        &mut w,
        DfsConfig {
            block_bytes,
            seed: cfg.cluster.seed ^ cfg.seed,
            ..cfg.cluster
        },
    );
    const THROTTLED: u32 = 1;
    const UNTHROTTLED: u32 = 2;
    for _ in 0..cfg.writers_per_group {
        cluster
            .add_client(&mut w, THROTTLED)
            .expect("cluster has workers");
        cluster
            .add_client(&mut w, UNTHROTTLED)
            .expect("cluster has workers");
    }
    cluster
        .set_account_rate(&mut w, THROTTLED, cap)
        .expect("throttled account exists and cap is nonzero");
    cluster.run(&mut w, cfg.duration);
    let secs = cfg.duration.as_secs_f64();
    let repl = cluster.replication() as f64;
    Point {
        cap_mbps: cap as f64 / 1e6,
        throttled_mbps: cluster.account_bytes(THROTTLED) as f64 / 1e6 / secs,
        unthrottled_mbps: cluster.account_bytes(UNTHROTTLED) as f64 / 1e6 / secs,
        bound_mbps: cap as f64 / 1e6 / repl * cfg.cluster.workers as f64,
    }
}

/// Run both block-size sweeps.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let sweep = |block| {
        cfg.rate_caps
            .iter()
            .map(|&cap| run_point(cfg, block, cap))
            .collect::<Vec<_>>()
    };
    FigResult {
        large_blocks: sweep(cfg.cluster.block_bytes),
        small_blocks: sweep(cfg.cluster.block_bytes / 4),
    }
}

impl FigResult {
    /// The sweep metrics: both accounts' throughput per block size and cap.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (blocks, points) in [("large", &self.large_blocks), ("small", &self.small_blocks)] {
            for p in points {
                let cap = format!("cap{:.0}", p.cap_mbps);
                out.push((format!("{blocks}_throttled_mbps_{cap}"), p.throttled_mbps));
                out.push((
                    format!("{blocks}_unthrottled_mbps_{cap}"),
                    p.unthrottled_mbps,
                ));
            }
        }
        out
    }
}

/// `runner fig21`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 21 — HDFS isolation (Split-Token on every worker)"
        )?;
        for (label, series) in [
            ("large blocks", &self.large_blocks),
            ("blocks/4", &self.small_blocks),
        ] {
            writeln!(f, "[{label}]")?;
            let mut t = Table::new([
                "cap MB/s",
                "throttled MB/s",
                "bound MB/s",
                "unthrottled MB/s",
            ]);
            for p in series {
                t.row([
                    f1(p.cap_mbps),
                    f1(p.throttled_mbps),
                    f1(p.bound_mbps),
                    f1(p.unthrottled_mbps),
                ]);
            }
            writeln!(f, "{}", t.render())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_caps_give_unthrottled_writers_more() {
        let cfg = Config::at(Profile::Quick, 0);
        let small_cap = run_point(&cfg, cfg.cluster.block_bytes, cfg.rate_caps[0]);
        let big_cap = run_point(&cfg, cfg.cluster.block_bytes, cfg.rate_caps[2]);
        assert!(
            small_cap.unthrottled_mbps > big_cap.unthrottled_mbps,
            "tighter caps should free bandwidth: {} vs {}",
            small_cap.unthrottled_mbps,
            big_cap.unthrottled_mbps
        );
        assert!(
            small_cap.throttled_mbps < big_cap.throttled_mbps,
            "and throttle the throttled: {} vs {}",
            small_cap.throttled_mbps,
            big_cap.throttled_mbps
        );
    }

    #[test]
    fn throttled_account_stays_at_or_under_its_bound() {
        let cfg = Config::at(Profile::Quick, 0);
        let p = run_point(&cfg, cfg.cluster.block_bytes, cfg.rate_caps[1]);
        assert!(
            p.throttled_mbps <= 1.15 * p.bound_mbps,
            "throttled {} must respect the bound {}",
            p.throttled_mbps,
            p.bound_mbps
        );
        assert!(p.throttled_mbps > 0.0);
    }

    #[test]
    fn one_worker_cluster_still_runs_and_respects_the_cap() {
        let mut cfg = Config::at(Profile::Quick, 0);
        // No replicas: a one-worker cluster keeps a single copy.
        cfg.cluster.workers = 1;
        let p = run_point(&cfg, cfg.cluster.block_bytes, cfg.rate_caps[1]);
        assert!(p.throttled_mbps > 0.0);
        assert!(
            p.throttled_mbps <= 1.15 * p.bound_mbps,
            "throttled {} vs bound {}",
            p.throttled_mbps,
            p.bound_mbps
        );
    }

    #[test]
    fn smaller_blocks_improve_load_balance() {
        let cfg = Config::at(Profile::Quick, 0);
        let cap = cfg.rate_caps[0];
        let large = run_point(&cfg, cfg.cluster.block_bytes, cap);
        let small = run_point(&cfg, cfg.cluster.block_bytes / 4, cap);
        // With more frequent placement decisions, the throttled group
        // gets closer to its bound (allow a little noise).
        assert!(
            small.throttled_mbps >= 0.9 * large.throttled_mbps,
            "smaller blocks should not hurt: {} vs {}",
            small.throttled_mbps,
            large.throttled_mbps
        );
    }
}
