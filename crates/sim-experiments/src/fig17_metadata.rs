//! Figure 17 — metadata workloads: full (ext4) vs partial (XFS)
//! integration.
//!
//! A reads sequentially; B repeatedly creates empty files and fsyncs
//! them, throttled under Split-Token, sleeping a varied time between
//! creates. With ext4's full integration the journal I/O carries B's
//! cause tag, so B's creates are correctly charged and throttled and A is
//! isolated. With XFS's partial integration the log task is untagged: B
//! escapes the throttle at low sleep times, and A pays for it.

use sim_core::SimDuration;
use sim_kernel::FsChoice;
use sim_workloads::{CreatFsyncLoop, SeqReader};
use split_core::SchedAttr;

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, MB};

/// B's sleep between creates, sweep (ms).
const SLEEPS_MS: [u64; 4] = [0, 10, 50, 200];
/// B's token rate (normalized bytes/second).
const B_RATE: u64 = MB / 2;

/// Configuration: 10 s per point quick, 30 s at paper scale.
pub type Config = Timed<10, 30>;

/// One (fs, sleep) point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// B's sleep between creates (ms).
    pub sleep_ms: u64,
    /// A's throughput (MB/s).
    pub a_mbps: f64,
    /// B's creates per second.
    pub b_creates_per_sec: f64,
}

/// Per-filesystem series.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// ext4 (full integration) sweep.
    pub ext4: Vec<Point>,
    /// XFS (partial integration) sweep.
    pub xfs: Vec<Point>,
}

/// Run one point.
pub(crate) fn run_point(cfg: &Config, fs: FsChoice, sleep_ms: u64) -> Point {
    let setup = Setup {
        fs,
        ..Setup::new(SchedChoice::SplitToken)
    };
    let (mut w, k) = build_world(setup.seed(cfg.seed));
    let a_file = w.prealloc_file(k, 4 * GB, true);
    let a = w.spawn(k, Box::new(SeqReader::new(a_file, 4 * GB, MB)));
    let b = w.spawn(
        k,
        Box::new(CreatFsyncLoop::new(SimDuration::from_millis(sleep_ms))),
    );
    w.configure(k, b, SchedAttr::TokenRate(B_RATE));
    w.run_for(cfg.duration);
    let stats = &w.kernel(k).stats;
    let creates = stats.proc(b).map(|s| s.meta_ops.len()).unwrap_or(0);
    Point {
        sleep_ms,
        a_mbps: stats.read_mbps(a, cfg.duration),
        b_creates_per_sec: creates as f64 / cfg.duration.as_secs_f64(),
    }
}

/// Run the full sweep on both file systems.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let sweep = |fs| {
        SLEEPS_MS
            .iter()
            .map(|&s| run_point(cfg, fs, s))
            .collect::<Vec<_>>()
    };
    FigResult {
        ext4: sweep(FsChoice::Ext4),
        xfs: sweep(FsChoice::Xfs),
    }
}

impl FigResult {
    /// The sweep metrics: A's throughput and B's create rate per file
    /// system and sleep time.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (fs, points) in [("ext4", &self.ext4), ("xfs", &self.xfs)] {
            for p in points {
                out.push((format!("{fs}_a_mbps_{}ms", p.sleep_ms), p.a_mbps));
                out.push((
                    format!("{fs}_creates_per_sec_{}ms", p.sleep_ms),
                    p.b_creates_per_sec,
                ));
            }
        }
        out
    }
}

/// `runner fig17`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 17 — metadata workload under Split-Token: ext4 (full) vs XFS (partial)"
        )?;
        let mut t = Table::new([
            "B sleep ms",
            "ext4 A MB/s",
            "ext4 B creat/s",
            "xfs A MB/s",
            "xfs B creat/s",
        ]);
        for (e, x) in self.ext4.iter().zip(&self.xfs) {
            t.row([
                e.sleep_ms.to_string(),
                f1(e.a_mbps),
                f1(e.b_creates_per_sec),
                f1(x.a_mbps),
                f1(x.b_creates_per_sec),
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
    fn ext4_throttles_creates_but_xfs_does_not() {
        let cfg = Config::at(Profile::Quick, 0);
        let e = run_point(&cfg, FsChoice::Ext4, 0);
        let x = run_point(&cfg, FsChoice::Xfs, 0);
        // XFS's untagged log lets B create far faster than ext4's
        // correctly-charged creates.
        assert!(
            x.b_creates_per_sec > 2.0 * e.b_creates_per_sec.max(0.5),
            "xfs {} vs ext4 {} creates/s",
            x.b_creates_per_sec,
            e.b_creates_per_sec
        );
    }

    #[test]
    fn a_is_isolated_on_ext4_regardless_of_b_sleep() {
        let cfg = Config::at(Profile::Quick, 0);
        let busy = run_point(&cfg, FsChoice::Ext4, 0);
        let idle = run_point(&cfg, FsChoice::Ext4, 200);
        assert!(
            (busy.a_mbps - idle.a_mbps).abs() / idle.a_mbps < 0.25,
            "ext4 must isolate A from B's metadata storm: {} vs {}",
            busy.a_mbps,
            idle.a_mbps
        );
    }

    #[test]
    fn a_suffers_on_xfs_when_b_is_busy() {
        let cfg = Config::at(Profile::Quick, 0);
        let busy = run_point(&cfg, FsChoice::Xfs, 0);
        let idle = run_point(&cfg, FsChoice::Xfs, 200);
        assert!(
            busy.a_mbps < 0.85 * idle.a_mbps,
            "xfs partial integration lets B hurt A: busy {} vs idle {}",
            busy.a_mbps,
            idle.a_mbps
        );
    }
}
