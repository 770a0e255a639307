//! Figures 6, 13 and 16 — token-bucket isolation.
//!
//! A reads sequentially (unthrottled); B runs 14 workloads — runs of R
//! bytes (4 KB … 16 MB) followed by a random seek, as reads and as writes
//! — throttled to 10 MB/s. A scheduler with correct cost accounting keeps
//! A's throughput flat across all 14; SCS-Token (Figure 6) does not,
//! because bytes are a poor proxy for device time. Split-Token on ext4
//! (Figure 13) and on XFS (Figure 16) reproduce the isolation.

use sim_core::Pid;
use sim_kernel::FsChoice;
use sim_workloads::{RunPattern, SeqReader};
use split_core::SchedAttr;

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, KB, MB};

/// Run sizes for B.
pub(crate) const RUNS: [u64; 7] = [4 * KB, 16 * KB, 64 * KB, 256 * KB, MB, 4 * MB, 16 * MB];
/// B's throttle (bytes/second of accounted cost).
const B_RATE: u64 = 10 * MB;
/// A's file size (must exceed memory to keep A streaming).
const A_FILE: u64 = 4 * GB;
/// B's file size (the paper uses 10 GB).
const B_FILE: u64 = 2 * GB;

/// Configuration: 10 s per point quick, 30 s at paper scale.
pub type Config = Timed<10, 30>;

/// One workload point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// B's run size in bytes.
    pub run: u64,
    /// Whether B writes (else reads).
    pub b_writes: bool,
    /// A's throughput (MB/s).
    pub a_mbps: f64,
    /// B's throughput (MB/s).
    pub b_mbps: f64,
}

/// Full result: 14 points plus the headline stddev.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// Scheduler used.
    pub sched: &'static str,
    /// File system used.
    pub fs: &'static str,
    /// All 14 points.
    pub points: Vec<Point>,
    /// Standard deviation of A's throughput across the points — the
    /// paper's isolation metric (41 MB for SCS, 7 MB for Split on ext4,
    /// 12.8 MB on XFS).
    pub a_stddev: f64,
    /// Mean of A's throughput.
    pub a_mean: f64,
}

/// Run one point.
pub(crate) fn run_point(
    cfg: &Config,
    sched: SchedChoice,
    fs: FsChoice,
    run: u64,
    b_writes: bool,
) -> Point {
    let setup = Setup {
        fs,
        ..Setup::new(sched)
    };
    let (mut w, k) = build_world(setup.seed(cfg.seed));
    let a_file = w.prealloc_file(k, A_FILE, true);
    // B's file is aged/fragmented, as a long-lived 10 GB file would be.
    let b_file = w.prealloc_file(k, B_FILE, false);
    let a = w.spawn(k, Box::new(SeqReader::new(a_file, A_FILE, MB)));
    let b: Pid = w.spawn(
        k,
        Box::new(RunPattern::new(
            b_file,
            B_FILE,
            run,
            b_writes,
            cfg.seed ^ 0xBEE,
        )),
    );
    w.configure(k, b, SchedAttr::TokenRate(B_RATE));
    w.run_for(cfg.duration);
    let stats = &w.kernel(k).stats;
    let a_mbps = stats.read_mbps(a, cfg.duration);
    let b_mbps = if b_writes {
        stats.write_mbps(b, cfg.duration)
    } else {
        stats.read_mbps(b, cfg.duration)
    };
    Point {
        run,
        b_writes,
        a_mbps,
        b_mbps,
    }
}

/// Run the sweep for one scheduler/fs combination: every size in
/// `runs`, as reads and then as writes (the figures use all of [`RUNS`],
/// 14 workloads).
pub(crate) fn run_with(cfg: &Config, sched: SchedChoice, fs: FsChoice, runs: &[u64]) -> FigResult {
    let mut points = Vec::new();
    for &b_writes in &[false, true] {
        for &run in runs {
            points.push(run_point(cfg, sched, fs, run, b_writes));
        }
    }
    let a: Vec<f64> = points.iter().map(|p| p.a_mbps).collect();
    FigResult {
        sched: sched.name(),
        fs: match fs {
            FsChoice::Ext4 => "ext4",
            FsChoice::Xfs => "xfs",
        },
        points,
        a_stddev: sim_core::stats::stddev(&a),
        a_mean: sim_core::stats::mean(&a),
    }
}

impl FigResult {
    /// The sweep metrics: mean and spread of A's throughput over the
    /// workloads (the spread is the paper's isolation metric).
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("a_mean_mbps".into(), self.a_mean),
            ("a_stddev_mbps".into(), self.a_stddev),
        ]
    }
}

/// One cell of the family: the sweep's `--sched` axis overrides the
/// figure's own scheduler.
fn family_cell(req: &CellRequest, default: SchedChoice, fs: FsChoice) -> CellOutput {
    let cfg = Config::at(req.profile, req.seed);
    let r = run_with(&cfg, req.sched.unwrap_or(default), fs, &RUNS);
    CellOutput::of(&r, r.metrics())
}

/// `runner fig06`: SCS-Token on ext4.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    family_cell(req, SchedChoice::ScsToken, FsChoice::Ext4)
}

/// `runner fig13`: Split-Token on ext4.
pub(crate) fn cell_fig13(req: &CellRequest) -> CellOutput {
    family_cell(req, SchedChoice::SplitToken, FsChoice::Ext4)
}

/// `runner fig16`: Split-Token on XFS.
pub(crate) fn cell_fig16(req: &CellRequest) -> CellOutput {
    family_cell(req, SchedChoice::SplitToken, FsChoice::Xfs)
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Token isolation — {} on {} (B throttled; A should stay flat)",
            self.sched, self.fs
        )?;
        let mut t = Table::new(["B workload", "run", "A MB/s", "B MB/s"]);
        for p in &self.points {
            t.row([
                if p.b_writes { "write" } else { "read" }.to_string(),
                format!("{} KB", p.run / KB),
                f1(p.a_mbps),
                f1(p.b_mbps),
            ]);
        }
        writeln!(f, "{}", t.render())?;
        writeln!(
            f,
            "A mean {} MB/s, stddev {} MB/s",
            f1(self.a_mean),
            f1(self.a_stddev)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Profile;

    #[test]
    fn scs_token_fails_isolation_where_split_token_succeeds() {
        let mut cfg = Config::at(Profile::Quick, 0);
        cfg.duration = sim_core::SimDuration::from_secs(8);
        // A reduced sweep keeps the test fast but spans the failure modes:
        // tiny random runs vs large sequential runs, reads and writes.
        let runs = [4 * KB, 4 * KB, 64 * KB, 64 * KB, 4 * MB, 4 * MB, 16 * MB];
        let scs = run_with(&cfg, SchedChoice::ScsToken, FsChoice::Ext4, &runs);
        let split = run_with(&cfg, SchedChoice::SplitToken, FsChoice::Ext4, &runs);
        assert!(
            scs.a_stddev > 2.0 * split.a_stddev,
            "SCS stddev {} should dwarf Split stddev {}",
            scs.a_stddev,
            split.a_stddev
        );
        // Split keeps A within a tight band.
        assert!(
            split.a_stddev / split.a_mean < 0.15,
            "split variation too high: {} / {}",
            split.a_stddev,
            split.a_mean
        );
    }

    #[test]
    fn b_random_reads_crush_a_under_scs() {
        let cfg = Config::at(Profile::Quick, 0);
        let p = run_point(&cfg, SchedChoice::ScsToken, FsChoice::Ext4, 4 * KB, false);
        // 10 MB/s of 4 KB random reads ≈ thousands of seeks per second:
        // far more device time than the throttle intends.
        assert!(
            p.a_mbps < 40.0,
            "A should be crushed by B's random reads under SCS: {}",
            p.a_mbps
        );
        let q = run_point(&cfg, SchedChoice::SplitToken, FsChoice::Ext4, 4 * KB, false);
        assert!(
            q.a_mbps > 2.0 * p.a_mbps,
            "Split should protect A: {} vs {}",
            q.a_mbps,
            p.a_mbps
        );
    }
}
