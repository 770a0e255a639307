//! Figure 14 — Split-Token vs SCS-Token over six B workloads.
//!
//! B ∈ {read, write} × {random, sequential, memory}, throttled to 1 MB/s
//! of normalized I/O; A reads sequentially, unthrottled. Left panel: A's
//! slowdown (isolation). Right panel: B's own throughput (a throttled
//! process should still get the best performance its budget allows —
//! memory workloads should *not* be throttled at all, which is where
//! SCS-Token loses by orders of magnitude on "write-mem").

use sim_core::{Pid, SimDuration};
use sim_kernel::{KernelStats, World};
use sim_workloads::{MemOverwriter, RandReader, RandWriter, SeqReader, SeqWriter};
use split_core::SchedAttr;

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, KB, MB};

/// B's throttle (normalized bytes/second).
const B_RATE: u64 = MB;
/// A's file size.
const A_FILE: u64 = 4 * GB;

/// The six B workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BWorkload {
    /// 4 KB random reads from a big (uncached) file.
    ReadRand,
    /// Sequential reads from a big file.
    ReadSeq,
    /// Repeated reads of a small, fully cached file.
    ReadMem,
    /// 4 KB random writes to a big file.
    WriteRand,
    /// Sequential writes.
    WriteSeq,
    /// Overwrites confined to the cache.
    WriteMem,
}

impl BWorkload {
    /// All six, in the paper's order.
    pub const ALL: [BWorkload; 6] = [
        BWorkload::ReadRand,
        BWorkload::ReadSeq,
        BWorkload::ReadMem,
        BWorkload::WriteRand,
        BWorkload::WriteSeq,
        BWorkload::WriteMem,
    ];

    /// Label used in the figure.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BWorkload::ReadRand => "read-rand",
            BWorkload::ReadSeq => "read-seq",
            BWorkload::ReadMem => "read-mem",
            BWorkload::WriteRand => "write-rand",
            BWorkload::WriteSeq => "write-seq",
            BWorkload::WriteMem => "write-mem",
        }
    }

    /// Whether B's metric is write throughput.
    pub(crate) fn is_write(self) -> bool {
        matches!(
            self,
            BWorkload::WriteRand | BWorkload::WriteSeq | BWorkload::WriteMem
        )
    }

    /// B's throughput (MB/s) in the metric the workload is judged by.
    pub(crate) fn mbps(self, stats: &KernelStats, b: Pid, window: SimDuration) -> f64 {
        if self.is_write() {
            stats.write_mbps(b, window)
        } else {
            stats.read_mbps(b, window)
        }
    }

    /// Spawn the workload on `k`, returning B's pid. `rng_seed` seeds
    /// the random-access streams.
    pub(crate) fn spawn(self, w: &mut World, k: sim_core::KernelId, rng_seed: u64) -> Pid {
        match self {
            BWorkload::ReadRand => {
                let f = w.prealloc_file(k, 2 * GB, false);
                w.spawn(k, Box::new(RandReader::new(f, 2 * GB, 4 * KB, rng_seed)))
            }
            BWorkload::ReadSeq => {
                let f = w.prealloc_file(k, 2 * GB, true);
                w.spawn(k, Box::new(SeqReader::new(f, 2 * GB, 256 * KB)))
            }
            BWorkload::ReadMem => {
                let f = w.prealloc_file(k, 32 * MB, true);
                // The working set is memory-resident (the paper's point is
                // that cache hits are free): warm it.
                w.kernel_mut(k)
                    .cache_mut()
                    .fill(f, 0, 32 * MB / sim_core::PAGE_SIZE);
                w.spawn(k, Box::new(SeqReader::new(f, 32 * MB, 64 * KB)))
            }
            BWorkload::WriteRand => {
                let f = w.prealloc_file(k, 2 * GB, false);
                w.spawn(k, Box::new(RandWriter::new(f, 2 * GB, 4 * KB, rng_seed)))
            }
            BWorkload::WriteSeq => {
                let f = w.prealloc_file(k, 2 * GB, true);
                w.spawn(k, Box::new(SeqWriter::new(f, 2 * GB, 256 * KB)))
            }
            BWorkload::WriteMem => {
                let f = w.prealloc_file(k, 32 * MB, true);
                w.spawn(k, Box::new(MemOverwriter::new(f, 4 * MB, 64 * KB)))
            }
        }
    }
}

/// Configuration: 10 s per point quick, 30 s at paper scale.
pub type Config = Timed<10, 30>;

/// One (scheduler, workload) outcome.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// B workload.
    pub workload: BWorkload,
    /// A's throughput (MB/s).
    pub a_mbps: f64,
    /// B's throughput (MB/s).
    pub b_mbps: f64,
}

/// Full figure.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// A's solo throughput (the isolation baseline).
    pub a_alone_mbps: f64,
    /// SCS-Token points.
    pub scs: Vec<Point>,
    /// Split-Token points.
    pub split: Vec<Point>,
}

/// Measure A alone (no B).
pub(crate) fn a_alone(cfg: &Config) -> f64 {
    let (mut w, k) = build_world(Setup::new(SchedChoice::SplitToken).seed(cfg.seed));
    let a_file = w.prealloc_file(k, A_FILE, true);
    let a = w.spawn(k, Box::new(SeqReader::new(a_file, A_FILE, MB)));
    w.run_for(cfg.duration);
    w.kernel(k).stats.read_mbps(a, cfg.duration)
}

/// Run one point.
pub(crate) fn run_point(cfg: &Config, sched: SchedChoice, wl: BWorkload) -> Point {
    let (mut w, k) = build_world(Setup::new(sched).seed(cfg.seed));
    let a_file = w.prealloc_file(k, A_FILE, true);
    let a = w.spawn(k, Box::new(SeqReader::new(a_file, A_FILE, MB)));
    let b = wl.spawn(&mut w, k, cfg.seed ^ 0xb14);
    w.configure(k, b, SchedAttr::TokenRate(B_RATE));
    w.run_for(cfg.duration);
    let stats = &w.kernel(k).stats;
    Point {
        workload: wl,
        a_mbps: stats.read_mbps(a, cfg.duration),
        b_mbps: wl.mbps(stats, b, cfg.duration),
    }
}

/// Run the full comparison.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let sweep = |sched| BWorkload::ALL.map(|wl| run_point(cfg, sched, wl)).to_vec();
    FigResult {
        a_alone_mbps: a_alone(cfg),
        scs: sweep(SchedChoice::ScsToken),
        split: sweep(SchedChoice::SplitToken),
    }
}

impl FigResult {
    /// The sweep metrics: A alone, then A's and B's throughput per
    /// system and B workload.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = vec![("a_alone_mbps".into(), self.a_alone_mbps)];
        out.extend(point_metrics(&self.scs, &self.split));
        out
    }
}

/// A's and B's throughput per system and B workload, as sweep metrics
/// (Figure 20 reports the same pairs from inside its guests).
pub(crate) fn point_metrics(scs: &[Point], split: &[Point]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (sys, points) in [("scs", scs), ("split", split)] {
        for p in points {
            let wl = p.workload.label().replace('-', "_");
            out.push((format!("{sys}_a_mbps_{wl}"), p.a_mbps));
            out.push((format!("{sys}_b_mbps_{wl}"), p.b_mbps));
        }
    }
    out
}

/// `runner fig14`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 14 — Split-Token vs SCS-Token (A alone: {} MB/s; B capped at 1 MB/s)",
            f1(self.a_alone_mbps)
        )?;
        let mut t = Table::new([
            "B workload",
            "A slowdown scs %",
            "A slowdown split %",
            "B scs MB/s",
            "B split MB/s",
        ]);
        for (s, p) in self.scs.iter().zip(&self.split) {
            let slow = |a: f64| (1.0 - a / self.a_alone_mbps) * 100.0;
            t.row([
                p.workload.label().to_string(),
                f1(slow(s.a_mbps)),
                f1(slow(p.a_mbps)),
                f1(s.b_mbps),
                f1(p.b_mbps),
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
    fn split_token_isolates_a_where_scs_fails_on_random_reads() {
        let cfg = Config::at(Profile::Quick, 0);
        let scs = run_point(&cfg, SchedChoice::ScsToken, BWorkload::ReadRand);
        let split = run_point(&cfg, SchedChoice::SplitToken, BWorkload::ReadRand);
        assert!(
            split.a_mbps > 2.0 * scs.a_mbps,
            "split A {} vs scs A {}",
            split.a_mbps,
            scs.a_mbps
        );
    }

    #[test]
    fn write_mem_is_orders_of_magnitude_faster_under_split_token() {
        let cfg = Config::at(Profile::Quick, 0);
        let scs = run_point(&cfg, SchedChoice::ScsToken, BWorkload::WriteMem);
        let split = run_point(&cfg, SchedChoice::SplitToken, BWorkload::WriteMem);
        // SCS charges every overwrite its raw bytes → B pinned to ~1 MB/s.
        assert!(
            scs.b_mbps < 3.0,
            "SCS must throttle the overwriter: {}",
            scs.b_mbps
        );
        // Split charges nothing for overwrites → B runs at memory speed.
        assert!(
            split.b_mbps > 100.0 * scs.b_mbps,
            "split B {} vs scs B {}",
            split.b_mbps,
            scs.b_mbps
        );
    }

    #[test]
    fn read_mem_not_throttled_by_either_but_faster_under_split() {
        let cfg = Config::at(Profile::Quick, 0);
        let scs = run_point(&cfg, SchedChoice::ScsToken, BWorkload::ReadMem);
        let split = run_point(&cfg, SchedChoice::SplitToken, BWorkload::ReadMem);
        assert!(
            scs.b_mbps > 100.0,
            "SCS cached reads are free: {}",
            scs.b_mbps
        );
        // Split skips the per-read scheduler logic entirely.
        assert!(
            split.b_mbps > 1.2 * scs.b_mbps,
            "split B {} vs scs B {}",
            split.b_mbps,
            scs.b_mbps
        );
    }

    #[test]
    fn throttled_b_stays_near_its_budget_for_disk_workloads_under_split() {
        let cfg = Config::at(Profile::Quick, 0);
        let p = run_point(&cfg, SchedChoice::SplitToken, BWorkload::WriteSeq);
        // 1 MB/s normalized budget → B's sequential writes land near 1
        // MB/s (within a generous factor for bucket burst).
        assert!(
            p.b_mbps < 4.0,
            "sequential writer must be near its 1 MB/s cap: {}",
            p.b_mbps
        );
        assert!(p.b_mbps > 0.3, "but must make progress: {}", p.b_mbps);
    }
}
