//! Figure 15 — Split-Token scalability in B's thread count.
//!
//! A reads sequentially; B is a *group* of n threads sharing one token
//! bucket, doing disk reads, cached reads, cached overwrites, or pure spin
//! loops. For disk-bound B the thread count is irrelevant (the bucket is
//! shared). For memory/CPU-bound B, A eventually suffers — not from I/O,
//! but from CPU contention, which an I/O scheduler cannot fix (the paper
//! confirms this with the spin-loop line).

use sim_kernel::World;
use sim_workloads::{MemOverwriter, SeqReader, Spinner};
use split_core::SchedAttr;

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, KB, MB};

/// Thread counts to sweep.
const THREADS: [usize; 4] = [1, 16, 256, 1024];
/// Cores on the machine (the paper uses a 32-core node).
const CORES: u32 = 32;
/// B group throttle.
const B_RATE: u64 = MB;

/// B's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BActivity {
    /// Sequential disk reads (throttled as a group).
    SeqRead,
    /// Cached reads.
    ReadMem,
    /// Cached overwrites.
    WriteMem,
    /// Pure CPU spin, no I/O at all.
    Spin,
}

impl BActivity {
    /// All activities.
    pub const ALL: [BActivity; 4] = [
        BActivity::SeqRead,
        BActivity::ReadMem,
        BActivity::WriteMem,
        BActivity::Spin,
    ];

    /// Label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BActivity::SeqRead => "seq-read",
            BActivity::ReadMem => "read-mem",
            BActivity::WriteMem => "write-mem",
            BActivity::Spin => "spin",
        }
    }
}

/// Configuration: 5 s per point quick, 20 s at paper scale.
pub type Config = Timed<5, 20>;

/// One point: A's throughput with n B threads of one activity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// B activity.
    pub activity: BActivity,
    /// B thread count.
    pub threads: usize,
    /// A's throughput (MB/s).
    pub a_mbps: f64,
}

/// Full sweep.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// Every (activity, n) point.
    pub points: Vec<Point>,
}

fn spawn_b(
    w: &mut World,
    k: sim_core::KernelId,
    act: BActivity,
    shared_mem_file: sim_core::FileId,
) -> sim_core::Pid {
    match act {
        BActivity::SeqRead => {
            let f = w.prealloc_file(k, 2 * GB, true);
            w.spawn(k, Box::new(SeqReader::new(f, 2 * GB, 256 * KB)))
        }
        // The memory-bound threads share one small, resident working set
        // (as in the paper); only the first dirtying is ever charged.
        BActivity::ReadMem => w.spawn(
            k,
            Box::new(SeqReader::new(shared_mem_file, 4 * MB, 64 * KB)),
        ),
        BActivity::WriteMem => w.spawn(
            k,
            Box::new(MemOverwriter::new(shared_mem_file, 2 * MB, 64 * KB)),
        ),
        BActivity::Spin => w.spawn(k, Box::new(Spinner)),
    }
}

/// Run one point.
pub(crate) fn run_point(cfg: &Config, act: BActivity, threads: usize) -> Point {
    let (mut w, k) = build_world(
        Setup::new(SchedChoice::SplitToken)
            .cores(CORES)
            .seed(cfg.seed),
    );
    let a_file = w.prealloc_file(k, 4 * GB, true);
    let a = w.spawn(k, Box::new(SeqReader::new(a_file, 4 * GB, MB)));
    let shared_mem_file = w.prealloc_file(k, 8 * MB, true);
    w.kernel_mut(k)
        .cache_mut()
        .fill(shared_mem_file, 0, 8 * MB / sim_core::PAGE_SIZE);
    for i in 0..threads {
        let b = spawn_b(&mut w, k, act, shared_mem_file);
        // All B threads share one bucket (the paper: "all threads of B
        // share the same I/O limit").
        w.configure(k, b, SchedAttr::TokenGroup(1));
        if i == 0 {
            w.configure(k, b, SchedAttr::TokenRate(B_RATE));
        }
    }
    w.run_for(cfg.duration);
    Point {
        activity: act,
        threads,
        a_mbps: w.kernel(k).stats.read_mbps(a, cfg.duration),
    }
}

/// Run the full sweep.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let mut points = Vec::new();
    for act in BActivity::ALL {
        for n in THREADS {
            points.push(run_point(cfg, act, n));
        }
    }
    FigResult { points }
}

impl FigResult {
    /// The sweep metrics: A's throughput per B activity and thread count.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let per_point = |p: &Point| {
            let act = p.activity.label().replace('-', "_");
            (format!("a_mbps_{act}_{}t", p.threads), p.a_mbps)
        };
        self.points.iter().map(per_point).collect()
    }
}

/// `runner fig15`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 15 — A's throughput vs B's thread count (Split-Token)"
        )?;
        let mut t = Table::new(["B activity", "B threads", "A MB/s"]);
        for p in &self.points {
            t.row([
                p.activity.label().to_string(),
                p.threads.to_string(),
                f1(p.a_mbps),
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
    fn disk_bound_b_threads_do_not_hurt_a() {
        let cfg = Config::at(Profile::Quick, 0);
        let one = run_point(&cfg, BActivity::SeqRead, 1);
        let many = run_point(&cfg, BActivity::SeqRead, 64);
        assert!(
            (many.a_mbps - one.a_mbps).abs() / one.a_mbps < 0.15,
            "thread count must not matter for throttled disk I/O: {} vs {}",
            one.a_mbps,
            many.a_mbps
        );
    }

    #[test]
    fn spinning_threads_hurt_a_via_cpu_not_io() {
        let cfg = Config::at(Profile::Quick, 0);
        let few = run_point(&cfg, BActivity::Spin, 1);
        let some = run_point(&cfg, BActivity::Spin, 256);
        let many = run_point(&cfg, BActivity::Spin, 1024);
        assert!(
            some.a_mbps < 0.85 * few.a_mbps,
            "256 spinners on 32 cores must slow A: {} vs {}",
            few.a_mbps,
            some.a_mbps
        );
        assert!(
            many.a_mbps < 0.55 * few.a_mbps,
            "1024 spinners must crush A: {} vs {}",
            few.a_mbps,
            many.a_mbps
        );
    }

    #[test]
    fn mem_bound_b_only_hurts_beyond_core_count() {
        let cfg = Config::at(Profile::Quick, 0);
        let small = run_point(&cfg, BActivity::WriteMem, 16);
        let large = run_point(&cfg, BActivity::WriteMem, 1024);
        assert!(
            large.a_mbps < 0.8 * small.a_mbps,
            "beyond the cores, cached writers steal CPU: {} vs {}",
            small.a_mbps,
            large.a_mbps
        );
        // At 16 threads (half the cores) A is fine.
        let one = run_point(&cfg, BActivity::WriteMem, 1);
        assert!(small.a_mbps > 0.8 * one.a_mbps);
    }
}
