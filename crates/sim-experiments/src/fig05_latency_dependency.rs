//! Figure 5 — I/O Latency Dependencies under Block-Deadline.
//!
//! Thread A appends one 4 KB block and fsyncs; thread B writes N random
//! blocks and fsyncs. Even with 20 ms block deadlines, A's fsync latency
//! grows with B's flush size: B's data is ordered under the same journal
//! transaction, so A's tiny fsync waits for B's entire flush.

use sim_core::{SimDuration, SimTime};
use sim_workloads::{BatchRandFsyncer, FsyncAppender};

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{ms, Table};
use crate::{GB, KB};

/// B's flush sizes, in 4 KB blocks (the paper sweeps 16 KB..4 MB).
pub(crate) const B_BLOCKS: [u64; 5] = [4, 16, 64, 256, 1024];
/// Block deadline applied to both threads.
const DEADLINE: SimDuration = SimDuration::from_millis(20);
/// File B scribbles into.
const B_FILE: u64 = GB;

/// Configuration: 10 s per point quick, 30 s at paper scale.
pub type Config = Timed<10, 30>;

/// One point of the sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// B's flush size in bytes.
    pub b_bytes: u64,
    /// A's mean fsync latency (ms).
    pub a_mean_ms: f64,
    /// A's 95th-percentile fsync latency (ms).
    pub a_p95_ms: f64,
    /// Number of fsyncs A completed.
    pub a_count: usize,
}

/// Full sweep result.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// One point per B size.
    pub points: Vec<Point>,
}

/// Run one point of the sweep with the given scheduler.
pub(crate) fn run_point(cfg: &Config, nblocks: u64, sched: SchedChoice) -> Point {
    let (mut w, k) = build_world(Setup::new(sched).seed(cfg.seed));
    let a_file = w.prealloc_file(k, 64 * crate::MB, true);
    let b_file = w.prealloc_file(k, B_FILE, true);
    let a = w.spawn(
        k,
        Box::new(FsyncAppender::new(
            a_file,
            4 * KB,
            SimDuration::from_millis(5),
        )),
    );
    let _b = w.spawn(
        k,
        Box::new(BatchRandFsyncer::new(
            b_file,
            B_FILE,
            nblocks,
            SimDuration::from_millis(50),
            cfg.seed ^ 0x5ee,
        )),
    );
    // The paper sets per-process block deadlines (their Block-Deadline
    // extension): apply to both threads' block writes.
    for pid in [a, _b] {
        w.configure(k, pid, split_core::SchedAttr::WriteDeadline(DEADLINE));
    }
    w.run_for(cfg.duration);
    let st = w.kernel(k).stats.proc(a).expect("A ran");
    // Skip the first second (warm-up: journal cold, queues empty).
    let lat_ms: Vec<f64> = st
        .fsyncs
        .iter()
        .filter(|(t, _)| *t > SimTime::ZERO + SimDuration::from_secs(1))
        .map(|(_, d)| d.as_millis_f64())
        .collect();
    Point {
        b_bytes: nblocks * 4 * KB,
        a_mean_ms: sim_core::stats::mean(&lat_ms),
        a_p95_ms: sim_core::stats::percentile(&lat_ms, 95.0),
        a_count: lat_ms.len(),
    }
}

/// Run the full sweep under Block-Deadline.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let points = B_BLOCKS
        .iter()
        .map(|&n| run_point(cfg, n, SchedChoice::BlockDeadline20ms))
        .collect();
    FigResult { points }
}

impl FigResult {
    /// The sweep metrics: A's mean and p95 fsync latency per B flush size.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let per_point = |p: &Point| {
            let kb = p.b_bytes / KB;
            [
                (format!("a_mean_ms_{kb}kb"), p.a_mean_ms),
                (format!("a_p95_ms_{kb}kb"), p.a_p95_ms),
            ]
        };
        self.points.iter().flat_map(per_point).collect()
    }
}

/// `runner fig05`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 5 — A's fsync latency vs B's flush size (Block-Deadline, 20 ms deadlines)"
        )?;
        let mut t = Table::new(["B flush", "A mean fsync", "A p95 fsync", "A fsyncs"]);
        for p in &self.points {
            t.row([
                format!("{} KB", p.b_bytes / KB),
                ms(p.a_mean_ms),
                ms(p.a_p95_ms),
                p.a_count.to_string(),
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
    fn a_latency_grows_with_b_flush_size() {
        let cfg = Config::at(Profile::Quick, 0);
        let small = run_point(&cfg, B_BLOCKS[0], SchedChoice::BlockDeadline20ms);
        let large = run_point(&cfg, B_BLOCKS[4], SchedChoice::BlockDeadline20ms);
        assert!(small.a_count > 5, "A must make progress: {small:?}");
        assert!(large.a_count > 1, "A must make progress: {large:?}");
        assert!(
            large.a_mean_ms > 3.0 * small.a_mean_ms,
            "A's fsync latency must scale with B's flush: {} vs {} ms",
            large.a_mean_ms,
            small.a_mean_ms
        );
    }
}
