//! Figure 10 — tag-memory (space) overhead.
//!
//! The split framework's only memory cost is the cause tags on dirty
//! buffers. Under a write-heavy workload (the paper instruments an HDFS
//! worker), average and maximum live tag bytes are measured as a function
//! of the dirty-ratio setting — more buffering, more tags.

use sim_core::SimDuration;
use sim_workloads::SeqWriter;

use crate::registry::{CellOutput, CellRequest, Profile};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, MB};

/// Dirty ratios to sweep (background ratio tracks at half).
const RATIOS: [f64; 4] = [0.10, 0.20, 0.35, 0.50];
/// Writer thread count.
const WRITERS: usize = 8;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Simulated run time per ratio.
    pub duration: SimDuration,
    /// Modeled RAM.
    pub mem: u64,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// 10 s per ratio on a 512 MB machine quick; 30 s on a 2 GB machine
    /// at paper scale (the paper's worker has 8 GB).
    pub(crate) fn at(profile: Profile, seed: u64) -> Self {
        Config {
            duration: profile.secs(10, 30),
            mem: profile.pick(512 * MB, 2 * GB),
            seed,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// Dirty ratio.
    pub ratio: f64,
    /// Average live tag bytes.
    pub avg_bytes: f64,
    /// Peak live tag bytes.
    pub max_bytes: u64,
    /// Peak tag bytes as a fraction of RAM (%).
    pub max_pct_of_ram: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// One point per ratio.
    pub points: Vec<Point>,
}

/// Run the sweep.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let mut points = Vec::new();
    for ratio in RATIOS {
        let (mut w, k) = build_world(
            Setup::new(SchedChoice::SplitToken)
                .mem(cfg.mem)
                .dirty_ratio(ratio)
                .seed(cfg.seed),
        );
        for _ in 0..WRITERS {
            let file = w.prealloc_file(k, 4 * GB, true);
            w.spawn(k, Box::new(SeqWriter::new(file, 4 * GB, MB)));
        }
        w.run_for(cfg.duration);
        let tm = w.kernel(k).cache().tagmem();
        points.push(Point {
            ratio,
            avg_bytes: tm.avg_bytes(),
            max_bytes: tm.max_bytes(),
            max_pct_of_ram: tm.max_bytes() as f64 / cfg.mem as f64 * 100.0,
        });
    }
    FigResult { points }
}

impl FigResult {
    /// The sweep metrics: peak live tag memory (KB) per dirty ratio.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let per_point = |p: &Point| {
            (
                format!("max_tag_kb_r{:02.0}", p.ratio * 100.0),
                p.max_bytes as f64 / 1024.0,
            )
        };
        self.points.iter().map(per_point).collect()
    }
}

/// `runner fig10`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 10 — tag memory overhead vs dirty ratio")?;
        let mut t = Table::new(["dirty ratio", "avg tag KB", "max tag KB", "max % of RAM"]);
        for p in &self.points {
            t.row([
                format!("{:.0}%", p.ratio * 100.0),
                f1(p.avg_bytes / 1024.0),
                f1(p.max_bytes as f64 / 1024.0),
                format!("{:.3}", p.max_pct_of_ram),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_memory_is_small_and_grows_with_dirty_ratio() {
        let r = run(&Config::at(Profile::Quick, 0));
        // Overhead stays well under 1% of RAM at every ratio (the paper
        // reports 0.2–0.6%).
        for p in &r.points {
            assert!(p.max_bytes > 0, "tags must exist: {p:?}");
            assert!(p.max_pct_of_ram < 1.0, "tag overhead must stay tiny: {p:?}");
        }
        // More buffering → more live tags.
        let first = r.points.first().unwrap();
        let last = r.points.last().unwrap();
        assert!(
            last.max_bytes > first.max_bytes,
            "peak tags should grow with dirty ratio: {} vs {}",
            last.max_bytes,
            first.max_bytes
        );
    }
}
