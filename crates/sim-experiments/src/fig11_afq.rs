//! Figure 11 — AFQ vs CFQ across four priority workloads.
//!
//! (a) sequential reads — both respect priorities;
//! (b) async sequential writes — CFQ flattens (write delegation), AFQ
//!     follows the goal;
//! (c) sync random writes (4 KB write + fsync) — CFQ inverts under the
//!     journal, AFQ gates low-priority fsyncs;
//! (d) in-memory overwrites — no disk contention; both run at memory
//!     speed (AFQ pays a little bookkeeping).

use sim_block::IoPrio;
use sim_core::{Pid, SimDuration};
use sim_workloads::{BatchRandFsyncer, MemOverwriter, SeqReader, SeqWriter};

use crate::fig03_cfq_async_unfair::{goal_shares, mean_deviation, shares_pct};
use crate::registry::{CellOutput, CellRequest, Profile};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, KB, MB};

/// Which of the four panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// (a) sequential reads.
    SeqRead,
    /// (b) async sequential writes.
    AsyncWrite,
    /// (c) sync random writes (write 4 KB + fsync).
    SyncRandWrite,
    /// (d) overwrites confined to the cache.
    MemOverwrite,
}

impl Workload {
    /// Panel label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Workload::SeqRead => "(a) seq read",
            Workload::AsyncWrite => "(b) async write",
            Workload::SyncRandWrite => "(c) sync rand write",
            Workload::MemOverwrite => "(d) mem overwrite",
        }
    }
}

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Simulated run time per panel.
    pub duration: SimDuration,
    /// Threads per priority level in panel (c) (the paper uses 5).
    pub sync_threads_per_prio: usize,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// 15 s per panel with 2 sync threads per level quick; 60 s with
    /// the paper's 5 at paper scale.
    pub(crate) fn at(profile: Profile, seed: u64) -> Self {
        Config {
            duration: profile.secs(15, 60),
            sync_threads_per_prio: profile.pick(2, 5),
            seed,
        }
    }
}

/// One scheduler's result on one panel.
#[derive(Debug, Clone)]
pub(crate) struct PanelResult {
    /// Scheduler.
    pub sched: &'static str,
    /// Panel.
    pub workload: Workload,
    /// Share of throughput per priority level (%).
    pub share_pct: [f64; 8],
    /// Mean relative deviation from the goal distribution.
    pub deviation: f64,
    /// Total throughput (MB/s).
    pub total_mbps: f64,
}

/// Full figure: every panel × {CFQ, AFQ}.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// All panels.
    pub panels: Vec<PanelResult>,
}

/// Run one panel with one scheduler.
pub(crate) fn run_panel(cfg: &Config, sched: SchedChoice, wl: Workload) -> PanelResult {
    let (mut w, k) = build_world(Setup::new(sched).seed(cfg.seed));
    // pids[level] holds that priority level's thread(s).
    let mut pids: Vec<Vec<Pid>> = vec![Vec::new(); 8];
    for level in 0..8u8 {
        let nthreads = if wl == Workload::SyncRandWrite {
            cfg.sync_threads_per_prio
        } else {
            1
        };
        for t in 0..nthreads {
            let pid = match wl {
                Workload::SeqRead => {
                    let file = w.prealloc_file(k, 2 * GB, true);
                    w.spawn(k, Box::new(SeqReader::new(file, 2 * GB, MB)))
                }
                Workload::AsyncWrite => {
                    let file = w.prealloc_file(k, 2 * GB, true);
                    w.spawn(k, Box::new(SeqWriter::new(file, 2 * GB, MB)))
                }
                Workload::SyncRandWrite => {
                    let file = w.prealloc_file(k, 256 * MB, true);
                    w.spawn(
                        k,
                        Box::new(BatchRandFsyncer::new(
                            file,
                            256 * MB,
                            1,
                            SimDuration::ZERO,
                            cfg.seed ^ ((level as u64) << 8 | t as u64),
                        )),
                    )
                }
                Workload::MemOverwrite => {
                    let file = w.prealloc_file(k, 8 * MB, true);
                    w.spawn(k, Box::new(MemOverwriter::new(file, 4 * MB, 256 * KB)))
                }
            };
            w.set_ioprio(k, pid, IoPrio::best_effort(level));
            pids[level as usize].push(pid);
        }
    }
    w.run_for(cfg.duration);
    let stats = &w.kernel(k).stats;
    let mut bytes = [0u64; 8];
    for (level, level_pids) in pids.iter().enumerate() {
        for pid in level_pids {
            if let Some(s) = stats.proc(*pid) {
                bytes[level] += match wl {
                    Workload::SeqRead => s.read_bytes,
                    _ => s.write_bytes,
                };
            }
        }
    }
    let total: u64 = bytes.iter().sum::<u64>().max(1);
    let share_pct = shares_pct(bytes);
    PanelResult {
        sched: sched.name(),
        workload: wl,
        share_pct,
        deviation: mean_deviation(&share_pct, &goal_shares()),
        total_mbps: total as f64 / 1e6 / cfg.duration.as_secs_f64(),
    }
}

/// Run all four panels for CFQ and AFQ.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let mut panels = Vec::new();
    for wl in [
        Workload::SeqRead,
        Workload::AsyncWrite,
        Workload::SyncRandWrite,
        Workload::MemOverwrite,
    ] {
        for sched in [SchedChoice::Cfq, SchedChoice::Afq] {
            panels.push(run_panel(cfg, sched, wl));
        }
    }
    FigResult { panels }
}

impl FigResult {
    /// The sweep metrics: each panel's deviation from the goal, per scheduler.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let per_panel = |p: &PanelResult| {
            // "(b) async write" → "async_write".
            let panel = p.workload.label()[4..].replace(' ', "_");
            (format!("dev_{}_{panel}", p.sched), p.deviation)
        };
        self.panels.iter().map(per_panel).collect()
    }
}

/// `runner fig11`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 11 — AFQ vs CFQ priority shares (goal ∝ weight)")?;
        let goal = goal_shares();
        let mut t = Table::new([
            "panel",
            "sched",
            "p0 %",
            "p2 %",
            "p4 %",
            "p7 %",
            "dev %",
            "total MB/s",
        ]);
        t.row([
            "goal".to_string(),
            "-".to_string(),
            f1(goal[0]),
            f1(goal[2]),
            f1(goal[4]),
            f1(goal[7]),
            "0".to_string(),
            "-".to_string(),
        ]);
        for p in &self.panels {
            t.row([
                p.workload.label().to_string(),
                p.sched.to_string(),
                f1(p.share_pct[0]),
                f1(p.share_pct[2]),
                f1(p.share_pct[4]),
                f1(p.share_pct[7]),
                format!("{:.0}", p.deviation * 100.0),
                f1(p.total_mbps),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_a_both_respect_read_priorities() {
        let cfg = Config::at(Profile::Quick, 0);
        for sched in [SchedChoice::Cfq, SchedChoice::Afq] {
            let p = run_panel(&cfg, sched, Workload::SeqRead);
            assert!(
                p.share_pct[0] > 2.0 * p.share_pct[7],
                "{}: prio 0 should dominate prio 7: {:?}",
                p.sched,
                p.share_pct
            );
        }
    }

    #[test]
    fn panel_b_afq_respects_async_write_priorities_cfq_does_not() {
        let cfg = Config::at(Profile::Quick, 0);
        let cfq = run_panel(&cfg, SchedChoice::Cfq, Workload::AsyncWrite);
        let afq = run_panel(&cfg, SchedChoice::Afq, Workload::AsyncWrite);
        assert!(
            afq.deviation < 0.5 * cfq.deviation,
            "AFQ dev {:.2} must beat CFQ dev {:.2}",
            afq.deviation,
            cfq.deviation
        );
        assert!(
            afq.share_pct[0] > 1.5 * afq.share_pct[7],
            "AFQ must favour high priority: {:?}",
            afq.share_pct
        );
    }

    #[test]
    fn panel_c_afq_respects_sync_write_priorities() {
        let cfg = Config::at(Profile::Quick, 0);
        let cfq = run_panel(&cfg, SchedChoice::Cfq, Workload::SyncRandWrite);
        let afq = run_panel(&cfg, SchedChoice::Afq, Workload::SyncRandWrite);
        assert!(
            afq.deviation < cfq.deviation,
            "AFQ dev {:.2} must beat CFQ dev {:.2}",
            afq.deviation,
            cfq.deviation
        );
        assert!(
            afq.share_pct[0] > 1.5 * afq.share_pct[7],
            "AFQ must favour high priority under fsync: {:?}",
            afq.share_pct
        );
    }

    #[test]
    fn panel_d_memory_overwrites_fast_on_both() {
        let cfg = Config::at(Profile::Quick, 0);
        let cfq = run_panel(&cfg, SchedChoice::Cfq, Workload::MemOverwrite);
        let afq = run_panel(&cfg, SchedChoice::Afq, Workload::MemOverwrite);
        assert!(cfq.total_mbps > 500.0, "cfq mem total: {}", cfq.total_mbps);
        assert!(afq.total_mbps > 500.0, "afq mem total: {}", afq.total_mbps);
        // AFQ may be slightly slower (per-write bookkeeping) but not by
        // more than ~30%.
        assert!(afq.total_mbps > 0.7 * cfq.total_mbps);
    }
}
