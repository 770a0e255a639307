//! Figure 3 — CFQ Throughput (async writes).
//!
//! Eight threads with priorities 0–7 each write sequentially to their own
//! file. Because the writeback thread (a priority-4 task) submits all the
//! writes, CFQ sees every request at priority 4 and shares the disk
//! equally — the "Completely Fair Scheduler" is not even slightly fair
//! for buffered writes. The right panel reproduces the observed
//! submitter-priority histogram.

use sim_block::IoPrio;
use sim_core::Pid;
use sim_workloads::SeqWriter;

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, MB};

/// Per-thread file size region.
const FILE_BYTES: u64 = 2 * GB;
/// Write syscall size.
const REQ: u64 = MB;

/// Configuration: 20 s quick, 60 s at paper scale.
pub type Config = Timed<20, 60>;

/// Result of the experiment.
#[derive(Debug, Clone)]
pub struct FigResult {
    /// Throughput share (%) per priority level 0..8, CFQ.
    pub share_pct: [f64; 8],
    /// The goal distribution (∝ priority weight).
    pub goal_pct: [f64; 8],
    /// Fraction of block requests CFQ saw at each best-effort level.
    pub observed_prio_pct: [f64; 8],
    /// Mean relative deviation from the goal (the paper reports 82%).
    pub deviation: f64,
}

/// Goal share for best-effort level `p` under CFQ weights.
pub(crate) fn goal_shares() -> [f64; 8] {
    let mut g = [0.0; 8];
    let total: u32 = (0..8).map(|p| IoPrio::best_effort(p).weight()).sum();
    for (p, slot) in g.iter_mut().enumerate() {
        *slot = IoPrio::best_effort(p as u8).weight() as f64 / total as f64 * 100.0;
    }
    g
}

/// Each count as a percentage of their total.
pub(crate) fn shares_pct(counts: [u64; 8]) -> [f64; 8] {
    let total = counts.iter().sum::<u64>().max(1);
    counts.map(|c| c as f64 / total as f64 * 100.0)
}

/// Mean relative deviation between achieved and goal shares.
pub(crate) fn mean_deviation(actual: &[f64; 8], goal: &[f64; 8]) -> f64 {
    let mut dev = 0.0;
    for i in 0..8 {
        dev += (actual[i] - goal[i]).abs() / goal[i];
    }
    dev / 8.0
}

/// Run the experiment (CFQ).
pub fn run(cfg: &Config) -> FigResult {
    let (mut w, k) = build_world(Setup::new(SchedChoice::Cfq).seed(cfg.seed));
    let pids: [Pid; 8] = std::array::from_fn(|level| {
        let file = w.prealloc_file(k, FILE_BYTES, true);
        let pid = w.spawn(k, Box::new(SeqWriter::new(file, FILE_BYTES, REQ)));
        w.set_ioprio(k, pid, IoPrio::best_effort(level as u8));
        pid
    });
    w.run_for(cfg.duration);
    let stats = &w.kernel(k).stats;
    let share_pct = shares_pct(pids.map(|p| stats.proc(p).map_or(0, |s| s.write_bytes)));
    let goal_pct = goal_shares();
    FigResult {
        share_pct,
        goal_pct,
        observed_prio_pct: shares_pct(stats.req_prio_hist),
        deviation: mean_deviation(&share_pct, &goal_pct),
    }
}

impl FigResult {
    /// The sweep metrics: the deviation from the goal, and how much of
    /// the request stream CFQ saw at the writeback thread's priority 4.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("deviation".into(), self.deviation),
            ("observed_prio4_pct".into(), self.observed_prio_pct[4]),
        ]
    }
}

/// `runner fig03`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 3 — CFQ async-write (un)fairness")?;
        let mut t = Table::new(["prio", "goal %", "CFQ share %", "requests seen at prio %"]);
        for p in 0..8 {
            t.row([
                p.to_string(),
                f1(self.goal_pct[p]),
                f1(self.share_pct[p]),
                f1(self.observed_prio_pct[p]),
            ]);
        }
        writeln!(f, "{}", t.render())?;
        writeln!(
            f,
            "mean deviation from goal: {:.0}%",
            self.deviation * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Profile;

    #[test]
    fn cfq_ignores_write_priorities_because_of_delegation() {
        let r = run(&Config::at(Profile::Quick, 0));
        // All eight threads end up roughly equal...
        let max = r.share_pct.iter().cloned().fold(f64::MIN, f64::max);
        let min = r.share_pct.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.6,
            "shares should be near-equal under CFQ: {:?}",
            r.share_pct
        );
        // ...which is far from the goal distribution.
        assert!(
            r.deviation > 0.4,
            "deviation should be large: {}",
            r.deviation
        );
        // And the reason: CFQ saw (almost) everything at priority 4.
        assert!(
            r.observed_prio_pct[4] > 90.0,
            "writeback submits at prio 4: {:?}",
            r.observed_prio_pct
        );
    }

    #[test]
    fn goal_shares_sum_to_100() {
        let g = goal_shares();
        let sum: f64 = g.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!(g[0] > g[7]);
    }
}
