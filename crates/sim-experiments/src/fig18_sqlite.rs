//! Figure 18 — SQLite transaction tail latencies.
//!
//! Random row updates through a WAL with a checkpointer triggered by a
//! dirty-buffer threshold. Under Block-Deadline, raising the threshold
//! makes checkpoints rarer but *worse* — the p99 falls while the p99.9
//! keeps rising (the cost concentrates on fewer victims). Split-Deadline
//! (100 ms deadline on WAL fsyncs, 10 s on database fsyncs) removes the
//! tail (the paper reports 4× at 1 K buffers).

use sim_apps::minidb::{Checkpointer, MiniDbConfig, MiniDbShared, TxnWorker};
use sim_core::stats::Percentiles;
use sim_core::{SimDuration, SimTime};
use split_core::SchedAttr;

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{ms, Table};
use crate::MB;

/// Checkpoint thresholds to sweep (dirty buffers).
pub(crate) const THRESHOLDS: [u64; 3] = [200, 800, 2000];
/// Database size.
const DB_BYTES: u64 = 256 * MB;

/// Configuration: 25 s per point quick, 60 s at paper scale.
pub type Config = Timed<25, 60>;

/// One (scheduler, threshold) outcome.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point {
    /// Checkpoint threshold (buffers).
    pub threshold: u64,
    /// Transaction p99 latency (ms).
    pub p99_ms: f64,
    /// Transaction p99.9 latency (ms).
    pub p999_ms: f64,
}

/// Full figure.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// Block-Deadline sweep (panel a).
    pub block: Vec<Point>,
    /// Split-Deadline sweep (panel b).
    pub split: Vec<Point>,
}

/// Simulate one point: the post-warm-up transaction latencies (ms) and
/// the number of checkpoints completed.
fn measure(cfg: &Config, sched: SchedChoice, threshold: u64) -> (Vec<f64>, u64) {
    let (mut w, k) = build_world(Setup::new(sched).seed(cfg.seed));
    let db_file = w.prealloc_file(k, DB_BYTES, true);
    let wal_file = w.prealloc_file(k, 64 * MB, true);
    let shared = MiniDbShared::new();
    let db_cfg = MiniDbConfig {
        db_bytes: DB_BYTES,
        checkpoint_threshold: threshold,
        seed: cfg.seed,
    };
    let worker = w.spawn(k, Box::new(TxnWorker::new(shared.clone(), wal_file)));
    let cp = w.spawn(
        k,
        Box::new(Checkpointer::new(db_cfg, shared.clone(), db_file)),
    );
    if sched == SchedChoice::SplitDeadline {
        // Short deadline for WAL fsyncs (the worker), long for database
        // fsyncs (the checkpointer) — §7.1.1's settings.
        w.configure(
            k,
            worker,
            SchedAttr::FsyncDeadline(SimDuration::from_millis(100)),
        );
        w.configure(k, cp, SchedAttr::FsyncDeadline(SimDuration::from_secs(10)));
    } else {
        for pid in [worker, cp] {
            w.configure(
                k,
                pid,
                SchedAttr::WriteDeadline(SimDuration::from_millis(500)),
            );
        }
    }
    w.run_for(cfg.duration);
    let sh = shared.borrow();
    let warmup = SimTime::ZERO + SimDuration::from_secs(2);
    let lat_ms: Vec<f64> = sh
        .txn_latencies
        .iter()
        .filter(|(t, _)| *t > warmup)
        .map(|(_, d)| d.as_millis_f64())
        .collect();
    (lat_ms, sh.checkpoints)
}

/// Run one point.
pub(crate) fn run_point(cfg: &Config, sched: SchedChoice, threshold: u64) -> Point {
    let pcts = Percentiles::from_slice(&measure(cfg, sched, threshold).0);
    Point {
        threshold,
        p99_ms: pcts.p99(),
        p999_ms: pcts.p(99.9),
    }
}

/// Run both sweeps.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let sweep = |sched| {
        THRESHOLDS
            .iter()
            .map(|&t| run_point(cfg, sched, t))
            .collect::<Vec<_>>()
    };
    FigResult {
        block: sweep(SchedChoice::BlockDeadline),
        split: sweep(SchedChoice::SplitDeadline),
    }
}

impl FigResult {
    /// The sweep metrics: the p99 and p99.9 per system and threshold.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (sys, points) in [("block", &self.block), ("split", &self.split)] {
            for p in points {
                out.push((format!("{sys}_p99_ms_t{}", p.threshold), p.p99_ms));
                out.push((format!("{sys}_p999_ms_t{}", p.threshold), p.p999_ms));
            }
        }
        out
    }
}

/// `runner fig18`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 18 — SQLite transaction tail latencies")?;
        let mut t = Table::new([
            "threshold",
            "block p99",
            "block p99.9",
            "split p99",
            "split p99.9",
        ]);
        for (b, s) in self.block.iter().zip(&self.split) {
            t.row([
                b.threshold.to_string(),
                ms(b.p99_ms),
                ms(b.p999_ms),
                ms(s.p99_ms),
                ms(s.p999_ms),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Profile;

    fn p999(lat_ms: &[f64]) -> f64 {
        Percentiles::from_slice(lat_ms).p(99.9)
    }

    #[test]
    fn split_deadline_cuts_the_tail() {
        let cfg = Config::at(Profile::Quick, 0);
        let threshold = THRESHOLDS[1]; // ~1 K buffers, the paper's 4x point
        let (block, _) = measure(&cfg, SchedChoice::BlockDeadline, threshold);
        let (split, _) = measure(&cfg, SchedChoice::SplitDeadline, threshold);
        assert!(block.len() > 100, "block txns: {}", block.len());
        assert!(split.len() > 100, "split txns: {}", split.len());
        assert!(
            p999(&block) > 2.0 * p999(&split),
            "split p99.9 {} must beat block p99.9 {}",
            p999(&split),
            p999(&block)
        );
    }

    #[test]
    fn bigger_thresholds_concentrate_the_tail_under_block_deadline() {
        let cfg = Config::at(Profile::Quick, 0);
        let (small, small_cps) = measure(&cfg, SchedChoice::BlockDeadline, THRESHOLDS[0]);
        let (large, large_cps) = measure(&cfg, SchedChoice::BlockDeadline, THRESHOLDS[2]);
        // Rarer checkpoints, worse extremes.
        assert!(
            p999(&large) > p999(&small),
            "p99.9 should rise with threshold: {} vs {}",
            p999(&large),
            p999(&small)
        );
        assert!(large_cps <= small_cps);
    }
}
