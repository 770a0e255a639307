//! Figure 19 — PostgreSQL transaction-latency CDF (the "fsync freeze").
//!
//! A pgbench-like mix on an SSD with periodic checkpoints. Three systems:
//! Block-Deadline (the freeze: latency spikes at every checkpoint),
//! Split-Pdflush (Split-Deadline but pdflush still submits writeback on
//! its own — better, held back by untimely flusher bursts), and full
//! Split-Deadline (scheduler-owned writeback — the tail disappears).

use sim_apps::pgsim::{PgCheckpointer, PgConfig, PgShared, PgWorker, TABLE_BYTES};
use sim_core::{SimDuration, SimTime};
use split_core::SchedAttr;

use crate::registry::{CellOutput, CellRequest, Profile};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, ms, Table};
use crate::MB;

/// Worker thread count.
const WORKERS: usize = 4;
/// The latency target the paper uses (15 ms).
const TARGET_MS: f64 = 15.0;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Simulated run time.
    pub duration: SimDuration,
    /// Database workload parameters.
    pub pg: PgConfig,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// 25 s with a checkpoint every 8 s quick; 90 s with one every 30 s
    /// at paper scale.
    pub(crate) fn at(profile: Profile, seed: u64) -> Self {
        Config {
            duration: profile.secs(25, 90),
            pg: PgConfig {
                checkpoint_interval: profile.secs(8, 30),
                ..Default::default()
            },
            seed,
        }
    }
}

/// One system's latency distribution.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Scheduler name.
    pub sched: &'static str,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// 99.9th percentile (ms).
    pub p999_ms: f64,
    /// Worst transaction (ms) — where the fsync freeze lives.
    pub max_ms: f64,
    /// Fraction of transactions missing the 15 ms target (%).
    pub miss_pct: f64,
    /// Fraction exceeding 100 ms (%).
    pub over_100ms_pct: f64,
    /// Transactions completed.
    pub txns: usize,
}

/// Full figure.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// Block-Deadline.
    pub block: Series,
    /// Split-Pdflush.
    pub split_pdflush: Series,
    /// Split-Deadline.
    pub split: Series,
    /// Config used.
    pub cfg: Config,
}

fn run_one(cfg: &Config, sched: SchedChoice) -> Series {
    let (mut w, k) = build_world(Setup::new(sched).on_ssd().seed(cfg.seed));
    let pg = PgConfig {
        seed: cfg.seed,
        ..cfg.pg
    };
    let table_file = w.prealloc_file(k, TABLE_BYTES, true);
    let wal_file = w.prealloc_file(k, 128 * MB, true);
    let shared = PgShared::new();
    let mut workers = Vec::new();
    for i in 0..WORKERS {
        let pid = w.spawn(
            k,
            Box::new(PgWorker::new(
                shared.clone(),
                table_file,
                wal_file,
                cfg.seed ^ (0x9b + i as u64),
            )),
        );
        workers.push(pid);
    }
    let cp = w.spawn(
        k,
        Box::new(PgCheckpointer::new(pg, shared.clone(), table_file)),
    );
    match sched {
        SchedChoice::SplitDeadline | SchedChoice::SplitPdflush => {
            // §7.1.2's settings: 5 ms foreground fsync deadline, 200 ms
            // background checkpoint deadline, 5 ms block reads.
            for pid in &workers {
                w.configure(
                    k,
                    *pid,
                    SchedAttr::FsyncDeadline(SimDuration::from_millis(5)),
                );
            }
            w.configure(
                k,
                cp,
                SchedAttr::FsyncDeadline(SimDuration::from_millis(200)),
            );
        }
        _ => {
            for pid in workers.iter().chain(std::iter::once(&cp)) {
                w.configure(
                    k,
                    *pid,
                    SchedAttr::WriteDeadline(SimDuration::from_millis(5)),
                );
            }
        }
    }
    // Block reads carry a 5 ms deadline in all systems.
    for pid in &workers {
        w.configure(
            k,
            *pid,
            SchedAttr::ReadDeadline(SimDuration::from_millis(5)),
        );
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
    let n = lat_ms.len().max(1) as f64;
    let pcts = sim_core::stats::Percentiles::from_slice(&lat_ms);
    Series {
        sched: sched.name(),
        p50_ms: pcts.p50(),
        p99_ms: pcts.p99(),
        p999_ms: pcts.p(99.9),
        max_ms: lat_ms.iter().cloned().fold(0.0, f64::max),
        miss_pct: lat_ms.iter().filter(|&&l| l > TARGET_MS).count() as f64 / n * 100.0,
        over_100ms_pct: lat_ms.iter().filter(|&&l| l > 100.0).count() as f64 / n * 100.0,
        txns: lat_ms.len(),
    }
}

/// Run all three systems.
pub(crate) fn run(cfg: &Config) -> FigResult {
    FigResult {
        block: run_one(cfg, SchedChoice::BlockDeadline),
        split_pdflush: run_one(cfg, SchedChoice::SplitPdflush),
        split: run_one(cfg, SchedChoice::SplitDeadline),
        cfg: *cfg,
    }
}

impl FigResult {
    /// The sweep metrics: the tail, the worst transaction and the
    /// target-miss rate per system.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let per_system = |s: &Series| {
            let sys = s.sched.replace('-', "_");
            [
                (format!("{sys}_p999_ms"), s.p999_ms),
                (format!("{sys}_max_ms"), s.max_ms),
                (format!("{sys}_miss_pct"), s.miss_pct),
            ]
        };
        [&self.block, &self.split_pdflush, &self.split]
            .into_iter()
            .flat_map(per_system)
            .collect()
    }
}

/// `runner fig19`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 19 — PostgreSQL latencies (SSD, checkpoints every {:.0} s)",
            self.cfg.pg.checkpoint_interval.as_secs_f64()
        )?;
        let mut t = Table::new([
            "system", "p50", "p99", "p99.9", "max", ">15ms %", ">100ms %", "txns",
        ]);
        for s in [&self.block, &self.split_pdflush, &self.split] {
            t.row([
                s.sched.to_string(),
                ms(s.p50_ms),
                ms(s.p99_ms),
                ms(s.p999_ms),
                ms(s.max_ms),
                f1(s.miss_pct),
                f1(s.over_100ms_pct),
                s.txns.to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_deadline_fixes_the_fsync_freeze() {
        let r = run(&Config::at(Profile::Quick, 0));
        assert!(r.block.txns > 500, "block txns {}", r.block.txns);
        assert!(r.split.txns > 500, "split txns {}", r.split.txns);
        // The freeze: under Block-Deadline some transactions stall for
        // whole seconds while the checkpoint flushes (the paper's >500 ms
        // CDF tail); Split-Deadline removes it outright.
        assert!(
            r.block.max_ms > 500.0,
            "block must exhibit the freeze: max {} ms",
            r.block.max_ms
        );
        assert!(
            r.split.max_ms < 0.2 * r.block.max_ms,
            "split must remove the freeze: {} vs {} ms",
            r.split.max_ms,
            r.block.max_ms
        );
        // Split-Pdflush sits in between: pdflush's own bursts keep some
        // tail that full (scheduler-owned writeback) Split-Deadline
        // eliminates.
        assert!(
            r.split_pdflush.max_ms <= r.block.max_ms,
            "pdflush variant beats block: {} vs {}",
            r.split_pdflush.max_ms,
            r.block.max_ms
        );
        assert!(
            r.split.max_ms <= 1.05 * r.split_pdflush.max_ms,
            "owned writeback is at least as good as pdflush: {} vs {}",
            r.split.max_ms,
            r.split_pdflush.max_ms
        );
    }
}
