//! Figure 12 (and Table 3) — fsync latency isolation.
//!
//! Thread A appends 4 KB and fsyncs (database log); thread B writes 1024
//! random blocks and fsyncs (checkpoint), starting after a warm-up. Under
//! Block-Deadline, A's fsyncs blow up by an order of magnitude while B is
//! active; under Split-Deadline, A stays near its deadline because B's
//! expensive fsync is held at the syscall gate and its data is drained by
//! asynchronous writeback.

use sim_core::{KernelId, Pid, SimDuration, SimTime};
use sim_kernel::{ProcAction, ProcessLogic, World};
use sim_workloads::{BatchRandFsyncer, FsyncAppender};
use split_core::SchedAttr;

use crate::registry::{CellOutput, CellRequest, Profile};
use crate::setup::{build_world, DeviceChoice, SchedChoice, Setup};
use crate::table::{ms, Table};
use crate::{GB, KB, MB};

/// Blocks per B batch (the paper's 1024 = 4 MB).
pub(crate) const B_BLOCKS: u64 = 1024;

/// Deadline settings (Table 3): `(A, B)` per level.
#[derive(Debug, Clone, Copy)]
pub struct Deadlines {
    /// Block-write deadline for Block-Deadline runs.
    pub block_write: SimDuration,
    /// A's fsync deadline for Split-Deadline runs.
    pub a_fsync: SimDuration,
    /// B's fsync deadline for Split-Deadline runs.
    pub b_fsync: SimDuration,
}

/// The fsync-contention scenario: A appends 4 KB and fsyncs every
/// 20 ms (a database log); B writes a batch of random 4 KB blocks and
/// fsyncs (a checkpoint). Shared by this figure, `runner breakdown` and
/// the tracing integration tests.
#[derive(Debug, Clone, Copy)]
pub struct Contention {
    /// Size of A's log file.
    pub a_file: u64,
    /// Size of the file B scribbles over.
    pub b_file: u64,
    /// Blocks per B batch.
    pub b_blocks: u64,
    /// When B starts issuing its big fsyncs (zero: with A).
    pub b_start: SimDuration,
    /// Deadlines (Table 3).
    pub deadlines: Deadlines,
}

impl Contention {
    /// Figure 12's scenario with Table 3's deadlines for `device`.
    pub fn fig12(device: DeviceChoice) -> Self {
        let (block_write, a_fsync, b_fsync) = match device {
            DeviceChoice::Hdd => (20, 100, 400),
            DeviceChoice::Ssd => (5, 20, 100),
        };
        Contention {
            a_file: 256 * MB,
            b_file: GB,
            b_blocks: B_BLOCKS,
            b_start: SimDuration::from_secs(5),
            deadlines: Deadlines {
                block_write: SimDuration::from_millis(block_write),
                a_fsync: SimDuration::from_millis(a_fsync),
                b_fsync: SimDuration::from_millis(b_fsync),
            },
        }
    }

    /// Build the world (not yet run) on `setup`'s machine and return A's
    /// and B's pids. `observe` installs whatever observers the caller
    /// wants before anything is spawned. Split-Deadline gets the fsync
    /// deadlines; every other scheduler the block-write deadline.
    pub fn world(
        &self,
        setup: Setup,
        observe: impl FnOnce(&mut World, KernelId),
    ) -> (World, KernelId, Pid, Pid) {
        let (mut w, k) = build_world(setup);
        observe(&mut w, k);
        let a_file = w.prealloc_file(k, self.a_file, true);
        let b_file = w.prealloc_file(k, self.b_file, true);
        let a = w.spawn(
            k,
            Box::new(FsyncAppender::new(
                a_file,
                4 * KB,
                SimDuration::from_millis(20),
            )),
        );
        let checkpoints = BatchRandFsyncer::new(
            b_file,
            self.b_file,
            self.b_blocks,
            SimDuration::from_millis(100),
            setup.seed ^ 0xb12,
        );
        let b = if self.b_start == SimDuration::ZERO {
            w.spawn(k, Box::new(checkpoints))
        } else {
            w.spawn(
                k,
                Box::new(DelayedStart {
                    start: SimTime::ZERO + self.b_start,
                    started: false,
                    inner: checkpoints,
                }),
            )
        };
        match setup.sched {
            SchedChoice::SplitDeadline => {
                w.configure(k, a, SchedAttr::FsyncDeadline(self.deadlines.a_fsync));
                w.configure(k, b, SchedAttr::FsyncDeadline(self.deadlines.b_fsync));
            }
            _ => {
                for pid in [a, b] {
                    w.configure(k, pid, SchedAttr::WriteDeadline(self.deadlines.block_write));
                }
            }
        }
        (w, k, a, b)
    }
}

/// The schedulers the contention scenario compares: Block-Deadline at
/// 20 ms expiries, then Split-Deadline.
pub(crate) const CONTENDERS: [SchedChoice; 2] =
    [SchedChoice::BlockDeadline20ms, SchedChoice::SplitDeadline];

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Simulated run time.
    pub duration: SimDuration,
    /// Device.
    pub device: DeviceChoice,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// The HDD run: 20 s quick, 60 s at paper scale.
    pub(crate) fn at(profile: Profile, seed: u64) -> Self {
        Config {
            duration: profile.secs(20, 60),
            device: DeviceChoice::Hdd,
            seed,
        }
    }

    /// The same run on `device`.
    pub(crate) fn on(self, device: DeviceChoice) -> Self {
        Config { device, ..self }
    }
}

/// A delayed-start wrapper so B begins after the warm-up window.
struct DelayedStart<L> {
    start: SimTime,
    started: bool,
    inner: L,
}

impl<L: ProcessLogic> ProcessLogic for DelayedStart<L> {
    fn next(&mut self, now: SimTime, last: &sim_kernel::Outcome) -> ProcAction {
        if !self.started {
            self.started = true;
            return ProcAction::Sleep(self.start.since(now));
        }
        self.inner.next(now, last)
    }
}

/// One scheduler's outcome.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Scheduler name.
    pub sched: &'static str,
    /// A's (time, latency-ms) points.
    pub a_latencies: Vec<(f64, f64)>,
    /// A's mean fsync latency before B starts (ms).
    pub a_before_ms: f64,
    /// A's p95 fsync latency while B is active (ms).
    pub a_during_p95_ms: f64,
    /// B's fsyncs completed.
    pub b_fsyncs: usize,
}

/// Full figure result.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// Block-Deadline baseline.
    pub block: Series,
    /// Split-Deadline.
    pub split: Series,
    /// Config used.
    pub cfg: Config,
}

/// One scheduler's run; with `trace`, also its Chrome trace-event JSON.
fn run_one(cfg: &Config, sched: SchedChoice, trace: bool) -> (Series, Option<String>) {
    let setup = Setup {
        device: cfg.device,
        seed: cfg.seed,
        ..Setup::new(sched)
    };
    let scenario = Contention::fig12(cfg.device);
    let (mut w, k, a, b) = scenario.world(setup, |w, k| {
        if trace {
            w.enable_tracing(k);
        }
    });
    w.run_for(cfg.duration);
    let stats = &w.kernel(k).stats;
    let a_st = stats.proc(a).expect("A ran");
    let b_st = stats.proc(b);
    let b_start_s = scenario.b_start.as_secs_f64();
    let a_latencies: Vec<(f64, f64)> = a_st
        .fsyncs
        .iter()
        .map(|(t, d)| (t.as_secs_f64(), d.as_millis_f64()))
        .collect();
    let before: Vec<f64> = a_latencies
        .iter()
        .filter(|(t, _)| *t > 1.0 && *t < b_start_s)
        .map(|(_, d)| *d)
        .collect();
    let during: Vec<f64> = a_latencies
        .iter()
        .filter(|(t, _)| *t > b_start_s + 1.0)
        .map(|(_, d)| *d)
        .collect();
    let during_pcts = sim_core::stats::Percentiles::new(during);
    let series = Series {
        sched: sched.name(),
        a_before_ms: sim_core::stats::mean(&before),
        a_during_p95_ms: during_pcts.p95(),
        a_latencies,
        b_fsyncs: b_st.map(|s| s.fsyncs.len()).unwrap_or(0),
    };
    let json = trace.then(|| w.tracer(k).expect("traced").chrome_json());
    (series, json)
}

/// Run the experiment on the configured device.
pub(crate) fn run(cfg: &Config) -> FigResult {
    run_traced(cfg, false).0
}

/// [`run`], with span tracing on if `trace`; then also returns each
/// scheduler's Chrome trace-event JSON (block, then split).
fn run_traced(cfg: &Config, trace: bool) -> (FigResult, [Option<String>; 2]) {
    let [(block, bj), (split, sj)] = CONTENDERS.map(|sched| run_one(cfg, sched, trace));
    let r = FigResult {
        block,
        split,
        cfg: *cfg,
    };
    (r, [bj, sj])
}

/// `runner fig12`: the table on the requested device. The SSD run is
/// quick at either scale, and without a device override it follows the
/// HDD table (the legacy composite).
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let ssd = Config::at(Profile::Quick, req.seed).on(DeviceChoice::Ssd);
    let cfg = match req.device {
        Some(DeviceChoice::Ssd) => ssd,
        _ => Config::at(req.profile, req.seed),
    };
    let (r, traces) = run_traced(&cfg, req.trace);
    let metrics = vec![
        ("block_before_ms".into(), r.block.a_before_ms),
        ("block_p95_during_ms".into(), r.block.a_during_p95_ms),
        ("split_before_ms".into(), r.split.a_before_ms),
        ("split_p95_during_ms".into(), r.split.a_during_p95_ms),
    ];
    let mut out = CellOutput::of(&r, metrics);
    for (label, json) in ["block", "split"].into_iter().zip(traces) {
        if let Some(json) = json {
            out.push_artifact(format!("fig12_{label}_trace.json"), json);
        }
    }
    if req.csv {
        for (label, s) in [("block", &r.block), ("split", &r.split)] {
            let mut csv = String::from("t_s,latency_ms\n");
            for (t, l) in &s.a_latencies {
                csv.push_str(&format!("{t:.3},{l:.3}\n"));
            }
            out.push_artifact(format!("fig12_hdd_{label}_timeline.csv"), csv);
        }
    }
    if req.device.is_none() {
        let rs = run(&ssd);
        out.metrics.extend([
            ("ssd_block_p95_during_ms".into(), rs.block.a_during_p95_ms),
            ("ssd_split_p95_during_ms".into(), rs.split.a_during_p95_ms),
        ]);
        out.summary.push_str(&format!("{rs}\n\n"));
    }
    out
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 12 — fsync latency isolation ({:?}, B: {} random blocks + fsync)",
            self.cfg.device, B_BLOCKS
        )?;
        let mut t = Table::new(["scheduler", "A before B", "A p95 during B", "B fsyncs"]);
        for s in [&self.block, &self.split] {
            t.row([
                s.sched.to_string(),
                ms(s.a_before_ms),
                ms(s.a_during_p95_ms),
                s.b_fsyncs.to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_deadline_isolates_a_on_hdd() {
        let r = run(&Config::at(Profile::Quick, 0));
        // Block-Deadline: A's tail latency explodes while B checkpoints.
        assert!(
            r.block.a_during_p95_ms > 4.0 * r.block.a_before_ms.max(1.0),
            "block-deadline should blow up: before {} p95-during {}",
            r.block.a_before_ms,
            r.block.a_during_p95_ms
        );
        // Split-Deadline: A's p95 stays in the vicinity of its deadline.
        let budget = Contention::fig12(r.cfg.device)
            .deadlines
            .a_fsync
            .as_millis_f64();
        assert!(
            r.split.a_during_p95_ms < 2.5 * budget,
            "split-deadline p95 {} must stay near the {} ms goal",
            r.split.a_during_p95_ms,
            budget
        );
        // And it is much better than the baseline (the paper reports 4×).
        assert!(
            r.block.a_during_p95_ms > 2.0 * r.split.a_during_p95_ms,
            "split {} vs block {}",
            r.split.a_during_p95_ms,
            r.block.a_during_p95_ms
        );
        // B still makes progress under Split-Deadline.
        assert!(r.split.b_fsyncs >= 1, "B must not starve");
    }

    #[test]
    fn split_deadline_isolates_a_on_ssd() {
        let r = run(&Config::at(Profile::Quick, 0).on(DeviceChoice::Ssd));
        assert!(
            r.block.a_during_p95_ms > 1.5 * r.split.a_during_p95_ms,
            "split {} vs block {} on SSD",
            r.split.a_during_p95_ms,
            r.block.a_during_p95_ms
        );
    }
}
