//! Fault-injection sweep (`runner --faults` / `faults`): the trust
//! experiment behind every other figure. Two passes:
//!
//! 1. **Crash-point sweep** — drive the ordered-mode journal through
//!    [`CrashHarness`]'s three-transaction workload, cut power after
//!    *every* completed write, replay the journal against its
//!    `DiskImage` shadow and run the consistency checker. Every point
//!    must uphold the paper's ordered-mode guarantees
//!    (committed-and-acked transactions durable,
//!    no metadata over stale data, torn logs never replayed).
//! 2. **Device-fault sweep** — run the full stack (processes → cache →
//!    fs → scheduler → device) with a [`DeviceFaultPlane`] failing the
//!    n-th device write, for each n, and record how the error surfaced:
//!    an `EIO` to the fsyncing process, a journal abort, or both. The
//!    stack must degrade (fail syscalls) rather than panic or wedge.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use sim_block::BlockDeadline;
use sim_core::{SimDuration, SimTime};
use sim_fault::DeviceFaultPlane;
use sim_fs::CrashHarness;
use sim_kernel::{DeviceKind, KernelConfig, Outcome, ProcAction, World};
use split_core::{BlockOnly, SyscallKind};

use crate::registry::{CellOutput, CellRequest, Profile};
use crate::table::Table;
use crate::{KB, MB};

/// Sweep sizes.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Device write ops to sweep the injected failure across.
    pub fault_points: u64,
    /// Simulated run length per device-fault point.
    pub duration: SimDuration,
}

impl Config {
    /// 8 fault points of 500 ms quick, 24 of 2 s at paper scale. The
    /// sweep is exhaustive, not sampled, so it takes no seed.
    pub(crate) fn at(profile: Profile) -> Self {
        Config {
            fault_points: profile.pick(8, 24),
            duration: SimDuration::from_millis(profile.pick(500, 2_000)),
        }
    }
}

/// One power-cut point of the crash sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrashPoint {
    /// Writes completed before the cut.
    pub completions: usize,
    /// Transactions journal replay recovered.
    pub recovered: usize,
    /// Durability promises made before the cut.
    pub acked: usize,
    /// Ordered-mode violations the checker found (must be 0).
    pub violations: usize,
}

/// One device-fault point of the full-stack sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultPoint {
    /// Which device write op failed.
    pub nth_write: u64,
    /// Block requests the fault plane failed.
    pub io_errors: u64,
    /// Journal aborts that followed.
    pub journal_aborts: u64,
    /// Fsyncs that still completed durably.
    pub fsyncs_ok: usize,
    /// Fsyncs that returned the simulator's `EIO`.
    pub fsyncs_failed: usize,
}

/// Both sweeps.
#[derive(Debug, Clone)]
pub(crate) struct FaultSweepResult {
    /// Power-cut sweep over the fsync/commit protocol (both crash modes:
    /// in-flight writes lost, and torn to a one-block prefix).
    pub crash_points: Vec<CrashPoint>,
    /// Single-device-write-failure sweep through the whole stack.
    pub fault_points: Vec<FaultPoint>,
}

impl FaultSweepResult {
    /// Total ordered-mode violations across every crash point (0 = pass).
    pub(crate) fn total_violations(&self) -> usize {
        self.crash_points.iter().map(|p| p.violations).sum()
    }
}

// ---------------------------------------------------------------------
// Pass 1: protocol crash sweep against the DiskImage shadow.
// ---------------------------------------------------------------------

fn crash_sweep() -> Vec<CrashPoint> {
    let total = {
        let mut reference = CrashHarness::ext4();
        reference.run(None)
    };
    let mut points = Vec::new();
    // Every cut point, in both crash modes: clean loss and a one-block
    // torn prefix (the commit record, one block, stays atomic).
    for torn in [None, Some(1)] {
        for k in 0..=total {
            let mut r = CrashHarness::ext4();
            r.run(Some(k));
            r.image.crash(torn);
            let recovery = r.image.recover();
            let violations = r.image.check(&r.acked);
            points.push(CrashPoint {
                completions: k,
                recovered: recovery.recovered.len(),
                acked: r.acked.len(),
                violations: violations.len(),
            });
        }
    }
    points
}

// ---------------------------------------------------------------------
// Pass 2: device faults through the full stack.
// ---------------------------------------------------------------------

fn fault_point(nth: u64, duration: SimDuration) -> FaultPoint {
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::hdd(),
        Box::new(BlockOnly::new(BlockDeadline::new())),
    );
    w.kernel_mut(k)
        .install_fault_plane(DeviceFaultPlane::new().fail_write(nth));
    let file = w.prealloc_file(k, 64 * MB, true);
    let outcomes: Rc<RefCell<(usize, usize)>> = Rc::default();
    let log = outcomes.clone();
    let mut step = 0u64;
    let app = move |_now: SimTime, last: &Outcome| {
        match last {
            Outcome::Synced => log.borrow_mut().0 += 1,
            Outcome::Failed(_) => log.borrow_mut().1 += 1,
            _ => {}
        }
        let a = match step % 2 {
            0 => ProcAction::Syscall(SyscallKind::Write {
                file,
                offset: (step / 2) * 4 * KB,
                len: 4 * KB,
            }),
            _ => ProcAction::Syscall(SyscallKind::Fsync { file }),
        };
        step += 1;
        a
    };
    w.spawn(k, Box::new(app));
    w.run_for(duration);
    let stats = &w.kernel(k).stats;
    let (fsyncs_ok, fsyncs_failed) = *outcomes.borrow();
    FaultPoint {
        nth_write: nth,
        io_errors: stats.io_errors,
        journal_aborts: stats.journal_aborts,
        fsyncs_ok,
        fsyncs_failed,
    }
}

/// Run both sweeps.
pub(crate) fn run(cfg: &Config) -> FaultSweepResult {
    FaultSweepResult {
        crash_points: crash_sweep(),
        fault_points: (0..cfg.fault_points)
            .map(|n| fault_point(n, cfg.duration))
            .collect(),
    }
}

/// `runner faults` / `--faults`: both sweeps; `--csv` adds the
/// device-fault points, and any ordered-mode violation fails the run.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile));
    let mut out = CellOutput::of(&r, Vec::new());
    if req.csv {
        let mut csv = String::from("nth_write,io_errors,journal_aborts,fsyncs_ok,fsyncs_eio\n");
        for p in &r.fault_points {
            csv.push_str(&format!(
                "{},{},{},{},{}\n",
                p.nth_write, p.io_errors, p.journal_aborts, p.fsyncs_ok, p.fsyncs_failed
            ));
        }
        out.push_artifact("fault_sweep.csv", csv);
    }
    let violations = r.total_violations();
    out.failure = (violations > 0).then(|| format!("{violations} consistency violation(s)"));
    out
}

impl fmt::Display for FaultSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fault sweep: power-cut replay + single-device-write failures"
        )?;
        let half = self.crash_points.len() / 2;
        writeln!(
            f,
            "crash sweep: {} cut points x 2 crash modes, {} violation(s)",
            half,
            self.total_violations()
        )?;
        let mut t = Table::new(["cut after", "recovered", "acked", "violations"]);
        for p in self.crash_points.iter().take(half) {
            t.row([
                p.completions.to_string(),
                p.recovered.to_string(),
                p.acked.to_string(),
                p.violations.to_string(),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(f)?;
        let mut t = Table::new([
            "failed write",
            "io errors",
            "journal aborts",
            "fsyncs ok",
            "fsyncs EIO",
        ]);
        for p in &self.fault_points {
            t.row([
                p.nth_write.to_string(),
                p.io_errors.to_string(),
                p.journal_aborts.to_string(),
                p.fsyncs_ok.to_string(),
                p.fsyncs_failed.to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_sweep_passes_the_checker_at_every_injection_point() {
        let r = run(&Config::at(Profile::Quick));
        assert_eq!(r.total_violations(), 0, "{r}");
        assert!(r.crash_points.len() >= 20, "sweep must cover the protocol");
        let last = r.crash_points[r.crash_points.len() / 2 - 1];
        assert!(last.recovered >= 3, "full run recovers all txns: {last:?}");
    }

    #[test]
    fn every_device_fault_point_degrades_without_wedging() {
        let r = run(&Config::at(Profile::Quick));
        for p in &r.fault_points {
            assert_eq!(p.io_errors, 1, "exactly the planned failure: {p:?}");
            assert!(
                p.fsyncs_ok + p.fsyncs_failed > 0,
                "the workload must keep making syscall progress: {p:?}"
            );
            assert!(p.journal_aborts <= 1, "{p:?}");
            if p.journal_aborts == 1 {
                assert!(p.fsyncs_failed > 0, "an abort must fail fsyncs: {p:?}");
            }
        }
        // The sweep must hit both failure modes somewhere: a data-write
        // failure (EIO, journal healthy) and a journal-write failure
        // (abort).
        assert!(r.fault_points.iter().any(|p| p.journal_aborts == 0));
        assert!(r.fault_points.iter().any(|p| p.journal_aborts == 1));
    }
}
