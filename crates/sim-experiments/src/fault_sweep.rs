//! Fault-injection sweep (`runner --faults` / `faults`): the trust
//! experiment behind every other figure. Two passes:
//!
//! 1. **Crash-point sweep** — run an entangled three-transaction
//!    workload on the real kernel, for every stack of ext4/xfs × every
//!    scheduler × HDD/SSD × queue depth 1/8. A stream subscriber records
//!    each run's writes, completions and acknowledged commits in a
//!    [`DiskImage`]; replaying that one recording cuts power before
//!    *every* completion, in both crash modes (in-flight writes lost, or
//!    torn to one block). Every cut must uphold the paper's ordered-mode
//!    guarantees (acknowledged transactions durable, no metadata over
//!    stale data, torn logs never replayed), and the standard auditors
//!    must stay silent.
//! 2. **Device-fault sweep** — run the full stack (processes → cache →
//!    fs → scheduler → device) with a [`DeviceFaultPlane`] failing the
//!    n-th device write, for each n, and record how the error surfaced:
//!    an `EIO` to the fsyncing process, a journal abort, or both. The
//!    stack must degrade (fail syscalls) rather than panic or wedge.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use sim_block::BlockDeadline;
use sim_check::{AuditEvent, AuditPlane, Auditor, Checkpoints};
use sim_core::{FileId, SimDuration, SimTime, PAGE_SIZE};
use sim_device::IoDir;
use sim_fault::{DeviceFaultPlane, DiskImage};
use sim_fs::FsEvent;
use sim_kernel::{DeviceKind, FsChoice, KernelConfig, Outcome, ProcAction, World};
use split_core::{BlockOnly, SyscallKind};

use crate::registry::{CellOutput, CellRequest, Profile};
use crate::setup::{build_world, DeviceChoice, SchedChoice, Setup};
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

/// One stack's power-cut pass: its run, cut before every completion in
/// both crash modes.
#[derive(Debug, Clone)]
pub(crate) struct CrashStack {
    /// File system, scheduler, device and queue depth.
    pub stack: String,
    /// Cut points: the run's write completions, plus the cut before any.
    pub cuts: usize,
    /// Transactions replay recovers at the last cut, once every write
    /// landed.
    pub recovered: usize,
    /// Ordered-mode violations over every cut and both modes, plus the
    /// standard auditors' violations (must be 0).
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
    /// Power-cut sweep over the fsync/commit protocol, one row per stack.
    pub crash_stacks: Vec<CrashStack>,
    /// Single-device-write-failure sweep through the whole stack.
    pub fault_points: Vec<FaultPoint>,
}

impl FaultSweepResult {
    /// Total violations across every crash stack (0 = pass).
    pub(crate) fn total_violations(&self) -> usize {
        self.crash_stacks.iter().map(|p| p.violations).sum()
    }
}

// ---------------------------------------------------------------------
// Pass 1: power cuts replayed from a recorded run of the real kernel.
// ---------------------------------------------------------------------

/// One call of the crash workload, on the caller's own file.
#[derive(Debug, Clone, Copy)]
enum Call {
    Create,
    /// `Write(page, pages)`: `pages` pages from page `page` on.
    Write(u64, u64),
    Fsync,
}

/// The crash workload, one `(process, call)` at a time: A's fsync
/// commits B's ordered data with A's metadata (Figure 4's entanglement),
/// then B and A sync again — three transactions.
const SCRIPT: [(usize, Call); 9] = [
    (0, Call::Create),
    (1, Call::Create),
    (0, Call::Write(0, 2)),
    (1, Call::Write(0, 8)),
    (0, Call::Fsync),
    (1, Call::Write(8, 4)),
    (1, Call::Fsync),
    (0, Call::Write(0, 1)),
    (0, Call::Fsync),
];

/// Process `me` of [`SCRIPT`]: issues its calls when their turn comes
/// (`next` is the script position both processes share) and sleeps
/// otherwise.
fn crash_process(me: usize, next: Rc<Cell<usize>>) -> impl FnMut(SimTime, &Outcome) -> ProcAction {
    let mut file = FileId(0);
    let mut issued = false;
    move |_now, last| {
        if let Outcome::Created(f) = *last {
            file = f;
        }
        if std::mem::take(&mut issued) {
            next.set(next.get() + 1);
        }
        match SCRIPT.get(next.get()) {
            None => ProcAction::Exit,
            Some(&(who, call)) if who == me => {
                issued = true;
                ProcAction::Syscall(match call {
                    Call::Create => SyscallKind::Create,
                    Call::Write(page, pages) => SyscallKind::Write {
                        file,
                        offset: page * PAGE_SIZE,
                        len: pages * PAGE_SIZE,
                    },
                    Call::Fsync => SyscallKind::Fsync { file },
                })
            }
            Some(_) => ProcAction::Sleep(SimDuration::from_millis(1)),
        }
    }
}

/// Records the kernel's write protocol into a shadow [`DiskImage`]:
/// submitted writes with their protocol role, completed writes, and the
/// commits the stack acknowledged.
struct CrashProbe(Rc<RefCell<DiskImage>>);

impl Auditor for CrashProbe {
    fn name(&self) -> &'static str {
        "crash-probe"
    }

    fn checkpoints(&self) -> Checkpoints {
        Checkpoints::Never
    }

    fn on_event(&mut self, _now: SimTime, ev: &AuditEvent<'_>, _out: &mut Vec<String>) {
        let mut image = self.0.borrow_mut();
        match *ev {
            AuditEvent::BlockSubmitted { req, step, .. } if req.dir == IoDir::Write => {
                image.submit(req.id.raw(), step.clone(), req.nblocks);
            }
            AuditEvent::BlockFinished {
                req, failed: false, ..
            } => image.complete(req.id.raw()),
            AuditEvent::Fs(&FsEvent::TxnCommitted { txn }) => image.ack(txn),
            _ => {}
        }
    }
}

/// Every crash-sweep stack: ext4/xfs × scheduler × device × depth 1/8.
fn crash_setups() -> impl Iterator<Item = Setup> {
    [FsChoice::Ext4, FsChoice::Xfs].into_iter().flat_map(|fs| {
        SchedChoice::ALL.into_iter().flat_map(move |sched| {
            DeviceChoice::ALL.into_iter().flat_map(move |device| {
                [1, 8].map(move |queue_depth| Setup {
                    fs,
                    device,
                    queue_depth,
                    ..Setup::new(sched)
                })
            })
        })
    })
}

/// Run the crash workload on one stack under the standard auditors and
/// the [`CrashProbe`]: the recorded run, and the auditors' violations
/// (one more if the workload did not finish).
fn crash_run(setup: Setup) -> (DiskImage, usize) {
    let (mut w, k) = build_world(setup);
    let image = Rc::new(RefCell::new(DiskImage::new()));
    let mut plane = AuditPlane::standard();
    plane.push(Box::new(CrashProbe(Rc::clone(&image))));
    w.kernel_mut(k).install_audit_plane(plane);
    let next = Rc::new(Cell::new(0));
    for me in 0..2 {
        w.spawn(k, Box::new(crash_process(me, Rc::clone(&next))));
    }
    w.run_for(SimDuration::from_secs(2));
    w.audit_quiesce(k);
    let audit = w
        .kernel(k)
        .audit_plane()
        .map_or(0, |p| p.violations().len());
    (image.take(), audit + usize::from(next.get() < SCRIPT.len()))
}

/// `fs sched device qdN`, the crash table's row label.
fn stack_label(setup: &Setup) -> String {
    let (sched, device) = (setup.sched.name(), setup.device.name());
    format!("{:?} {sched} {device} qd{}", setup.fs, setup.queue_depth).to_lowercase()
}

fn crash_sweep() -> Vec<CrashStack> {
    crash_setups()
        .map(|setup| {
            let (image, audit) = crash_run(setup);
            let last = image.completions();
            // Both crash modes: in-flight writes lost, or torn to one
            // block (so a one-block commit record stays atomic).
            let violations: usize = [None, Some(1)]
                .into_iter()
                .flat_map(|torn| (0..=last).map(move |k| (k, torn)))
                .map(|(k, torn)| image.cut(k, torn).violations.len())
                .sum();
            CrashStack {
                stack: stack_label(&setup),
                cuts: last + 1,
                recovered: image.cut(last, None).recovered.len(),
                violations: violations + audit,
            }
        })
        .collect()
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
        crash_stacks: crash_sweep(),
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
        writeln!(
            f,
            "crash sweep: {} stacks x 2 crash modes, {} violation(s)",
            self.crash_stacks.len(),
            self.total_violations()
        )?;
        let mut t = Table::new(["stack", "cuts", "recovered", "violations"]);
        for p in &self.crash_stacks {
            t.row([
                p.stack.clone(),
                p.cuts.to_string(),
                p.recovered.to_string(),
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
    fn every_stack_survives_a_power_cut_before_every_completion() {
        let mut stacks = 0;
        for setup in crash_setups() {
            let (image, audit) = crash_run(setup);
            let label = stack_label(&setup);
            assert_eq!(audit, 0, "{label}: auditors flagged the run, or it wedged");
            let last = image.completions();
            assert!(last >= 10, "{label}: {last} completions, too few to cut");
            for torn in [None, Some(1)] {
                assert!(image.cut(0, torn).recovered.is_empty(), "{label}");
                for k in 0..=last {
                    let cut = image.cut(k, torn);
                    assert!(
                        cut.violations.is_empty(),
                        "{label}: cut before completion {} (torn={torn:?}): {:?}",
                        k + 1,
                        cut.violations
                    );
                }
                let end = image.cut(last, torn);
                assert!(end.acked.len() >= 3, "{label}: acked {:?}", end.acked);
                assert_eq!(end.recovered, end.acked, "{label}: every ack replays");
            }
            stacks += 1;
        }
        assert_eq!(stacks, 80);
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
