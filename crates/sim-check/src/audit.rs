//! The auditor plane: a set of invariant checkers observing the kernel.
//!
//! The kernel feeds the plane two kinds of input. [`AuditEvent`]s are
//! emitted inline at the interesting transitions (syscall entry/exit,
//! block-request submission/dispatch/completion, every file-system event,
//! each dirtied stretch of the page cache, scheduler gauges), with
//! borrowed payloads so the audit-free path pays nothing. An
//! [`AuditCheckpoint`] is a periodic whole-kernel snapshot of the redundant
//! counters (dirty-page totals, scheduler self-audits, event-queue
//! statistics) taken at syscall completion and request completion — the
//! points where every layer's books should agree.

use sim_block::Request;
use sim_cache::DirtiedStretch;
use sim_core::{Pid, SimDuration, SimTime};
use sim_fault::WriteStep;
use sim_fs::FsEvent;
use split_core::{SchedObserver, SyscallKind};

use crate::auditors;

/// One invariant violation: which auditor, when, and what went wrong.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulated time of the observation.
    pub at: SimTime,
    /// Name of the auditor that flagged it.
    pub auditor: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.6}s] {}: {}",
            self.at.as_secs_f64(),
            self.auditor,
            self.message
        )
    }
}

/// A cross-layer transition observed by the kernel, with payloads borrowed
/// from the kernel's own state. This is the only outlet for simulated
/// events, the kernel's own and those of the layers below it: the file
/// system's events, the page cache's dirtied stretches and the
/// scheduler's gauges reach the invariant auditors and the span tracer
/// through it too.
#[derive(Debug)]
pub enum AuditEvent<'a> {
    /// A process entered a system call.
    SyscallEnter {
        /// The calling process.
        pid: Pid,
        /// What it asked for.
        kind: &'a SyscallKind,
    },
    /// The scheduler's entry gate parked the caller (`Gate::Hold`).
    GateHeld {
        /// The parked process.
        pid: Pid,
    },
    /// A write was parked because dirty pages are over `dirty_ratio`.
    DirtyThrottled {
        /// The parked process.
        pid: Pid,
    },
    /// A gate-held or dirty-throttled caller resumed its syscall body.
    WaitEnded {
        /// The resumed process.
        pid: Pid,
    },
    /// A system call completed (the process was unblocked). Emitted before
    /// the scheduler's exit hook runs, so calls the hook wakes exit after it.
    SyscallExit {
        /// The calling process.
        pid: Pid,
        /// What it had asked for.
        kind: &'a SyscallKind,
        /// When it entered.
        entered: SimTime,
    },
    /// A request entered the block layer, with its write-ahead protocol
    /// role (`step`) as declared by the file system.
    BlockSubmitted {
        /// The submitted request.
        req: &'a Request,
        /// Protocol role of the write ([`WriteStep::Untracked`] for reads).
        step: &'a WriteStep,
        /// Requests the scheduler already held, this one excluded.
        sched_queued: usize,
    },
    /// The scheduler handed a request to the device.
    BlockDispatched {
        /// The dispatched request.
        req: &'a Request,
    },
    /// The device accepted a request into a hardware-queue slot. Virtio
    /// devices report slot 0 with depth 1, so the in-flight ledger is
    /// audited on every device.
    SlotAcquired {
        /// The accepted request.
        req: &'a Request,
        /// The hardware tag it occupies.
        slot: u32,
        /// Requests inside the device after this acceptance.
        in_flight: u32,
        /// Configured hardware queue depth.
        depth: u32,
    },
    /// A request left its hardware-queue slot (completed or failed).
    SlotReleased {
        /// The departing request.
        req: &'a Request,
        /// The tag it held.
        slot: u32,
        /// Requests inside the device after this release.
        in_flight: u32,
        /// Configured hardware queue depth.
        depth: u32,
    },
    /// A finished request's service time was billed to one of its causes.
    DiskCharged {
        /// The billed process.
        pid: Pid,
        /// Its cumulative disk time after this charge, seconds.
        total_s: f64,
    },
    /// A request left the device. Emitted before the scheduler and file
    /// system completion hooks run.
    BlockFinished {
        /// The finished request.
        req: &'a Request,
        /// Whether it failed (fault injection) rather than completed.
        failed: bool,
        /// Time it spent in service (zero on a virtio disk).
        service: SimDuration,
        /// Requests the scheduler still holds.
        sched_queued: usize,
    },
    /// The file system reported an event. A call's events are emitted in
    /// the order it recorded them, before the call's I/O is submitted.
    Fs(&'a FsEvent),
    /// A write committed one stretch of pages to the page cache.
    Dirtied(DirtiedStretch),
    /// The scheduler sampled a gauge from inside a hook: the `name/key`
    /// series took `value`.
    SchedGauge {
        /// Series name (`sched.tokens`, `layered.util_share`).
        name: &'static str,
        /// Series key: a pid, a bucket or a layer index.
        key: u64,
        /// The sampled value.
        value: f64,
    },
}

/// A periodic snapshot of the kernel's redundant bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct AuditCheckpoint<'a> {
    /// Simulated time of the snapshot.
    pub now: SimTime,
    /// The page cache's incrementally maintained dirty-page counter.
    pub cache_dirty_total: u64,
    /// The same quantity recomputed from the per-file extent maps.
    pub cache_dirty_sum: u64,
    /// Messages from the scheduler's own ledger audit
    /// ([`split_core::IoSched::audit`]).
    pub sched_errors: &'a [String],
    /// Events ever scheduled in the past (clamped) on the kernel's queue.
    pub late_events: u64,
    /// True when the kernel is known idle: no request queued or in flight,
    /// no process mid-syscall. Enables stricter emptiness checks.
    pub quiesced: bool,
}

/// An invariant checker. Auditors are stateful — they accumulate whatever
/// model of the run they need — and report violations as strings; the
/// plane stamps them with time and auditor name.
pub trait Auditor {
    /// Short name used in violation reports.
    fn name(&self) -> &'static str;

    /// Observe a cross-layer transition.
    fn on_event(&mut self, now: SimTime, ev: &AuditEvent<'_>, out: &mut Vec<String>) {
        let _ = (now, ev, out);
    }

    /// Observe a bookkeeping snapshot.
    fn on_checkpoint(&mut self, cp: &AuditCheckpoint<'_>, out: &mut Vec<String>) {
        let _ = (cp, out);
    }

    /// Which checkpoints this subscriber reads. Event-only probes (span
    /// tracing) read none, and an auditor that checks only the final
    /// books reads the quiescent one, so the kernel builds a snapshot
    /// only when some subscriber reads it — the scheduler's
    /// self-audit and the dirty-extent re-sum are the expensive part of
    /// auditing. A subscriber still sees every checkpoint the plane
    /// builds for another.
    fn checkpoints(&self) -> Checkpoints {
        Checkpoints::Always
    }
}

/// Which [`AuditCheckpoint`]s a subscriber reads ([`Auditor::checkpoints`]),
/// in increasing demand: a plane reads what its most demanding
/// subscriber reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Checkpoints {
    /// None: an event-only probe.
    Never,
    /// Only the final one, taken with [`AuditCheckpoint::quiesced`] set.
    AtQuiescence,
    /// Every one: at each syscall exit and request completion too.
    Always,
}

impl Checkpoints {
    /// Whether a checkpoint taken with `quiesced` is read.
    fn reads(self, quiesced: bool) -> bool {
        match self {
            Checkpoints::Never => false,
            Checkpoints::AtQuiescence => quiesced,
            Checkpoints::Always => true,
        }
    }
}

/// Cap on recorded violations: a systematically broken invariant fires on
/// every request, and the report is no better for the repetition.
const MAX_VIOLATIONS: usize = 256;

/// The installed set of auditors plus the violations they have found.
pub struct AuditPlane {
    /// Subscribers, run in registration order.
    auditors: Vec<Box<dyn Auditor>>,
    /// The most any of them reads ([`Auditor::checkpoints`]).
    checkpoints: Checkpoints,
    violations: Vec<Violation>,
    /// Total violations observed, including those dropped past the cap.
    total: u64,
    scratch: Vec<String>,
}

impl std::fmt::Debug for AuditPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditPlane")
            .field("auditors", &self.auditors.len())
            .field("violations", &self.violations.len())
            .field("total", &self.total)
            .finish()
    }
}

impl AuditPlane {
    /// A plane running the given auditors.
    pub fn new(auditors: Vec<Box<dyn Auditor>>) -> Self {
        AuditPlane {
            checkpoints: auditors
                .iter()
                .map(|a| a.checkpoints())
                .max()
                .unwrap_or(Checkpoints::Never),
            auditors,
            violations: Vec::new(),
            total: 0,
            scratch: Vec::new(),
        }
    }

    /// The standard battery: cause-tag conservation, dirty-page
    /// accounting, journal ordering, scheduler ledgers, event-queue
    /// sanity.
    pub fn standard() -> Self {
        Self::new(vec![
            Box::new(auditors::CauseTagAuditor::new()),
            Box::new(auditors::DirtyAccountingAuditor::new()),
            Box::new(auditors::JournalOrderAuditor::new()),
            Box::new(auditors::SchedLedgerAuditor::new()),
            Box::new(auditors::EventQueueAuditor::new()),
            Box::new(auditors::InflightAuditor::new()),
        ])
    }

    /// Install one more auditor on top of the current set — how the
    /// check harness adds scheduler-specific batteries (e.g. the
    /// [`crate::LayerAuditor`]) to [`AuditPlane::standard`].
    pub fn push(&mut self, auditor: Box<dyn Auditor>) {
        self.checkpoints = self.checkpoints.max(auditor.checkpoints());
        self.auditors.push(auditor);
    }

    /// Append the auditors of `other`, a plane that has not observed
    /// anything yet, behind this plane's own — installing a second plane
    /// on a kernel adds subscribers, it does not replace the first.
    pub fn merge(&mut self, other: AuditPlane) {
        self.checkpoints = self.checkpoints.max(other.checkpoints);
        self.auditors.extend(other.auditors);
    }

    /// Whether any subscriber reads a checkpoint taken with `quiesced`
    /// (see [`Auditor::checkpoints`]).
    pub fn wants_checkpoint(&self, quiesced: bool) -> bool {
        self.checkpoints.reads(quiesced)
    }

    /// Record a violation found outside the auditors — the kernel's stall
    /// report names blocked parties this way.
    pub fn report(&mut self, at: SimTime, auditor: &'static str, message: String) {
        Self::record(&mut self.violations, &mut self.total, at, auditor, message);
    }

    /// Feed one transition to every auditor.
    pub fn observe(&mut self, now: SimTime, ev: &AuditEvent<'_>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for a in &mut self.auditors {
            scratch.clear();
            a.on_event(now, ev, &mut scratch);
            let name = a.name();
            for message in scratch.drain(..) {
                Self::record(&mut self.violations, &mut self.total, now, name, message);
            }
        }
        self.scratch = scratch;
    }

    /// Feed one snapshot to every auditor.
    pub fn checkpoint(&mut self, cp: &AuditCheckpoint<'_>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for a in &mut self.auditors {
            scratch.clear();
            a.on_checkpoint(cp, &mut scratch);
            let name = a.name();
            for message in scratch.drain(..) {
                Self::record(&mut self.violations, &mut self.total, cp.now, name, message);
            }
        }
        self.scratch = scratch;
    }

    fn record(
        violations: &mut Vec<Violation>,
        total: &mut u64,
        at: SimTime,
        auditor: &'static str,
        message: String,
    ) {
        *total += 1;
        if violations.len() < MAX_VIOLATIONS {
            violations.push(Violation {
                at,
                auditor,
                message,
            });
        }
    }

    /// Violations recorded so far (capped; `total` keeps counting past it).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// A scheduler's gauges join the kernel's event stream.
impl SchedObserver for AuditPlane {
    fn gauge(&mut self, now: SimTime, name: &'static str, key: u64, value: f64) {
        self.observe(now, &AuditEvent::SchedGauge { name, key, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Grumpy;
    impl Auditor for Grumpy {
        fn name(&self) -> &'static str {
            "grumpy"
        }
        fn on_checkpoint(&mut self, _cp: &AuditCheckpoint<'_>, out: &mut Vec<String>) {
            out.push("no".into());
        }
    }

    #[test]
    fn violations_are_stamped_and_capped() {
        let mut plane = AuditPlane::new(vec![Box::new(Grumpy)]);
        let cp = AuditCheckpoint {
            now: SimTime::from_nanos(42),
            cache_dirty_total: 0,
            cache_dirty_sum: 0,
            sched_errors: &[],
            late_events: 0,
            quiesced: false,
        };
        for _ in 0..(MAX_VIOLATIONS + 10) {
            plane.checkpoint(&cp);
        }
        assert_eq!(plane.violations().len(), MAX_VIOLATIONS);
        assert_eq!(plane.total, (MAX_VIOLATIONS + 10) as u64);
        assert_eq!(plane.violations()[0].auditor, "grumpy");
        assert_eq!(plane.violations()[0].at, SimTime::from_nanos(42));
    }
}
