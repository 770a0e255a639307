#![warn(missing_docs)]
//! The block layer: request descriptors and the traditional block-level
//! scheduling framework (Figure 2a of the paper).
//!
//! A [`Request`] is what the file system or writeback path submits to the
//! block layer. It carries the *submitter* pid — all a classic block
//! scheduler can see — and, when the split framework is active, the
//! [`CauseSet`] of processes actually responsible. The gap between those
//! two fields is the paper's §2.3 argument in one struct.
//!
//! Elevators implement [`Elevator`]; this crate ships the three baselines
//! the paper compares against: [`Noop`], [`Cfq`] (Linux's Completely Fair
//! Queuing, with priority classes and anticipation) and [`BlockDeadline`]
//! (deadline + location queues, extended with per-process deadlines as in
//! §5.2).

mod cfq;
mod deadline;
mod mq;
mod noop;
pub mod sorted;

use sim_core::{BlockNo, CauseSet, Pid, RequestId, SimTime};
use sim_device::{DiskModel, DiskRequestShape, IoDir};

pub use cfq::Cfq;
pub use deadline::{BlockDeadline, DeadlineConfig};
pub use mq::{MqDispatch, QueueOccupancy};
pub use noop::Noop;

/// Linux-style I/O priority class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrioClass {
    /// Served before everything else.
    RealTime,
    /// The default class; levels 0 (high) – 7 (low).
    BestEffort,
    /// Served only when nothing else wants the disk (`ionice -c3`).
    Idle,
}

/// An I/O priority: class plus level (0 = highest within class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoPrio {
    /// Scheduling class.
    pub class: PrioClass,
    /// Level within the class, 0..=7.
    pub level: u8,
}

impl IoPrio {
    /// The default priority Linux gives processes: best-effort level 4.
    pub const DEFAULT: IoPrio = IoPrio {
        class: PrioClass::BestEffort,
        level: 4,
    };

    /// Best-effort at the given level.
    pub fn best_effort(level: u8) -> IoPrio {
        IoPrio {
            class: PrioClass::BestEffort,
            level: level.min(7),
        }
    }

    /// The idle class.
    pub fn idle() -> IoPrio {
        IoPrio {
            class: PrioClass::Idle,
            level: 7,
        }
    }

    /// CFQ's service weight for this priority; higher is more share.
    /// Always at least 1 — every constructible priority gets a non-zero
    /// share, and the elevators' slice math relies on that.
    pub fn weight(&self) -> u32 {
        match self.class {
            PrioClass::RealTime => 16,
            PrioClass::BestEffort => 8 - self.level.min(7) as u32,
            PrioClass::Idle => 1,
        }
    }
}

impl Default for IoPrio {
    fn default() -> Self {
        IoPrio::DEFAULT
    }
}

/// A block-layer request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Unique id within one kernel.
    pub id: RequestId,
    /// Transfer direction.
    pub dir: IoDir,
    /// First block.
    pub start: BlockNo,
    /// Length in blocks.
    pub nblocks: u64,
    /// The task that submitted the request to the block layer. For
    /// delegated writes this is the writeback or journal task — which is
    /// exactly why block-only schedulers misaccount (§2.3.1).
    pub submitter: Pid,
    /// The processes actually responsible (split-framework tag). Empty
    /// when the split framework is not tagging.
    pub causes: CauseSet,
    /// Whether a task is synchronously waiting on this request (reads,
    /// fsync-critical writes). CFQ idles only on sync queues.
    pub sync: bool,
    /// Submitter's I/O priority as seen at submission time.
    pub ioprio: IoPrio,
    /// Absolute deadline, when the submitting context set one.
    pub deadline: Option<SimTime>,
    /// When the request entered the block layer.
    pub submitted_at: SimTime,
    /// The file this I/O belongs to, when known. Journal-log writes have
    /// none.
    pub file: Option<sim_core::FileId>,
    /// What kind of I/O this is, from the file system's point of view.
    pub kind: ReqKind,
}

/// The file-system role of a block request. Split schedulers use this to
/// tell data writeback apart from journal commits and metadata
/// checkpoints; classic block schedulers cannot see it (it is part of the
/// split framework's added information).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReqKind {
    /// Ordinary file data.
    #[default]
    Data,
    /// Journal log blocks (description/metadata/commit records).
    Journal,
    /// In-place metadata checkpoint writes.
    Metadata,
}

impl Request {
    /// The request's device-level shape.
    pub fn shape(&self) -> DiskRequestShape {
        DiskRequestShape::new(self.dir, self.start, self.nblocks)
    }

    /// Transfer size in bytes (saturating, like
    /// [`DiskRequestShape::bytes`]).
    pub fn bytes(&self) -> u64 {
        self.nblocks.saturating_mul(sim_core::PAGE_SIZE)
    }

    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        self.dir == IoDir::Read
    }
}

/// What an elevator wants the dispatch loop to do next.
#[derive(Debug)]
pub enum Dispatch {
    /// Send this request to the device now.
    Issue(Request),
    /// The elevator has (or expects) work but chooses to wait until the
    /// given instant (anticipation, deadline alignment). The kernel arms a
    /// timer and re-polls.
    WaitUntil(SimTime),
    /// Nothing to do.
    Idle,
}

/// The block-level scheduling framework: the interface Linux exposes to
/// elevators, reproduced. The split framework reuses these hooks unchanged
/// (Table 2, "Origin: block").
pub trait Elevator {
    /// A request entered the block layer.
    fn add(&mut self, req: Request, now: SimTime);

    /// The device is idle; choose what to do. `dev` allows cost peeking.
    fn dispatch(&mut self, now: SimTime, dev: &dyn DiskModel) -> Dispatch;

    /// A previously issued request completed.
    fn completed(&mut self, req: &Request, now: SimTime);

    /// Number of requests currently queued (not yet issued).
    fn queued(&self) -> usize;

    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Self-audit the elevator's internal ledgers, returning one message
    /// per violated invariant. `quiesced` is true when the caller knows no
    /// request is queued or in flight, enabling stricter emptiness checks.
    /// The default implementation reports nothing.
    fn audit(&self, quiesced: bool) -> Vec<String> {
        let _ = quiesced;
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ioprio_weights_are_monotonic() {
        let mut last = u32::MAX;
        for level in 0..8 {
            let w = IoPrio::best_effort(level).weight();
            assert!(w < last);
            assert!(w >= 1, "every priority keeps a non-zero share");
            last = w;
        }
        assert_eq!(IoPrio::idle().weight(), 1);
        assert!(
            IoPrio {
                class: PrioClass::RealTime,
                level: 0
            }
            .weight()
                > IoPrio::best_effort(0).weight()
        );
    }

    #[test]
    fn request_shape_roundtrip() {
        let r = Request {
            id: RequestId(1),
            dir: IoDir::Write,
            start: BlockNo(100),
            nblocks: 8,
            submitter: Pid(2),
            causes: CauseSet::of(Pid(3)),
            sync: false,
            ioprio: IoPrio::DEFAULT,
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: Default::default(),
        };
        assert_eq!(r.bytes(), 32768);
        assert_eq!(r.shape().end(), BlockNo(108));
        assert!(!r.is_read());
    }
}
