//! Request-level block tracing: when enabled, every dispatched block
//! request is recorded with its submitter, cause tags, location and
//! service time. Experiments use it to export the raw series behind the
//! figures (e.g. Figure 12's latency timeline) and tests use it to
//! assert on exact I/O interleavings.
//!
//! The table lives inside the [`Tracer`](crate::Tracer) handle beside
//! the span store; the kernel's block-trace probe feeds it one record
//! per finished request.

use sim_block::{ReqKind, Request};
use sim_core::{CauseSet, FileId, Pid, SimDuration, SimTime};
use sim_device::IoDir;

/// One traced block request.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// When the request was dispatched to the device.
    pub dispatched_at: SimTime,
    /// When it entered the block layer.
    pub submitted_at: SimTime,
    /// Device service time (zero for virtual devices).
    pub service: SimDuration,
    /// Direction.
    pub dir: IoDir,
    /// Data / journal / metadata.
    pub kind: ReqKind,
    /// Submitting task.
    pub submitter: Pid,
    /// Responsible processes.
    pub causes: CauseSet,
    /// Start block.
    pub start: u64,
    /// Blocks.
    pub nblocks: u64,
    /// Owning file, if known.
    pub file: Option<FileId>,
}

impl TraceRecord {
    /// Queueing delay: dispatch minus submission.
    pub fn queue_delay(&self) -> SimDuration {
        self.dispatched_at.since(self.submitted_at)
    }
}

/// A bounded in-memory trace of dispatched requests.
#[derive(Debug, Default)]
pub struct RequestTrace {
    records: Vec<TraceRecord>,
    cap: usize,
    dropped: u64,
}

impl RequestTrace {
    /// A trace holding at most `cap` records; once full, *older* records
    /// are kept and overflow is counted, not silently ignored.
    pub fn with_capacity(cap: usize) -> Self {
        RequestTrace {
            records: Vec::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Record one dispatched request.
    pub(crate) fn record(&mut self, req: &Request, service: SimDuration, now: SimTime) {
        if self.records.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.records.push(TraceRecord {
            dispatched_at: now,
            submitted_at: req.submitted_at,
            service,
            dir: req.dir,
            kind: req.kind,
            submitter: req.submitter,
            causes: req.causes.clone(),
            start: req.start.raw(),
            nblocks: req.nblocks,
            file: req.file,
        });
    }

    /// Iterate the records in dispatch order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{BlockNo, RequestId};

    fn req(id: u64, start: u64) -> Request {
        Request {
            id: RequestId(id),
            dir: IoDir::Write,
            start: BlockNo(start),
            nblocks: 4,
            submitter: Pid(7),
            causes: CauseSet::from_pids([Pid(1), Pid(2)]),
            sync: false,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::from_nanos(1_000_000),
            file: Some(FileId(9)),
            kind: ReqKind::Data,
        }
    }

    #[test]
    fn records_one_row_per_request() {
        let mut t = RequestTrace::with_capacity(10);
        t.record(
            &req(1, 100),
            SimDuration::from_millis(5),
            SimTime::from_nanos(3_000_000),
        );
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.records[0].queue_delay(), SimDuration::from_millis(2));
    }

    #[test]
    fn capacity_is_respected_and_counted() {
        let mut t = RequestTrace::with_capacity(2);
        for i in 0..5 {
            t.record(&req(i, i * 10), SimDuration::ZERO, SimTime::from_nanos(i));
        }
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.dropped, 3);
        // The first two dispatches survive.
        assert_eq!(t.records[0].dispatched_at, SimTime::from_nanos(0));
        assert_eq!(t.records[1].dispatched_at, SimTime::from_nanos(1));
    }
}
