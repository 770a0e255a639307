//! blk-mq-style dispatch: per-process software queues feeding bounded
//! hardware queue slots.
//!
//! The elevator stays in charge of *policy* — it decides which request
//! leaves the scheduler. This layer models the *plumbing* underneath
//! Linux's multi-queue block layer: issued requests land in their
//! submitter's software queue, and the queues drain round-robin into
//! the device's hardware slots as tags free up. It also keeps the
//! running [`QueueOccupancy`] picture that split schedulers read
//! through their hook context to see (and cap) a tenant's share of the
//! hardware queue.

use std::collections::VecDeque;

use sim_core::Pid;

use crate::Request;

/// A point-in-time picture of hardware-queue usage, maintained
/// incrementally by [`MqDispatch`] and exposed to scheduler hooks.
#[derive(Debug, Clone, Default)]
pub struct QueueOccupancy {
    /// Configured hardware queue depth.
    pub depth: u32,
    /// Requests inside the device (its queue or in service).
    pub in_flight: u32,
    /// Requests staged in software queues, not yet in the device.
    pub staged: u32,
    /// In-flight requests per submitter, in first-seen order.
    pub per_pid: Vec<(Pid, u32)>,
}

impl QueueOccupancy {
    /// In-flight requests attributed to `pid`.
    pub fn of(&self, pid: Pid) -> u32 {
        self.per_pid
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

/// Per-process software queues in front of the hardware queue.
#[derive(Debug, Default)]
pub struct MqDispatch {
    /// `(pid, queue)` in first-submission order; the order is part of
    /// the deterministic round-robin.
    queues: Vec<(Pid, VecDeque<Request>)>,
    /// Round-robin cursor into `queues`.
    rr: usize,
    occ: QueueOccupancy,
}

impl MqDispatch {
    /// A dispatch layer for a hardware queue of `depth` slots.
    pub fn new(depth: u32) -> Self {
        MqDispatch {
            queues: Vec::new(),
            rr: 0,
            occ: QueueOccupancy {
                depth,
                ..Default::default()
            },
        }
    }

    /// Requests staged in software queues.
    pub fn staged(&self) -> usize {
        self.occ.staged as usize
    }

    /// The live occupancy picture.
    pub fn occupancy(&self) -> &QueueOccupancy {
        &self.occ
    }

    /// Stage a request in its submitter's software queue.
    pub fn submit(&mut self, req: Request) {
        let pid = req.submitter;
        match self.queues.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, q)) => q.push_back(req),
            None => {
                let mut q = VecDeque::new();
                q.push_back(req);
                self.queues.push((pid, q));
            }
        }
        self.occ.staged += 1;
    }

    /// Take the next staged request, round-robin across processes.
    pub fn pop_next(&mut self) -> Option<Request> {
        if self.queues.is_empty() {
            return None;
        }
        let n = self.queues.len();
        for i in 0..n {
            let idx = (self.rr + i) % n;
            if let Some(req) = self.queues[idx].1.pop_front() {
                self.rr = (idx + 1) % n;
                self.occ.staged -= 1;
                return Some(req);
            }
        }
        None
    }

    /// The device accepted a request from `pid` into a hardware slot.
    pub fn note_accepted(&mut self, pid: Pid) {
        self.occ.in_flight += 1;
        match self.occ.per_pid.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, n)) => *n += 1,
            None => self.occ.per_pid.push((pid, 1)),
        }
    }

    /// A request from `pid` left the device (completed or failed).
    pub fn note_done(&mut self, pid: Pid) {
        self.occ.in_flight = self.occ.in_flight.saturating_sub(1);
        if let Some((_, n)) = self.occ.per_pid.iter_mut().find(|(p, _)| *p == pid) {
            *n = n.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoPrio, ReqKind};
    use sim_core::{BlockNo, CauseSet, RequestId, SimTime};
    use sim_device::IoDir;

    fn req(id: u64, pid: u32) -> Request {
        Request {
            id: RequestId(id),
            dir: IoDir::Write,
            start: BlockNo(id * 8),
            nblocks: 8,
            submitter: Pid(pid),
            causes: CauseSet::of(Pid(pid)),
            sync: false,
            ioprio: IoPrio::DEFAULT,
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: ReqKind::Data,
        }
    }

    #[test]
    fn drains_round_robin_across_processes() {
        let mut mq = MqDispatch::new(4);
        mq.submit(req(1, 10));
        mq.submit(req(2, 10));
        mq.submit(req(3, 11));
        mq.submit(req(4, 11));
        assert_eq!(mq.staged(), 4);
        let order: Vec<u64> = std::iter::from_fn(|| mq.pop_next().map(|r| r.id.raw())).collect();
        assert_eq!(order, vec![1, 3, 2, 4], "alternates between pids");
        assert_eq!(mq.staged(), 0);
    }

    #[test]
    fn occupancy_tracks_per_pid_in_flight() {
        let mut mq = MqDispatch::new(8);
        mq.submit(req(1, 10));
        mq.submit(req(2, 11));
        let a = mq.pop_next().unwrap();
        mq.note_accepted(a.submitter);
        let b = mq.pop_next().unwrap();
        mq.note_accepted(b.submitter);
        assert_eq!(mq.occupancy().in_flight, 2);
        assert_eq!(mq.occupancy().of(Pid(10)), 1);
        mq.note_done(Pid(10));
        assert_eq!(mq.occupancy().of(Pid(10)), 0);
        assert_eq!(mq.occupancy().in_flight, 1);
        assert_eq!(mq.occupancy().depth, 8);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut mq = MqDispatch::new(1);
        assert!(mq.pop_next().is_none());
    }
}
