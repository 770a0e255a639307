//! blk-mq's hardware-queue census: how many requests each submitter
//! holds inside the device.
//!
//! The elevator stays in charge of *policy* — it decides which request
//! leaves the scheduler. The kernel admits a request only while the
//! device has a free hardware tag and hands it straight to the device,
//! so nothing ever waits in a software queue in between. What remains of
//! Linux's multi-queue plumbing is the running [`QueueOccupancy`]
//! picture that split schedulers read through their hook context to see
//! (and cap) a tenant's share of the hardware queue.

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
    /// In-flight requests per submitter, one entry per submitter with a
    /// request inside the device.
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

/// The per-submitter census of a hardware queue.
#[derive(Debug, Default)]
pub struct MqDispatch {
    occ: QueueOccupancy,
    /// The [`MqDispatch::submit`] / [`MqDispatch::pop_next`] hand-off.
    fifo: VecDeque<Request>,
}

impl MqDispatch {
    /// A census for a hardware queue of `depth` slots.
    pub fn new(depth: u32) -> Self {
        MqDispatch {
            occ: QueueOccupancy {
                depth,
                ..Default::default()
            },
            fifo: VecDeque::new(),
        }
    }

    /// The live occupancy picture.
    pub fn occupancy(&self) -> &QueueOccupancy {
        &self.occ
    }

    /// Hold `req` for [`MqDispatch::pop_next`]. The kernel never stages a
    /// request; `benchmark/`'s `sim-block.mq.submit_pop_ns` drive is the
    /// only caller.
    pub fn submit(&mut self, req: Request) {
        self.fifo.push_back(req);
    }

    /// The oldest request handed to [`MqDispatch::submit`].
    pub fn pop_next(&mut self) -> Option<Request> {
        self.fifo.pop_front()
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
        if let Some(i) = self.occ.per_pid.iter().position(|(p, _)| *p == pid) {
            let n = &mut self.occ.per_pid[i].1;
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.occ.per_pid.swap_remove(i);
            }
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
    fn pops_in_submission_order() {
        let mut mq = MqDispatch::new(4);
        for (id, pid) in [(1, 10), (2, 10), (3, 11), (4, 11)] {
            mq.submit(req(id, pid));
        }
        let order: Vec<u64> = std::iter::from_fn(|| mq.pop_next().map(|r| r.id.raw())).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn occupancy_tracks_per_pid_in_flight() {
        let mut mq = MqDispatch::new(8);
        mq.note_accepted(Pid(10));
        mq.note_accepted(Pid(11));
        assert_eq!(mq.occupancy().in_flight, 2);
        assert_eq!(mq.occupancy().of(Pid(10)), 1);
        mq.note_done(Pid(10));
        assert_eq!(mq.occupancy().of(Pid(10)), 0);
        assert_eq!(mq.occupancy().per_pid, vec![(Pid(11), 1)]);
        assert_eq!(mq.occupancy().in_flight, 1);
        assert_eq!(mq.occupancy().depth, 8);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut mq = MqDispatch::new(1);
        assert!(mq.pop_next().is_none());
    }
}
