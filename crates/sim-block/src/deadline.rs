//! Block-Deadline — Linux's deadline elevator, the baseline of §5.2.
//!
//! Two location-sorted queues (read/write) for throughput, plus per-request
//! expiry times for latency: when the earliest deadline in the preferred
//! direction has passed, the elevator jumps to that request instead of
//! continuing its sweep. Reads are preferred over writes until writes have
//! been starved [`WRITES_STARVED`] times.
//!
//! As in the paper (§5.2), we extend the stock design with per-process
//! deadlines: a request carrying an explicit `deadline` keeps it; others
//! get the direction's default expiry.

use std::collections::BTreeMap;

use sim_core::{BlockNo, RequestId, SimDuration, SimTime};
use sim_device::{DiskModel, IoDir};

use crate::sorted::SortedQueue;
use crate::{Dispatch, Elevator, Request};

/// Tunables for Block-Deadline.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineConfig {
    /// Default expiry for reads (Linux: 500 ms).
    pub read_expire: SimDuration,
    /// Default expiry for writes (Linux: 5 s).
    pub write_expire: SimDuration,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig {
            read_expire: SimDuration::from_millis(500),
            write_expire: SimDuration::from_secs(5),
        }
    }
}

/// Requests served from one direction before considering a switch.
const FIFO_BATCH: u32 = 16;

/// Read batches allowed before writes must be served.
const WRITES_STARVED: u32 = 2;

struct Dir {
    sorted: SortedQueue,
    /// Deadline index: earliest-expiring first.
    expiry: BTreeMap<(SimTime, RequestId), BlockNo>,
    pos: BlockNo,
}

impl Dir {
    fn new() -> Self {
        Dir {
            sorted: SortedQueue::new(),
            expiry: BTreeMap::new(),
            pos: BlockNo(0),
        }
    }

    fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    fn earliest_deadline(&self) -> Option<SimTime> {
        self.expiry.keys().next().map(|k| k.0)
    }

    fn pop_expired(&mut self, now: SimTime) -> Option<Request> {
        let (&(dl, id), &start) = self.expiry.iter().next()?;
        if dl > now {
            return None;
        }
        self.expiry.remove(&(dl, id));
        let req = self.sorted.remove(start, id)?;
        self.pos = req.shape().end();
        Some(req)
    }

    fn pop_sweep(&mut self) -> Option<Request> {
        let req = self.sorted.pop_cscan(self.pos)?;
        self.expiry
            .remove(&(req.deadline.unwrap_or(SimTime::MAX), req.id));
        self.pos = req.shape().end();
        Some(req)
    }
}

/// The deadline elevator.
pub struct BlockDeadline {
    cfg: DeadlineConfig,
    reads: Dir,
    writes: Dir,
    batch_dir: IoDir,
    batch_left: u32,
    starved: u32,
}

impl BlockDeadline {
    /// Deadline elevator with stock tunables.
    pub fn new() -> Self {
        Self::with_config(DeadlineConfig::default())
    }

    /// Deadline elevator with explicit tunables.
    pub fn with_config(cfg: DeadlineConfig) -> Self {
        BlockDeadline {
            cfg,
            reads: Dir::new(),
            writes: Dir::new(),
            batch_dir: IoDir::Read,
            batch_left: 0,
            starved: 0,
        }
    }

    fn dir_mut(&mut self, d: IoDir) -> &mut Dir {
        match d {
            IoDir::Read => &mut self.reads,
            IoDir::Write => &mut self.writes,
        }
    }

    /// Decide which direction the next batch serves.
    fn choose_dir(&mut self) -> Option<IoDir> {
        let have_reads = !self.reads.is_empty();
        let have_writes = !self.writes.is_empty();
        match (have_reads, have_writes) {
            (false, false) => None,
            (true, false) => Some(IoDir::Read),
            (false, true) => Some(IoDir::Write),
            (true, true) => {
                if self.starved >= WRITES_STARVED {
                    self.starved = 0;
                    Some(IoDir::Write)
                } else {
                    self.starved += 1;
                    Some(IoDir::Read)
                }
            }
        }
    }
}

impl Default for BlockDeadline {
    fn default() -> Self {
        Self::new()
    }
}

impl Elevator for BlockDeadline {
    fn add(&mut self, mut req: Request, now: SimTime) {
        let expire = match req.dir {
            IoDir::Read => self.cfg.read_expire,
            IoDir::Write => self.cfg.write_expire,
        };
        let dl = req.deadline.unwrap_or(now + expire);
        req.deadline = Some(dl);
        let dir = self.dir_mut(req.dir);
        dir.expiry.insert((dl, req.id), req.start);
        dir.sorted.insert(req);
    }

    fn dispatch(&mut self, now: SimTime, _dev: &dyn DiskModel) -> Dispatch {
        // Continue the current batch if it has quota and work, unless the
        // *other* direction has an expired deadline demanding service.
        let other = match self.batch_dir {
            IoDir::Read => IoDir::Write,
            IoDir::Write => IoDir::Read,
        };
        let other_expired = self
            .dir_mut(other)
            .earliest_deadline()
            .is_some_and(|d| d <= now);

        if self.batch_left > 0 && !other_expired {
            let d = self.batch_dir;
            // An expired deadline in our own direction jumps the sweep.
            if let Some(req) = self.dir_mut(d).pop_expired(now) {
                self.batch_left -= 1;
                return Dispatch::Issue(req);
            }
            if let Some(req) = self.dir_mut(d).pop_sweep() {
                self.batch_left -= 1;
                return Dispatch::Issue(req);
            }
        }

        // Start a new batch.
        let dir = if other_expired {
            Some(other)
        } else {
            self.choose_dir()
        };
        let Some(dir) = dir else {
            return Dispatch::Idle;
        };
        self.batch_dir = dir;
        self.batch_left = FIFO_BATCH;
        if let Some(req) = self.dir_mut(dir).pop_expired(now) {
            self.batch_left -= 1;
            return Dispatch::Issue(req);
        }
        match self.dir_mut(dir).pop_sweep() {
            Some(req) => {
                self.batch_left -= 1;
                Dispatch::Issue(req)
            }
            None => Dispatch::Idle,
        }
    }

    fn completed(&mut self, _req: &Request, _now: SimTime) {}

    fn queued(&self) -> usize {
        self.reads.sorted.len() + self.writes.sorted.len()
    }

    fn name(&self) -> &'static str {
        "block-deadline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{CauseSet, Pid};
    use sim_device::HddModel;

    fn req(id: u64, dir: IoDir, start: u64, deadline: Option<SimTime>) -> Request {
        Request {
            id: RequestId(id),
            dir,
            start: BlockNo(start),
            nblocks: 1,
            submitter: Pid(1),
            causes: CauseSet::empty(),
            sync: dir == IoDir::Read,
            ioprio: Default::default(),
            deadline,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: Default::default(),
        }
    }

    fn issue(e: &mut BlockDeadline, now: SimTime) -> Option<u64> {
        let dev = HddModel::new();
        match e.dispatch(now, &dev) {
            Dispatch::Issue(r) => Some(r.id.raw()),
            _ => None,
        }
    }

    #[test]
    fn reads_preferred_over_writes() {
        let mut e = BlockDeadline::new();
        e.add(req(1, IoDir::Write, 100, None), SimTime::ZERO);
        e.add(req(2, IoDir::Read, 200, None), SimTime::ZERO);
        assert_eq!(issue(&mut e, SimTime::ZERO), Some(2));
    }

    #[test]
    fn writes_not_starved_forever() {
        let mut e = BlockDeadline::new();
        for i in 0..100 {
            e.add(req(i, IoDir::Read, 100 + i, None), SimTime::ZERO);
        }
        e.add(req(1000, IoDir::Write, 50, None), SimTime::ZERO);
        let bound = WRITES_STARVED * FIFO_BATCH + 1;
        let served: Vec<u64> = (0..bound)
            .map(|_| issue(&mut e, SimTime::ZERO).unwrap())
            .collect();
        assert_eq!(
            served.last(),
            Some(&1000),
            "the write goes out right after {WRITES_STARVED} read batches: {served:?}"
        );
    }

    #[test]
    fn sweep_is_location_ordered() {
        let mut e = BlockDeadline::new();
        e.add(req(1, IoDir::Read, 300, None), SimTime::ZERO);
        e.add(req(2, IoDir::Read, 100, None), SimTime::ZERO);
        e.add(req(3, IoDir::Read, 200, None), SimTime::ZERO);
        assert_eq!(issue(&mut e, SimTime::ZERO), Some(2));
        assert_eq!(issue(&mut e, SimTime::ZERO), Some(3));
        assert_eq!(issue(&mut e, SimTime::ZERO), Some(1));
    }

    #[test]
    fn expired_deadline_jumps_the_sweep() {
        let mut e = BlockDeadline::new();
        e.add(req(1, IoDir::Read, 100, None), SimTime::ZERO);
        e.add(
            req(2, IoDir::Read, 900, Some(SimTime::from_nanos(5))),
            SimTime::ZERO,
        );
        e.add(req(3, IoDir::Read, 200, None), SimTime::ZERO);
        // At a time past request 2's deadline, it is served first despite
        // being farthest away.
        assert_eq!(issue(&mut e, SimTime::from_nanos(10)), Some(2));
    }

    #[test]
    fn expired_write_interrupts_read_batch() {
        let cfg = DeadlineConfig {
            write_expire: SimDuration::from_millis(1),
            ..Default::default()
        };
        let mut e = BlockDeadline::with_config(cfg);
        for i in 0..8 {
            e.add(req(i, IoDir::Read, 100 + i, None), SimTime::ZERO);
        }
        e.add(req(50, IoDir::Write, 5000, None), SimTime::ZERO);
        // Serve one read, then jump ahead 10 ms: the write expired.
        assert_ne!(issue(&mut e, SimTime::ZERO), Some(50));
        let later = SimTime::from_nanos(10_000_000);
        assert_eq!(issue(&mut e, later), Some(50));
    }

    #[test]
    fn per_request_deadlines_override_defaults() {
        let mut e = BlockDeadline::new();
        let dl = SimTime::from_nanos(42);
        e.add(req(1, IoDir::Read, 100, Some(dl)), SimTime::ZERO);
        assert_eq!(e.reads.earliest_deadline(), Some(dl));
    }

    #[test]
    fn queued_counts_both_directions() {
        let mut e = BlockDeadline::new();
        e.add(req(1, IoDir::Read, 1, None), SimTime::ZERO);
        e.add(req(2, IoDir::Write, 2, None), SimTime::ZERO);
        assert_eq!(e.queued(), 2);
    }
}
