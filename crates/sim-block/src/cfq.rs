//! CFQ — Completely Fair Queuing, the Linux default elevator the paper
//! evaluates against.
//!
//! Faithful to the behaviours the paper's experiments exercise:
//!
//! * per-(task, sync/async) queues, served in round-robin time slices whose
//!   length is proportional to the task's I/O priority weight;
//! * the *submitter's* priority is all CFQ can see — delegated writeback
//!   I/O therefore lands in the writeback task's queue at best-effort
//!   level 4 regardless of who dirtied the data (Figure 3);
//! * an idle class that is served only when no other queue has requests —
//!   which cannot contain write bursts, because those arrive via writeback
//!   at normal priority (Figure 1);
//! * anticipation ("idling") on sync queues: after a sync queue empties,
//!   CFQ briefly waits for the same task to issue its next request instead
//!   of immediately seeking away.

use std::collections::VecDeque;

use sim_core::{BlockNo, FastMap, Pid, SimDuration, SimTime};
use sim_device::DiskModel;

use crate::sorted::SortedQueue;
use crate::{Dispatch, Elevator, PrioClass, Request};

/// Slice length for a weight-4 (default priority) sync queue. Non-zero:
/// a zero slice would expire the moment it starts and spin the dispatch
/// loop.
const BASE_SLICE_SYNC: SimDuration = SimDuration::from_millis(100);

/// Slice length for a weight-4 async queue (non-zero, likewise).
const BASE_SLICE_ASYNC: SimDuration = SimDuration::from_millis(40);

/// How long to idle waiting for the active sync task's next request.
const IDLE_WINDOW: SimDuration = SimDuration::from_millis(8);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct QueueKey {
    pid: Pid,
    sync: bool,
}

struct CfqQueue {
    requests: SortedQueue,
    /// Sweep position for C-SCAN within the queue.
    pos: BlockNo,
    /// Weight snapshot from the most recent request.
    weight: u32,
    class: PrioClass,
}

/// The CFQ elevator.
pub struct Cfq {
    queues: FastMap<QueueKey, CfqQueue>,
    /// Round-robin service order per class (RT, BE, Idle).
    rr: [VecDeque<QueueKey>; 3],
    active: Option<QueueKey>,
    slice_end: SimTime,
    /// Set while idling on the active (empty) sync queue.
    anticipating_until: Option<SimTime>,
}

fn class_idx(c: PrioClass) -> usize {
    match c {
        PrioClass::RealTime => 0,
        PrioClass::BestEffort => 1,
        PrioClass::Idle => 2,
    }
}

impl Cfq {
    /// CFQ with the stock tunables above.
    pub fn new() -> Self {
        Cfq {
            queues: FastMap::default(),
            rr: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            active: None,
            slice_end: SimTime::ZERO,
            anticipating_until: None,
        }
    }

    fn slice_len(&self, weight: u32, sync: bool) -> SimDuration {
        let base = if sync {
            BASE_SLICE_SYNC
        } else {
            BASE_SLICE_ASYNC
        };
        // Weight 4 (the default best-effort level) is the neutral share.
        // Exact integer math — the old `weight as f64 / 4.0` detour could
        // round the product, and its `.max(1)` clamp silently papered
        // over weight 0, which is now rejected when the priority is
        // configured (see [`Cfq::add`] / `IoPrio::weight`).
        debug_assert!(weight > 0, "weights are validated at config time");
        let nanos = base.as_nanos() as u128 * weight as u128 / 4;
        SimDuration::from_nanos(nanos.min(u64::MAX as u128) as u64)
    }

    fn enqueue_rr(&mut self, key: QueueKey, class: PrioClass) {
        let rr = &mut self.rr[class_idx(class)];
        if !rr.contains(&key) {
            rr.push_back(key);
        }
    }

    /// Pick the next queue to serve. RT first, then BE; Idle only if the
    /// higher classes are completely empty.
    fn select_queue(&mut self) -> Option<QueueKey> {
        for ci in 0..3 {
            // Rotate until we find a non-empty queue or exhaust the list.
            let n = self.rr[ci].len();
            for _ in 0..n {
                let key = self.rr[ci].pop_front()?;
                let nonempty = self
                    .queues
                    .get(&key)
                    .map(|q| !q.requests.is_empty())
                    .unwrap_or(false);
                if nonempty {
                    // Back of the line for next time.
                    self.rr[ci].push_back(key);
                    return Some(key);
                }
                // Empty queues fall out of the service list; they re-enter
                // on their next request.
            }
        }
        None
    }

    fn issue_from(&mut self, key: QueueKey) -> Option<Request> {
        let q = self.queues.get_mut(&key)?;
        let req = q.requests.pop_cscan(q.pos)?;
        q.pos = req.shape().end();
        Some(req)
    }

    fn higher_class_waiting(&self, than: PrioClass) -> bool {
        (0..class_idx(than)).any(|ci| {
            self.rr[ci].iter().any(|k| {
                self.queues
                    .get(k)
                    .map(|q| !q.requests.is_empty())
                    .unwrap_or(false)
            })
        })
    }
}

impl Default for Cfq {
    fn default() -> Self {
        Self::new()
    }
}

impl Elevator for Cfq {
    fn add(&mut self, req: Request, _now: SimTime) {
        let key = QueueKey {
            pid: req.submitter,
            sync: req.sync,
        };
        let class = req.ioprio.class;
        let weight = req.ioprio.weight();
        let entry = self.queues.entry(key).or_insert_with(|| CfqQueue {
            requests: SortedQueue::new(),
            pos: BlockNo(0),
            weight,
            class,
        });
        entry.weight = weight;
        entry.class = class;
        entry.requests.insert(req);
        self.enqueue_rr(key, class);
        // A new request for the active queue ends anticipation.
        if self.active == Some(key) {
            self.anticipating_until = None;
        }
    }

    fn dispatch(&mut self, now: SimTime, _dev: &dyn DiskModel) -> Dispatch {
        // Serve the active queue while its slice lasts.
        if let Some(key) = self.active {
            let in_slice = now < self.slice_end;
            let has_work = self
                .queues
                .get(&key)
                .map(|q| !q.requests.is_empty())
                .unwrap_or(false);
            let class = self.queues.get(&key).map(|q| q.class);
            // Preemption: a waiting RT queue ends a BE/idle slice at once.
            let preempted = class
                .map(|c| {
                    c != PrioClass::RealTime && self.higher_class_waiting(PrioClass::BestEffort)
                })
                .unwrap_or(false);
            if in_slice && !preempted {
                if has_work {
                    self.anticipating_until = None;
                    if let Some(req) = self.issue_from(key) {
                        return Dispatch::Issue(req);
                    }
                } else if key.sync {
                    // Idle briefly for the task's next sync request.
                    let until = match self.anticipating_until {
                        Some(t) => t,
                        None => {
                            let t = (now + IDLE_WINDOW).min(self.slice_end);
                            self.anticipating_until = Some(t);
                            t
                        }
                    };
                    if now < until {
                        return Dispatch::WaitUntil(until);
                    }
                }
            }
            // Slice over (expired, exhausted or preempted).
            self.active = None;
            self.anticipating_until = None;
        }

        // Pick a new queue.
        match self.select_queue() {
            Some(key) => {
                let (weight, sync) = {
                    let q = &self.queues[&key];
                    (q.weight, key.sync)
                };
                self.active = Some(key);
                self.slice_end = now + self.slice_len(weight, sync);
                self.anticipating_until = None;
                match self.issue_from(key) {
                    Some(req) => Dispatch::Issue(req),
                    None => Dispatch::Idle,
                }
            }
            None => Dispatch::Idle,
        }
    }

    fn completed(&mut self, _req: &Request, _now: SimTime) {}

    fn queued(&self) -> usize {
        self.queues.values().map(|q| q.requests.len()).sum()
    }

    fn name(&self) -> &'static str {
        "cfq"
    }

    fn audit(&self, quiesced: bool) -> Vec<String> {
        let mut bad = Vec::new();
        for (key, q) in &self.queues {
            if q.weight == 0 {
                bad.push(format!(
                    "cfq: queue {:?}/sync={} has zero weight",
                    key.pid, key.sync
                ));
                continue;
            }
            // A positive weight must always yield a positive slice budget;
            // a zero slice would starve the queue forever.
            if self.slice_len(q.weight, key.sync).as_nanos() == 0 {
                bad.push(format!(
                    "cfq: queue {:?}/sync={} weight {} yields a zero-length slice",
                    key.pid, key.sync, q.weight
                ));
            }
        }
        if quiesced {
            let left = self.queued();
            if left != 0 {
                bad.push(format!("cfq: {left} request(s) queued at quiescence"));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoPrio;
    use sim_core::{CauseSet, RequestId};
    use sim_device::{HddModel, IoDir};

    fn req(id: u64, pid: u32, start: u64, sync: bool, prio: IoPrio) -> Request {
        Request {
            id: RequestId(id),
            dir: if sync { IoDir::Read } else { IoDir::Write },
            start: BlockNo(start),
            nblocks: 1,
            submitter: Pid(pid),
            causes: CauseSet::empty(),
            sync,
            ioprio: prio,
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: Default::default(),
        }
    }

    fn drain(e: &mut Cfq, now: SimTime) -> Vec<u64> {
        let dev = HddModel::new();
        let mut out = vec![];
        let mut t = now;
        loop {
            match e.dispatch(t, &dev) {
                Dispatch::Issue(r) => out.push(r.id.raw()),
                Dispatch::WaitUntil(until) => t = until,
                Dispatch::Idle => break,
            }
        }
        out
    }

    #[test]
    fn idle_class_starves_behind_best_effort() {
        let mut e = Cfq::new();
        e.add(req(1, 10, 100, true, IoPrio::idle()), SimTime::ZERO);
        e.add(req(2, 20, 200, true, IoPrio::DEFAULT), SimTime::ZERO);
        let dev = HddModel::new();
        match e.dispatch(SimTime::ZERO, &dev) {
            Dispatch::Issue(r) => assert_eq!(r.id.raw(), 2, "BE must run before idle"),
            other => panic!("expected issue, got {other:?}"),
        }
    }

    #[test]
    fn idle_class_runs_when_alone() {
        let mut e = Cfq::new();
        e.add(req(1, 10, 100, true, IoPrio::idle()), SimTime::ZERO);
        let ids = drain(&mut e, SimTime::ZERO);
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn same_queue_requests_issue_in_cscan_order_within_slice() {
        let mut e = Cfq::new();
        for (id, b) in [(1u64, 300u64), (2, 100), (3, 200)] {
            e.add(req(id, 5, b, false, IoPrio::DEFAULT), SimTime::ZERO);
        }
        let ids = drain(&mut e, SimTime::ZERO);
        assert_eq!(ids, vec![2, 3, 1], "sorted by location");
    }

    #[test]
    fn anticipation_waits_for_active_sync_task() {
        let mut e = Cfq::new();
        let dev = HddModel::new();
        e.add(req(1, 5, 100, true, IoPrio::DEFAULT), SimTime::ZERO);
        e.add(req(2, 6, 900, true, IoPrio::DEFAULT), SimTime::ZERO);
        // First dispatch serves pid 5 and makes it active.
        match e.dispatch(SimTime::ZERO, &dev) {
            Dispatch::Issue(r) => assert_eq!(r.submitter, Pid(5)),
            other => panic!("{other:?}"),
        }
        // pid 5's queue is now empty but in-slice: CFQ idles instead of
        // seeking to pid 6.
        let t1 = SimTime::from_nanos(1_000_000);
        match e.dispatch(t1, &dev) {
            Dispatch::WaitUntil(until) => assert!(until > t1),
            other => panic!("expected anticipation, got {other:?}"),
        }
        // pid 5 issues again within the window: it is served immediately.
        e.add(req(3, 5, 101, true, IoPrio::DEFAULT), t1);
        match e.dispatch(t1, &dev) {
            Dispatch::Issue(r) => assert_eq!(r.id.raw(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn anticipation_times_out_and_switches() {
        let mut e = Cfq::new();
        let dev = HddModel::new();
        e.add(req(1, 5, 100, true, IoPrio::DEFAULT), SimTime::ZERO);
        e.add(req(2, 6, 900, true, IoPrio::DEFAULT), SimTime::ZERO);
        assert!(matches!(
            e.dispatch(SimTime::ZERO, &dev),
            Dispatch::Issue(_)
        ));
        let wait = match e.dispatch(SimTime::from_nanos(1), &dev) {
            Dispatch::WaitUntil(u) => u,
            other => panic!("{other:?}"),
        };
        // After the idle window expires, pid 6 gets served.
        match e.dispatch(wait, &dev) {
            Dispatch::Issue(r) => assert_eq!(r.submitter, Pid(6)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn submitter_priority_is_all_cfq_sees() {
        // Two requests *caused* by different-priority tasks but submitted
        // by the same writeback pid land in the same queue.
        let mut e = Cfq::new();
        let mut r1 = req(1, 99, 100, false, IoPrio::DEFAULT);
        r1.causes = CauseSet::of(Pid(1));
        let mut r2 = req(2, 99, 500, false, IoPrio::DEFAULT);
        r2.causes = CauseSet::of(Pid(2));
        e.add(r1, SimTime::ZERO);
        e.add(r2, SimTime::ZERO);
        assert_eq!(e.queues.len(), 1, "one shared writeback queue");
    }

    #[test]
    fn slice_math_is_exact_integer_scaling() {
        let e = Cfq::new();
        let base = BASE_SLICE_SYNC.as_nanos();
        for weight in 1..=16u32 {
            let slice = e.slice_len(weight, true);
            assert_eq!(
                slice.as_nanos(),
                base * weight as u64 / 4,
                "weight {weight}: no float rounding allowed"
            );
        }
        // Weight 4 is the neutral share: exactly the base slice.
        assert_eq!(e.slice_len(4, true), BASE_SLICE_SYNC);
        assert_eq!(e.slice_len(4, false), BASE_SLICE_ASYNC);
    }

    #[test]
    fn queued_counts_all_queues() {
        let mut e = Cfq::new();
        e.add(req(1, 1, 10, true, IoPrio::DEFAULT), SimTime::ZERO);
        e.add(req(2, 2, 20, false, IoPrio::DEFAULT), SimTime::ZERO);
        assert_eq!(e.queued(), 2);
    }
}
