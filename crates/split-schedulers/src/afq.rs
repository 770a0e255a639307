//! AFQ — Actually Fair Queuing (§5.1).
//!
//! Proportional sharing with cause-tag accounting across two levels:
//!
//! * **block level** — reads are queued per process and the process with
//!   the smallest *pass* (stride scheduling) is served next, with
//!   CFQ-style anticipation so sequential streams stay sequential; block
//!   writes are dispatched immediately, because beneath the journal a
//!   low-priority block may be a prerequisite for a high-priority fsync.
//! * **system-call level** — write-like calls (write, fsync, creat, mkdir,
//!   unlink) are held whenever the caller's pass has run ahead of the
//!   virtual time by more than a small window.
//!
//! Accounting uses both memory- and block-level hooks (§3.2): a cheap
//! prompt estimate is charged the moment a buffer is dirtied, and the
//! difference to the real device cost is settled — against the request's
//! *causes*, not its submitter — when the request is dispatched. The
//! virtual time advances only with *real dispatched device time* divided
//! by the total active weight, which paces total admission to the drain
//! rate and shares it in proportion to priority.

use std::collections::VecDeque;

use sim_block::{Dispatch, IoPrio, ReqKind, Request};
use sim_core::{BlockNo, FastMap, Pid, SimDuration, SimTime};
use sim_device::IoDir;
use split_core::{BufferDirtied, Gate, SchedAttr, SchedCtx, Scheduler, SyscallInfo};

use sim_block::sorted::SortedQueue;

/// How far (in weighted disk-seconds) a process may run ahead of the
/// virtual time before its write-like syscalls are held.
const WINDOW: f64 = 0.02;

/// Disk-seconds of reads served from one process before re-picking.
const READ_QUANTUM: f64 = 0.10;

/// Anticipation window on the active reader.
const IDLE_WINDOW: SimDuration = SimDuration::from_millis(4);

/// Gate re-check period while calls are held.
const TICK: SimDuration = SimDuration::from_millis(5);

struct ReadQueue {
    requests: SortedQueue,
    pos: BlockNo,
}

/// The AFQ scheduler.
pub struct Afq {
    weights: FastMap<Pid, f64>,
    passes: FastMap<Pid, f64>,
    /// Virtual time: cumulative dispatched device seconds over the active
    /// weight at the time of each dispatch.
    vtime: f64,
    reads: FastMap<Pid, ReadQueue>,
    writes: VecDeque<Request>,
    active: Option<(Pid, f64, Option<SimTime>)>,
    held: Vec<Pid>,
    /// Requests dispatched to the device and not yet completed.
    inflight: u32,
    /// When the disk last did anything on our behalf.
    last_activity: SimTime,
    /// When each client last consumed disk budget — a writer with recent
    /// charges is competing for the disk even if nothing of its is queued
    /// at the block level right now (its work sits in the write buffer).
    last_charge: FastMap<Pid, SimTime>,
    timer_armed: bool,
}

/// How long a client stays "active" after its last charge.
const ACTIVE_WINDOW: SimDuration = SimDuration::from_millis(100);

impl Afq {
    /// AFQ with the stock tunables above.
    pub fn new() -> Self {
        Afq {
            weights: FastMap::default(),
            passes: FastMap::default(),
            vtime: 0.0,
            reads: FastMap::default(),
            writes: VecDeque::new(),
            active: None,
            held: Vec::new(),
            inflight: 0,
            last_activity: SimTime::ZERO,
            last_charge: FastMap::default(),
            timer_armed: false,
        }
    }

    fn weight(&self, pid: Pid) -> f64 {
        self.weights.get(&pid).copied().unwrap_or(4.0)
    }

    /// A client's pass; a first-time client starts at the current vtime.
    /// Queries never drag a lagging pass forward — relative debt between
    /// backlogged clients is what stride fairness is made of. Idle clients
    /// catch up on their next charge (`max(pass, vtime)` there).
    fn pass(&mut self, pid: Pid) -> f64 {
        let vt = self.vtime;
        *self.passes.entry(pid).or_insert(vt)
    }

    /// Add `secs` to `pid`'s pass `times` times, each addition first
    /// catching an idle pass up to the virtual time.
    fn charge(&mut self, pid: Pid, secs: f64, times: u64, now: SimTime) {
        let step = secs / self.weight(pid);
        let vt = self.vtime;
        let p = self.passes.entry(pid).or_insert(vt);
        for _ in 0..times {
            *p = p.max(vt) + step;
        }
        self.last_charge.insert(pid, now);
    }

    /// Charge `secs` to `causes` (evenly), or to `submitter` when nobody
    /// is tagged, `times` times over: a stretch of `times` pages costs
    /// the map probes of one page, and the same `f64` additions in each
    /// pass as charging it page by page (the virtual time does not move
    /// between the pages).
    fn charge_causes(
        &mut self,
        causes: &sim_core::CauseSet,
        submitter: Pid,
        secs: f64,
        times: u64,
        now: SimTime,
    ) {
        if causes.is_empty() {
            self.charge(submitter, secs, times, now);
        } else {
            let share = causes.share(secs);
            for pid in causes.iter() {
                self.charge(pid, share, times, now);
            }
        }
    }

    /// Every pass as bits, with its last charge time, in pid order.
    #[cfg(test)]
    pub(crate) fn pass_ledger(&self) -> Vec<(Pid, u64, Option<SimTime>)> {
        let mut v: Vec<_> = self
            .passes
            .iter()
            .map(|(&pid, p)| (pid, p.to_bits(), self.last_charge.get(&pid).copied()))
            .collect();
        v.sort();
        v
    }

    /// Total weight of clients currently competing for the disk: held
    /// callers, readers with queued requests, and anyone who consumed
    /// budget within the recent window (buffered writers).
    fn active_weight(&self, now: SimTime) -> f64 {
        let mut seen: Vec<Pid> = Vec::new();
        for pid in &self.held {
            if !seen.contains(pid) {
                seen.push(*pid);
            }
        }
        for (pid, q) in &self.reads {
            if !q.requests.is_empty() && !seen.contains(pid) {
                seen.push(*pid);
            }
        }
        for (pid, &t) in &self.last_charge {
            if now.since(t) <= ACTIVE_WINDOW && !seen.contains(pid) {
                seen.push(*pid);
            }
        }
        seen.iter().map(|p| self.weight(*p)).sum::<f64>().max(1.0)
    }

    /// Advance the virtual time by `secs` of real device time: all of it
    /// is credited, so total admission paces at the drain rate.
    fn advance_vtime(&mut self, secs: f64, now: SimTime) {
        self.vtime += secs / self.active_weight(now);
    }

    fn readers_with_work(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self
            .reads
            .iter()
            .filter(|(_, q)| !q.requests.is_empty())
            .map(|(&p, _)| p)
            .collect();
        v.sort_unstable();
        v
    }

    /// Wake held syscalls that are back within their fair share.
    fn release_holds(&mut self, ctx: &mut SchedCtx<'_>) {
        if self.held.is_empty() {
            return;
        }
        // If the disk has been truly idle — nothing queued, nothing in
        // flight, nothing dispatched recently — fairness cannot require
        // waiting: jump the clock to the most underserved client. (A
        // momentarily empty queue with a request on the platter does NOT
        // count: write-dispatch-immediately drains the queue constantly.)
        let disk_has_work = !self.writes.is_empty()
            || !self.readers_with_work().is_empty()
            || self.inflight > 0
            || ctx.now.since(self.last_activity) < SimDuration::from_millis(10);
        if !disk_has_work {
            let min_pass = self
                .held
                .clone()
                .into_iter()
                .map(|p| self.pass(p))
                .fold(f64::INFINITY, f64::min);
            if min_pass.is_finite() {
                self.vtime = self.vtime.max(min_pass);
            }
        }
        let vt = self.vtime;
        let mut held = std::mem::take(&mut self.held);
        // Release in pass order so the most underserved goes first.
        held.sort_by(|a, b| {
            let pa = self.pass(*a);
            let pb = self.pass(*b);
            pa.partial_cmp(&pb).expect("finite").then(a.cmp(b))
        });
        let mut kept = Vec::new();
        for pid in held {
            if self.pass(pid) <= vt + WINDOW {
                ctx.wake(pid);
            } else {
                kept.push(pid);
            }
        }
        self.held = kept;
        if !self.held.is_empty() && !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(ctx.now + TICK);
        }
    }

    /// Pick the reader with the smallest pass.
    fn pick_reader(&mut self) -> Option<Pid> {
        let candidates = self.readers_with_work();
        let mut best: Option<(f64, Pid)> = None;
        for pid in candidates {
            let p = self.pass(pid);
            let better = match best {
                None => true,
                Some((bp, bpid)) => p < bp || (p == bp && pid < bpid),
            };
            if better {
                best = Some((p, pid));
            }
        }
        best.map(|(_, p)| p)
    }
}

impl Default for Afq {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Afq {
    fn name(&self) -> &'static str {
        "afq"
    }

    fn configure(&mut self, pid: Pid, attr: SchedAttr, _ctx: &mut SchedCtx<'_>) {
        if let SchedAttr::Prio(p) = attr {
            self.weights.insert(pid, weight_of(p));
        }
    }

    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        if !sc.kind.is_write_like() {
            return Gate::Proceed;
        }
        // Keep the weight in sync even if configure was never called.
        self.weights.insert(sc.pid, weight_of(sc.ioprio));
        if self.pass(sc.pid) <= self.vtime + WINDOW {
            Gate::Proceed
        } else {
            self.held.push(sc.pid);
            if !self.timer_armed {
                self.timer_armed = true;
                ctx.set_timer(ctx.now + TICK);
            }
            Gate::Hold
        }
    }

    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        if ev.new_bytes == 0 {
            return ev.len; // overwrites add no flush work
        }
        // Prompt estimate: the sequential-transfer cost of the new bytes,
        // once per page. The real (seek-aware) cost is settled at dispatch.
        let secs = ev.new_bytes as f64 / ctx.device.seq_bandwidth();
        self.charge_causes(ev.causes, Pid(0), secs, ev.len, ctx.now);
        ev.len
    }

    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        if req.is_read() {
            let q = self
                .reads
                .entry(req.submitter)
                .or_insert_with(|| ReadQueue {
                    requests: SortedQueue::new(),
                    pos: BlockNo(0),
                });
            q.requests.insert(req);
        } else {
            self.writes.push_back(req);
        }
        ctx.kick_dispatch();
    }

    fn block_dispatch(&mut self, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // Writes go out immediately (journal prerequisites, §5.1).
        if let Some(req) = self.writes.pop_front() {
            let real = ctx.device.peek_service_time(&req.shape()).as_secs_f64();
            // Settle: data writes were prompt-charged their sequential
            // transfer cost; charge only the difference.
            let prompt = if req.kind == ReqKind::Data && req.dir == IoDir::Write {
                req.bytes() as f64 / ctx.device.seq_bandwidth()
            } else {
                0.0
            };
            self.charge_causes(&req.causes, req.submitter, real - prompt, 1, ctx.now);
            self.advance_vtime(real, ctx.now);
            self.inflight += 1;
            self.last_activity = ctx.now;
            return Dispatch::Issue(req);
        }
        // Serve the active reader within its quantum, with anticipation.
        if let Some((pid, quantum, anticipating)) = self.active {
            if quantum > 0.0 {
                let has_work = self
                    .reads
                    .get(&pid)
                    .map(|q| !q.requests.is_empty())
                    .unwrap_or(false);
                if has_work {
                    let q = self.reads.get_mut(&pid).expect("checked");
                    let req = q.requests.pop_cscan(q.pos).expect("non-empty");
                    q.pos = req.shape().end();
                    let secs = ctx.device.peek_service_time(&req.shape()).as_secs_f64();
                    self.charge_causes(&req.causes, req.submitter, secs, 1, ctx.now);
                    self.advance_vtime(secs, ctx.now);
                    self.inflight += 1;
                    self.last_activity = ctx.now;
                    self.active = Some((pid, quantum - secs, None));
                    return Dispatch::Issue(req);
                }
                let until = match anticipating {
                    Some(t) => t,
                    None => {
                        let t = ctx.now + IDLE_WINDOW;
                        self.active = Some((pid, quantum, Some(t)));
                        t
                    }
                };
                if ctx.now < until {
                    return Dispatch::WaitUntil(until);
                }
            }
            self.active = None;
        }
        // Pick the most underserved reader.
        let Some(pid) = self.pick_reader() else {
            return Dispatch::Idle;
        };
        let q = self.reads.get_mut(&pid).expect("has work");
        let req = q.requests.pop_cscan(q.pos).expect("non-empty");
        q.pos = req.shape().end();
        let secs = ctx.device.peek_service_time(&req.shape()).as_secs_f64();
        self.charge_causes(&req.causes, req.submitter, secs, 1, ctx.now);
        self.advance_vtime(secs, ctx.now);
        self.inflight += 1;
        self.last_activity = ctx.now;
        self.active = Some((pid, READ_QUANTUM - secs, None));
        Dispatch::Issue(req)
    }

    fn block_completed(&mut self, _req: &Request, _failed: bool, ctx: &mut SchedCtx<'_>) {
        self.inflight = self.inflight.saturating_sub(1);
        self.last_activity = ctx.now;
        self.release_holds(ctx);
    }

    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        self.timer_armed = false;
        self.release_holds(ctx);
        ctx.kick_dispatch();
    }

    fn pick_dirty_waiter(&mut self, waiters: &[Pid], _ctx: &mut SchedCtx<'_>) -> usize {
        let mut best = 0;
        let mut best_pass = f64::INFINITY;
        for (i, &pid) in waiters.iter().enumerate() {
            let p = self.pass(pid);
            if p < best_pass {
                best_pass = p;
                best = i;
            }
        }
        best
    }

    fn queued(&self) -> usize {
        self.writes.len() + self.reads.values().map(|q| q.requests.len()).sum::<usize>()
    }
}

fn weight_of(prio: IoPrio) -> f64 {
    prio.weight() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{CauseSet, RequestId};
    use sim_device::HddModel;

    fn read(id: u64, pid: u32, start: u64) -> Request {
        Request {
            id: RequestId(id),
            dir: IoDir::Read,
            start: BlockNo(start),
            nblocks: 1,
            submitter: Pid(pid),
            causes: CauseSet::of(Pid(pid)),
            sync: true,
            ioprio: IoPrio::DEFAULT,
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: Default::default(),
        }
    }

    fn write(id: u64, pid: u32, start: u64) -> Request {
        Request {
            dir: IoDir::Write,
            sync: false,
            kind: ReqKind::Journal,
            ..read(id, pid, start)
        }
    }

    fn write_info(pid: u32, prio: IoPrio) -> SyscallInfo {
        SyscallInfo {
            pid: Pid(pid),
            kind: split_core::SyscallKind::Write {
                file: sim_core::FileId(1),
                offset: 0,
                len: 4096,
            },
            ioprio: prio,
            cached: None,
        }
    }

    #[test]
    fn writes_dispatch_before_reads() {
        let dev = HddModel::new();
        let mut a = Afq::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        a.block_add(read(1, 1, 100), &mut ctx);
        a.block_add(write(2, 2, 500), &mut ctx);
        match a.block_dispatch(&mut ctx) {
            Dispatch::Issue(r) => assert_eq!(r.id, RequestId(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gate_holds_over_budget_writers() {
        let dev = HddModel::new();
        let mut a = Afq::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        a.configure(Pid(1), SchedAttr::Prio(IoPrio::best_effort(0)), &mut ctx);
        a.charge(Pid(1), 10.0, 1, SimTime::ZERO);
        assert_eq!(
            a.syscall_enter(&write_info(1, IoPrio::best_effort(0)), &mut ctx),
            Gate::Hold
        );
        assert_eq!(a.held.len(), 1);
    }

    #[test]
    fn vtime_advances_with_dispatched_disk_time_only() {
        let dev = HddModel::new();
        let mut a = Afq::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        let v0 = a.vtime;
        // Memory-level charging does not move the clock…
        a.buffer_dirtied(
            &BufferDirtied {
                file: sim_core::FileId(1),
                page: 0,
                len: 1,
                causes: &CauseSet::of(Pid(1)),
                prev: None,
                block: None,
                new_bytes: 1 << 20,
            },
            &mut ctx,
        );
        assert_eq!(a.vtime, v0);
        // …but dispatching a request does.
        a.block_add(write(1, 1, 1000), &mut ctx);
        let _ = a.block_dispatch(&mut ctx);
        assert!(a.vtime > v0);
    }

    #[test]
    fn idle_disk_releases_the_most_underserved_hold() {
        let dev = HddModel::new();
        let mut a = Afq::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        a.charge(Pid(1), 0.5, 1, SimTime::ZERO);
        a.charge(Pid(2), 0.1, 1, SimTime::ZERO);
        assert_eq!(
            a.syscall_enter(&write_info(1, IoPrio::DEFAULT), &mut ctx),
            Gate::Hold
        );
        assert_eq!(
            a.syscall_enter(&write_info(2, IoPrio::DEFAULT), &mut ctx),
            Gate::Hold
        );
        // Fire the timer well past the activity window so the disk
        // counts as idle.
        let mut ctx2 = SchedCtx::new(SimTime::from_nanos(50_000_000), &dev);
        a.timer_fired(&mut ctx2);
        let cmds = ctx2.drain();
        // With the disk idle, the clock jumps to the minimum pass: pid 2
        // (less debt) is released; pid 1 stays held.
        assert!(cmds
            .iter()
            .any(|c| matches!(c, split_core::SchedCmd::Wake(p) if *p == Pid(2))));
        assert!(!cmds
            .iter()
            .any(|c| matches!(c, split_core::SchedCmd::Wake(p) if *p == Pid(1))));
    }

    #[test]
    fn prompt_charges_accumulate_per_weight() {
        let dev = HddModel::new();
        let mut a = Afq::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        a.configure(Pid(1), SchedAttr::Prio(IoPrio::best_effort(0)), &mut ctx); // w=8
        a.configure(Pid(2), SchedAttr::Prio(IoPrio::best_effort(7)), &mut ctx); // w=1
        for pid in [1u32, 2] {
            a.buffer_dirtied(
                &BufferDirtied {
                    file: sim_core::FileId(pid as u64),
                    page: 0,
                    len: 1,
                    causes: &CauseSet::of(Pid(pid)),
                    prev: None,
                    block: None,
                    new_bytes: 8 << 20,
                },
                &mut ctx,
            );
        }
        // Same bytes, but the low-priority pid's pass advanced 8× more.
        let p1 = a.pass(Pid(1));
        let p2 = a.pass(Pid(2));
        assert!((p2 / p1 - 8.0).abs() < 0.01, "p1 {p1} p2 {p2}");
    }

    #[test]
    fn stride_respects_weights_at_block_level() {
        let dev = HddModel::new();
        let mut a = Afq::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        a.configure(Pid(1), SchedAttr::Prio(IoPrio::best_effort(0)), &mut ctx); // w=8
        a.configure(Pid(2), SchedAttr::Prio(IoPrio::best_effort(7)), &mut ctx); // w=1
        let mut served: FastMap<Pid, u32> = FastMap::default();
        let mut id = 0u64;
        // Both readers always have work, so no anticipation: each quantum
        // (about 16 far reads) goes to the reader with the smaller pass.
        for round in 0..2_000 {
            let mut ctx = SchedCtx::new(SimTime::from_nanos(round), &dev);
            for pid in [1u32, 2] {
                id += 1;
                a.block_add(read(id, pid, 1_000_000 * pid as u64 + id), &mut ctx);
            }
            if let Dispatch::Issue(r) = a.block_dispatch(&mut ctx) {
                *served.entry(r.submitter).or_insert(0) += 1;
            }
        }
        let hi = served[&Pid(1)] as f64;
        let lo = served[&Pid(2)] as f64;
        assert!(hi / lo > 3.0, "hi {hi} lo {lo}");
    }
}
