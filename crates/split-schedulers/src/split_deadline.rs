//! Split-Deadline (§5.2): deadlines attached to the operations
//! applications actually wait on — fsyncs — instead of to block writes.
//!
//! * At the **memory level**, the scheduler tracks an estimated flush cost
//!   per file (buffer-dirty hook + the preliminary randomness model).
//! * At the **syscall level**, an fsync whose estimated cost would blow
//!   other processes' deadlines is *held*; the scheduler kicks
//!   asynchronous writeback of the file (no synchronization point) and
//!   admits the fsync once the remaining dirty cost fits.
//! * At the **block level**, reads carry deadlines (expired reads jump the
//!   sweep), fsync-critical sync writes are served promptly, and async
//!   writeback fills the gaps.
//!
//! With `manage_writeback` the scheduler also paces background writeback
//! itself (the kernel's pdflush is disabled), which removes the tail
//! latencies the paper attributes to untimely pdflush bursts (§7.1.2,
//! Figure 19).

use std::collections::{BTreeMap, VecDeque};

use sim_block::sorted::SortedQueue;
use sim_block::{Dispatch, ReqKind, Request};
use sim_core::{BlockNo, FastMap, FileId, Pid, RequestId, SimDuration, SimTime};
use sim_device::IoDir;
use split_core::{
    BufferDirtied, BufferFreed, Gate, SchedAttr, SchedCtx, Scheduler, SyscallInfo, SyscallKind,
};

/// Default fsync deadline for unconfigured processes.
const DEFAULT_FSYNC_DEADLINE: SimDuration = SimDuration::from_secs(1);

/// An fsync is admitted when its estimated flush cost is below this
/// fraction of the smallest configured fsync deadline.
const ADMIT_FRACTION: f64 = 0.5;

/// Maintenance tick.
const TICK: SimDuration = SimDuration::from_millis(20);

/// When managing writeback: start flushing above this many dirty
/// cost-seconds.
const WB_HIGH_COST: f64 = 0.25;

/// Pages per writeback kick.
const WB_BATCH: u64 = 16;

/// Reads served between async-write batches.
const READ_BATCH: u32 = 16;

#[derive(Debug, Default, Clone, Copy)]
struct FileCost {
    secs: f64,
    pages: u64,
}

impl FileCost {
    fn per_page(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.secs / self.pages as f64
        }
    }
}

#[derive(Debug)]
struct HeldFsync {
    pid: Pid,
    file: FileId,
    deadline: SimTime,
}

/// The Split-Deadline scheduler.
pub struct SplitDeadline {
    /// Whether the scheduler owns background writeback (pdflush off).
    manage_writeback: bool,
    /// Hold a process's write syscalls once *its own* outstanding flush
    /// cost (attributed through cause tags) exceeds this multiple of the
    /// fsync admit threshold — pacing bulk writers without punishing
    /// cheap sequential ones. The scheduler-owned-writeback mode paces
    /// tightly (1x); the Split-Pdflush variant only bounds how much a
    /// pdflush burst can flush at once, so it is coarser (§7.1.2).
    write_throttle_mult: f64,
    fsync_deadlines: FastMap<Pid, SimDuration>,
    /// Estimated flush cost per file, maintained from the buffer-dirty
    /// hook and drained as data writes reach the block level.
    file_cost: FastMap<FileId, FileCost>,
    /// Last written offset per file (randomness detection).
    last_offset: FastMap<FileId, u64>,
    /// Outstanding flush cost per cause (who put the backlog there).
    pid_cost: FastMap<Pid, f64>,
    held_fsyncs: Vec<HeldFsync>,
    held_writes: VecDeque<Pid>,
    // Block level.
    reads: SortedQueue,
    read_expiry: BTreeMap<(SimTime, RequestId), BlockNo>,
    read_pos: BlockNo,
    sync_writes: VecDeque<Request>,
    async_writes: SortedQueue,
    async_pos: BlockNo,
    reads_in_batch: u32,
    timer_armed: bool,
    seek_equiv_secs: f64,
}

impl SplitDeadline {
    /// Split-Deadline with scheduler-owned writeback.
    pub fn new() -> Self {
        Self::with_writeback(true, 1.0)
    }

    /// The Split-Pdflush variant of Figure 19: pdflush keeps running and
    /// the scheduler merely throttles writers.
    pub fn pdflush_variant() -> Self {
        Self::with_writeback(false, 4.0)
    }

    fn with_writeback(manage_writeback: bool, write_throttle_mult: f64) -> Self {
        SplitDeadline {
            manage_writeback,
            write_throttle_mult,
            fsync_deadlines: FastMap::default(),
            file_cost: FastMap::default(),
            last_offset: FastMap::default(),
            pid_cost: FastMap::default(),
            held_fsyncs: Vec::new(),
            held_writes: VecDeque::new(),
            reads: SortedQueue::new(),
            read_expiry: BTreeMap::new(),
            read_pos: BlockNo(0),
            sync_writes: VecDeque::new(),
            async_writes: SortedQueue::new(),
            async_pos: BlockNo(0),
            reads_in_batch: 0,
            timer_armed: false,
            seek_equiv_secs: 0.008,
        }
    }

    fn total_cost(&self) -> f64 {
        self.file_cost.values().map(|c| c.secs).sum()
    }

    fn min_deadline(&self) -> SimDuration {
        self.fsync_deadlines
            .values()
            .copied()
            .min()
            .unwrap_or(DEFAULT_FSYNC_DEADLINE)
    }

    fn admit_threshold(&self) -> f64 {
        self.min_deadline().as_secs_f64() * ADMIT_FRACTION
    }

    /// Per-cause outstanding-cost budget above which a writer is held.
    fn write_throttle_cost(&self) -> f64 {
        self.admit_threshold() * self.write_throttle_mult
    }

    /// Price a seek for the device the buffers will be flushed to.
    fn note_device(&mut self, ctx: &SchedCtx<'_>) {
        self.seek_equiv_secs = if ctx.device.is_rotational() {
            0.008
        } else {
            0.0002
        };
    }

    fn arm_timer(&mut self, ctx: &mut SchedCtx<'_>) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(ctx.now + TICK);
        }
    }

    fn cost_of(&self, file: FileId) -> f64 {
        self.file_cost.get(&file).map(|c| c.secs).unwrap_or(0.0)
    }

    /// Data left the cache for the block layer: reduce the file's flush
    /// estimate and the responsible pids' attributed backlog.
    fn drain_estimate(&mut self, req: &Request) {
        if req.kind != ReqKind::Data {
            return;
        }
        let Some(file) = req.file else { return };
        let drained = if let Some(c) = self.file_cost.get_mut(&file) {
            let pp = c.per_page();
            let d = (pp * req.nblocks as f64).min(c.secs);
            c.secs -= d;
            c.pages = c.pages.saturating_sub(req.nblocks);
            d
        } else {
            0.0
        };
        if drained > 0.0 && !req.causes.is_empty() {
            for (pid, share) in req.causes.shares(drained) {
                if let Some(v) = self.pid_cost.get_mut(&pid) {
                    *v = (*v - share).max(0.0);
                }
            }
        }
    }

    /// Whether more background flushing should be requested: never build
    /// an async backlog larger than one kick — everything queued at the
    /// block level is data the next journal commit must wait for.
    fn wb_ready(&self) -> bool {
        self.async_writes.len() < WB_BATCH as usize
    }

    /// Re-examine held fsyncs and writes; admit what now fits.
    fn maintenance(&mut self, ctx: &mut SchedCtx<'_>) {
        // Held fsyncs: earliest deadline first.
        self.held_fsyncs.sort_by_key(|h| h.deadline);
        let threshold = self.admit_threshold();
        let mut kept = Vec::new();
        for h in std::mem::take(&mut self.held_fsyncs) {
            let cost = self.cost_of(h.file);
            // Admit when the remaining flush fits, or when the deadline
            // has grown so close that waiting longer cannot help.
            let deadline_pressure = ctx.now + SimDuration::from_secs_f64(cost) >= h.deadline;
            if cost <= threshold || deadline_pressure {
                ctx.wake(h.pid);
            } else {
                // Keep draining the file asynchronously (bounded backlog).
                if self.async_writes.len() < WB_BATCH as usize {
                    ctx.start_writeback(Some(h.file), WB_BATCH);
                }
                kept.push(h);
            }
        }
        self.held_fsyncs = kept;

        // Held writers: release those whose own backlog has drained.
        let mut still_held = VecDeque::new();
        while let Some(pid) = self.held_writes.pop_front() {
            if self.pid_cost.get(&pid).copied().unwrap_or(0.0) < self.write_throttle_cost() {
                ctx.wake(pid);
            } else {
                still_held.push_back(pid);
            }
        }
        self.held_writes = still_held;

        // Scheduler-owned background writeback, paced by the backlog.
        if self.manage_writeback && self.total_cost() > WB_HIGH_COST && self.wb_ready() {
            ctx.start_writeback(None, WB_BATCH);
        }

        if !self.held_fsyncs.is_empty()
            || !self.held_writes.is_empty()
            || (self.manage_writeback && self.total_cost() > WB_HIGH_COST)
        {
            self.arm_timer(ctx);
        }
    }
}

impl Default for SplitDeadline {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for SplitDeadline {
    fn name(&self) -> &'static str {
        "split-deadline"
    }

    fn configure(&mut self, pid: Pid, attr: SchedAttr, _ctx: &mut SchedCtx<'_>) {
        if let SchedAttr::FsyncDeadline(d) = attr {
            self.fsync_deadlines.insert(pid, d);
        }
        // Read deadlines ride on the requests themselves (the kernel
        // stamps them); nothing to store here.
    }

    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        match sc.kind {
            SyscallKind::Fsync { file } => {
                let budget = self
                    .fsync_deadlines
                    .get(&sc.pid)
                    .copied()
                    .unwrap_or(DEFAULT_FSYNC_DEADLINE);
                let cost = self.cost_of(file);
                if cost <= self.admit_threshold() {
                    return Gate::Proceed;
                }
                // Too expensive: drain it asynchronously first (§5.2).
                if self.wb_ready() {
                    ctx.start_writeback(Some(file), WB_BATCH);
                }
                self.held_fsyncs.push(HeldFsync {
                    pid: sc.pid,
                    file,
                    deadline: ctx.now + budget,
                });
                self.arm_timer(ctx);
                Gate::Hold
            }
            SyscallKind::Write { .. } => {
                // Pace a writer once *its own* flush backlog would endanger
                // the shortest fsync deadline. A burst of buffered writes
                // entangles everyone's next fsync through ordered mode, so
                // admission control is the only defence — and the cause
                // tags say exactly whose backlog it is.
                let mine = self.pid_cost.get(&sc.pid).copied().unwrap_or(0.0);
                if mine > self.write_throttle_cost() {
                    self.held_writes.push_back(sc.pid);
                    if self.wb_ready() {
                        ctx.start_writeback(None, WB_BATCH);
                    }
                    self.arm_timer(ctx);
                    return Gate::Hold;
                }
                Gate::Proceed
            }
            _ => Gate::Proceed,
        }
    }

    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        if ev.new_bytes == 0 {
            self.note_device(ctx);
            return ev.len; // overwrites: flush work unchanged
        }
        // Page by page: a page can arm the timer or kick writeback, and
        // the kernel must apply that command before the next page.
        ev.each_page(ctx, |ev, ctx| {
            self.note_device(ctx);
            self.arm_timer(ctx);
            let offset = ev.page * sim_core::PAGE_SIZE;
            let sequential = self.last_offset.get(&ev.file) == Some(&offset);
            self.last_offset.insert(ev.file, offset + ev.new_bytes);
            let transfer = ev.new_bytes as f64 / ctx.device.seq_bandwidth();
            let secs = if sequential {
                transfer
            } else {
                transfer + self.seek_equiv_secs
            };
            let c = self.file_cost.entry(ev.file).or_default();
            c.secs += secs;
            c.pages += 1;
            for (pid, share) in ev.causes.shares(secs) {
                *self.pid_cost.entry(pid).or_insert(0.0) += share;
            }
            if self.manage_writeback && self.total_cost() > WB_HIGH_COST {
                ctx.start_writeback(None, WB_BATCH);
                self.arm_timer(ctx);
            }
        })
    }

    fn buffer_freed(&mut self, ev: &BufferFreed, _ctx: &mut SchedCtx<'_>) {
        let pages = ev.bytes / sim_core::PAGE_SIZE;
        if let Some(c) = self.file_cost.get_mut(&ev.file) {
            let pp = c.per_page();
            c.secs = (c.secs - pp * pages as f64).max(0.0);
            c.pages = c.pages.saturating_sub(pages);
        }
    }

    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        match (req.dir, req.sync) {
            (IoDir::Read, _) => {
                let dl = req.deadline.unwrap_or(SimTime::MAX);
                self.read_expiry.insert((dl, req.id), req.start);
                self.reads.insert(req);
            }
            (IoDir::Write, true) => {
                self.drain_estimate(&req);
                self.sync_writes.push_back(req);
            }
            (IoDir::Write, false) => {
                self.drain_estimate(&req);
                self.async_writes.insert(req);
            }
        }
        ctx.kick_dispatch();
    }

    fn block_dispatch(&mut self, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // 1. Expired read deadlines jump everything.
        if let Some((&(dl, id), &start)) = self.read_expiry.iter().next() {
            if dl <= ctx.now {
                self.read_expiry.remove(&(dl, id));
                if let Some(req) = self.reads.remove(start, id) {
                    self.read_pos = req.shape().end();
                    return Dispatch::Issue(req);
                }
            }
        }
        // 2. Sync writes (fsync data + journal) are the critical path.
        if let Some(req) = self.sync_writes.pop_front() {
            return Dispatch::Issue(req);
        }
        // 3. Reads, with a batch cap so async writeback is not starved.
        if self.reads_in_batch < READ_BATCH || self.async_writes.is_empty() {
            if let Some(req) = self.reads.pop_cscan(self.read_pos) {
                self.read_expiry
                    .remove(&(req.deadline.unwrap_or(SimTime::MAX), req.id));
                self.read_pos = req.shape().end();
                self.reads_in_batch += 1;
                return Dispatch::Issue(req);
            }
        }
        // 4. Async writeback.
        self.reads_in_batch = 0;
        match self.async_writes.pop_cscan(self.async_pos) {
            Some(req) => {
                self.async_pos = req.shape().end();
                Dispatch::Issue(req)
            }
            None => Dispatch::Idle,
        }
    }

    fn block_completed(&mut self, _req: &Request, _failed: bool, ctx: &mut SchedCtx<'_>) {
        self.maintenance(ctx);
    }

    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        self.timer_armed = false;
        self.maintenance(ctx);
        ctx.kick_dispatch();
    }

    fn queued(&self) -> usize {
        self.reads.len() + self.sync_writes.len() + self.async_writes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::CauseSet;
    use sim_device::HddModel;
    use split_core::SchedCmd;

    fn ctx_at(dev: &HddModel, ns: u64) -> SchedCtx<'_> {
        SchedCtx::new(SimTime::from_nanos(ns), dev)
    }

    fn fsync_info(pid: u32, file: u64) -> SyscallInfo {
        SyscallInfo {
            pid: Pid(pid),
            kind: SyscallKind::Fsync { file: FileId(file) },
            ioprio: Default::default(),
            cached: None,
        }
    }

    fn dirty(file: u64, page: u64, causes: &CauseSet) -> BufferDirtied<'_> {
        BufferDirtied {
            file: FileId(file),
            page,
            len: 1,
            causes,
            prev: None,
            block: None,
            new_bytes: sim_core::PAGE_SIZE,
        }
    }

    #[test]
    fn small_fsyncs_proceed_immediately() {
        let dev = HddModel::new();
        let mut s = SplitDeadline::new();
        let mut ctx = ctx_at(&dev, 0);
        // One sequentially-appended page: tiny cost.
        s.buffer_dirtied(&dirty(1, 0, &CauseSet::of(Pid(9))), &mut ctx);
        assert_eq!(s.syscall_enter(&fsync_info(1, 1), &mut ctx), Gate::Proceed);
    }

    #[test]
    fn expensive_fsyncs_are_held_and_drained() {
        let dev = HddModel::new();
        let mut s = SplitDeadline::new();
        let mut ctx = ctx_at(&dev, 0);
        s.configure(
            Pid(1),
            SchedAttr::FsyncDeadline(SimDuration::from_millis(100)),
            &mut ctx,
        );
        // 200 scattered pages: ~1.6 s of estimated random-write cost.
        for i in 0..200 {
            s.buffer_dirtied(&dirty(2, i * 100, &CauseSet::of(Pid(9))), &mut ctx);
        }
        assert!(s.cost_of(FileId(2)) > 1.0);
        let g = s.syscall_enter(&fsync_info(1, 2), &mut ctx);
        assert_eq!(g, Gate::Hold);
        let cmds = ctx.drain();
        assert!(
            cmds.iter().any(|c| matches!(
                c,
                SchedCmd::StartWriteback { file: Some(f), .. } if *f == FileId(2)
            )),
            "must kick async writeback: {cmds:?}"
        );
    }

    #[test]
    fn draining_the_file_admits_the_fsync() {
        let dev = HddModel::new();
        let mut s = SplitDeadline::new();
        let mut ctx = ctx_at(&dev, 0);
        s.configure(
            Pid(1),
            SchedAttr::FsyncDeadline(SimDuration::from_millis(500)),
            &mut ctx,
        );
        for i in 0..100 {
            s.buffer_dirtied(&dirty(3, i * 50, &CauseSet::of(Pid(9))), &mut ctx);
        }
        assert_eq!(s.syscall_enter(&fsync_info(1, 3), &mut ctx), Gate::Hold);
        // Async writeback submits the file's data to the block level,
        // draining the estimate.
        let req = Request {
            id: RequestId(1),
            dir: IoDir::Write,
            start: BlockNo(10),
            nblocks: 100,
            submitter: Pid(2),
            causes: CauseSet::of(Pid(9)),
            sync: false,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: Some(FileId(3)),
            kind: ReqKind::Data,
        };
        let mut ctx2 = ctx_at(&dev, 1000);
        s.block_add(req.clone(), &mut ctx2);
        s.block_completed(&req, false, &mut ctx2);
        let cmds = ctx2.drain();
        assert!(
            cmds.iter()
                .any(|c| matches!(c, SchedCmd::Wake(p) if *p == Pid(1))),
            "{cmds:?}"
        );
    }

    #[test]
    fn deadline_pressure_forces_admission() {
        let dev = HddModel::new();
        let mut s = SplitDeadline::new();
        let mut ctx = ctx_at(&dev, 0);
        s.configure(
            Pid(1),
            SchedAttr::FsyncDeadline(SimDuration::from_millis(50)),
            &mut ctx,
        );
        for i in 0..500 {
            s.buffer_dirtied(&dirty(4, i * 100, &CauseSet::of(Pid(9))), &mut ctx);
        }
        assert_eq!(s.syscall_enter(&fsync_info(1, 4), &mut ctx), Gate::Hold);
        // Well past the deadline, maintenance stops waiting.
        let mut late = ctx_at(&dev, 10_000_000_000);
        s.timer_fired(&mut late);
        let cmds = late.drain();
        assert!(cmds
            .iter()
            .any(|c| matches!(c, SchedCmd::Wake(p) if *p == Pid(1))));
    }

    #[test]
    fn expired_reads_jump_sync_writes() {
        let dev = HddModel::new();
        let mut s = SplitDeadline::new();
        let mut ctx = ctx_at(&dev, 0);
        let mut w = Request {
            id: RequestId(1),
            dir: IoDir::Write,
            start: BlockNo(500),
            nblocks: 1,
            submitter: Pid(1),
            causes: CauseSet::empty(),
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: ReqKind::Journal,
        };
        s.block_add(w.clone(), &mut ctx);
        w.id = RequestId(2);
        let r = Request {
            id: RequestId(3),
            dir: IoDir::Read,
            start: BlockNo(100),
            nblocks: 1,
            submitter: Pid(2),
            causes: CauseSet::empty(),
            sync: true,
            ioprio: Default::default(),
            deadline: Some(SimTime::from_nanos(10)),
            submitted_at: SimTime::ZERO,
            file: None,
            kind: ReqKind::Data,
        };
        s.block_add(r, &mut ctx);
        // Past the read's deadline, it is served before the sync write.
        let mut late = ctx_at(&dev, 100);
        match s.block_dispatch(&mut late) {
            Dispatch::Issue(req) => assert_eq!(req.id, RequestId(3)),
            other => panic!("{other:?}"),
        }
        // Then the sync write.
        match s.block_dispatch(&mut late) {
            Dispatch::Issue(req) => assert_eq!(req.id, RequestId(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pdflush_variant_throttles_writers() {
        let dev = HddModel::new();
        let mut s = SplitDeadline::pdflush_variant();
        assert!(!s.manage_writeback);
        let mut ctx = ctx_at(&dev, 0);
        // Pid 7 exceeds its own write-throttle budget with scattered
        // dirtying.
        let seven = CauseSet::of(Pid(7));
        for i in 0..1000 {
            s.buffer_dirtied(&dirty(5, i * 64, &seven), &mut ctx);
        }
        let sc = SyscallInfo {
            pid: Pid(7),
            kind: SyscallKind::Write {
                file: FileId(5),
                offset: 0,
                len: 4096,
            },
            ioprio: Default::default(),
            cached: None,
        };
        assert_eq!(s.syscall_enter(&sc, &mut ctx), Gate::Hold);
    }

    #[test]
    fn total_cost_is_the_same_bits_in_every_instance() {
        let dev = HddModel::new();
        // Scattered pages of many files, each with its own odd cost.
        let run = || {
            let mut s = SplitDeadline::pdflush_variant();
            let causes = CauseSet::of(Pid(3));
            for f in 0..300 {
                let ev = BufferDirtied {
                    new_bytes: 1 + f * 2477 % sim_core::PAGE_SIZE,
                    ..dirty(f, f * 17, &causes)
                };
                s.buffer_dirtied(&ev, &mut ctx_at(&dev, f * 1000));
            }
            s
        };
        let (a, b) = (run(), run());
        assert_eq!(a.total_cost().to_bits(), b.total_cost().to_bits());
        // The sum depends on the order the map yields the files in, so
        // the map's order must depend on the run alone.
        let mut secs: Vec<f64> = a.file_cost.values().map(|c| c.secs).collect();
        secs.sort_by(f64::total_cmp);
        let up: f64 = secs.iter().sum();
        let down: f64 = secs.iter().rev().sum();
        assert_ne!(up.to_bits(), down.to_bits());
    }
}
