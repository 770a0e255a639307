//! Focused behavioural tests of kernel mechanics: gating, dirty
//! throttling, unlink, journal timers, and hook routing.

use std::cell::RefCell;
use std::rc::Rc;

use sim_block::{Dispatch, Noop, Request};
use sim_cache::CacheConfig;
use sim_core::{CauseSet, FileId, Pid, SimDuration, SimTime};
use sim_kernel::{
    AppEvent, DeviceKind, KernelConfig, Outcome, ProcAction, World, SCHED_BOOKKEEPING, SYSCALL_BASE,
};
use split_core::{
    BlockOnly, BufferDirtied, BufferFreed, Gate, SchedCtx, Scheduler, SyscallInfo, SyscallKind,
};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// A scheduler that holds every Nth gated call for a fixed time.
struct HoldEveryN {
    fifo: std::collections::VecDeque<Request>,
    n: u64,
    seen: u64,
    held: Vec<Pid>,
    hold_for: SimDuration,
}

impl Scheduler for HoldEveryN {
    fn name(&self) -> &'static str {
        "hold-every-n"
    }
    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        self.seen += 1;
        if self.seen.is_multiple_of(self.n) {
            self.held.push(sc.pid);
            ctx.set_timer(ctx.now + self.hold_for);
            Gate::Hold
        } else {
            Gate::Proceed
        }
    }
    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        for pid in self.held.drain(..) {
            ctx.wake(pid);
        }
    }
    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        self.fifo.push_back(req);
        ctx.kick_dispatch();
    }
    fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
        match self.fifo.pop_front() {
            Some(r) => Dispatch::Issue(r),
            None => Dispatch::Idle,
        }
    }
    fn queued(&self) -> usize {
        self.fifo.len()
    }
}

#[test]
fn held_syscalls_accumulate_gated_time_and_resume() {
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::ssd(),
        Box::new(HoldEveryN {
            fifo: Default::default(),
            n: 3,
            seen: 0,
            held: Vec::new(),
            hold_for: SimDuration::from_millis(5),
        }),
    );
    let f = w.prealloc_file(k, 64 * MB, true);
    let mut offset = 0;
    let writer = move |_n: SimTime, _l: &Outcome| {
        let a = ProcAction::Syscall(SyscallKind::Write {
            file: f,
            offset,
            len: 4 * KB,
        });
        offset = (offset + 4 * KB) % (64 * MB);
        a
    };
    let pid = w.spawn(k, Box::new(writer));
    w.run_for(SimDuration::from_secs(1));
    let st = w.kernel(k).stats.proc(pid).unwrap();
    assert!(st.writes > 50, "writer made progress: {}", st.writes);
    // Roughly every third call was held ~5 ms.
    assert!(
        st.gated_time > SimDuration::from_millis(100),
        "gated time should accumulate: {:?}",
        st.gated_time
    );
}

#[test]
fn unlink_fires_buffer_free_hooks_with_the_dirty_causes() {
    struct FreeLog {
        fifo: std::collections::VecDeque<Request>,
        freed: Rc<RefCell<Vec<BufferFreed>>>,
    }
    impl Scheduler for FreeLog {
        fn name(&self) -> &'static str {
            "free-log"
        }
        fn buffer_freed(&mut self, ev: &BufferFreed, _ctx: &mut SchedCtx<'_>) {
            self.freed.borrow_mut().push(ev.clone());
        }
        fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
            self.fifo.push_back(req);
            ctx.kick_dispatch();
        }
        fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
            match self.fifo.pop_front() {
                Some(r) => Dispatch::Issue(r),
                None => Dispatch::Idle,
            }
        }
        fn queued(&self) -> usize {
            self.fifo.len()
        }
    }
    let freed = Rc::new(RefCell::new(Vec::new()));
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::hdd(),
        Box::new(FreeLog {
            fifo: Default::default(),
            freed: freed.clone(),
        }),
    );
    let f = w.prealloc_file(k, 16 * MB, true);
    // Dirty eight pages, then unlink before writeback can run.
    let mut step = 0;
    let app = move |_n: SimTime, _l: &Outcome| {
        step += 1;
        match step {
            1..=8 => ProcAction::Syscall(SyscallKind::Write {
                file: f,
                offset: (step - 1) * 4 * KB,
                len: 4 * KB,
            }),
            9 => ProcAction::Syscall(SyscallKind::Unlink { file: f }),
            _ => ProcAction::Exit,
        }
    };
    let pid = w.spawn(k, Box::new(app));
    w.run_for(SimDuration::from_millis(50));
    let freed = freed.borrow();
    let bytes: u64 = freed.iter().map(|e| e.bytes).sum();
    assert_eq!(bytes, 8 * 4 * KB, "all eight dirty pages were freed");
    for ev in freed.iter() {
        assert!(ev.causes.contains(pid), "freed causes point at the writer");
    }
}

#[test]
fn journal_timer_commits_without_any_fsync() {
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::hdd(),
        Box::new(BlockOnly::new(Noop::new())),
    );
    let f = w.prealloc_file(k, 16 * MB, true);
    // One buffered write, then sleep forever — no fsync.
    let mut wrote = false;
    let app = move |_n: SimTime, _l: &Outcome| {
        if !wrote {
            wrote = true;
            ProcAction::Syscall(SyscallKind::Write {
                file: f,
                offset: 0,
                len: 4 * KB,
            })
        } else {
            ProcAction::Sleep(SimDuration::from_secs(60))
        }
    };
    w.spawn(k, Box::new(app));
    // Within the 5 s commit interval: nothing dispatched beyond maybe
    // writeback. After it: journal I/O must have happened.
    w.run_for(SimDuration::from_secs(8));
    let dispatched = w.kernel(k).stats.requests_dispatched;
    assert!(
        dispatched >= 3,
        "periodic commit should write data + log + commit record: {dispatched}"
    );
}

#[test]
fn scs_style_gating_applies_to_reads_when_configured() {
    struct HoldReads {
        fifo: std::collections::VecDeque<Request>,
        held_reads: Rc<RefCell<u64>>,
    }
    impl Scheduler for HoldReads {
        fn name(&self) -> &'static str {
            "hold-reads"
        }
        fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
            if matches!(sc.kind, SyscallKind::Read { .. }) {
                *self.held_reads.borrow_mut() += 1;
                ctx.wake(sc.pid); // release immediately; we just count
                Gate::Hold
            } else {
                Gate::Proceed
            }
        }
        fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
            self.fifo.push_back(req);
            ctx.kick_dispatch();
        }
        fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
            match self.fifo.pop_front() {
                Some(r) => Dispatch::Issue(r),
                None => Dispatch::Idle,
            }
        }
        fn queued(&self) -> usize {
            self.fifo.len()
        }
    }
    let held = Rc::new(RefCell::new(0u64));
    let mut w = World::new();
    let cfg = KernelConfig {
        gate_reads: true, // the SCS architecture
        ..Default::default()
    };
    let k = w.add_kernel(
        cfg,
        DeviceKind::ssd(),
        Box::new(HoldReads {
            fifo: Default::default(),
            held_reads: held.clone(),
        }),
    );
    let f = w.prealloc_file(k, 16 * MB, true);
    let mut offset = 0;
    let reader = move |_n: SimTime, _l: &Outcome| {
        let a = ProcAction::Syscall(SyscallKind::Read {
            file: f,
            offset,
            len: 64 * KB,
        });
        offset = (offset + 64 * KB) % (16 * MB);
        a
    };
    let pid = w.spawn(k, Box::new(reader));
    w.run_for(SimDuration::from_millis(100));
    assert!(
        *held.borrow() > 10,
        "reads passed the gate: {}",
        held.borrow()
    );
    let st = w.kernel(k).stats.proc(pid).unwrap();
    assert!(st.reads > 10, "and still completed: {}", st.reads);
}

#[test]
fn reads_bypass_the_gate_in_the_split_architecture() {
    struct PanicOnRead {
        fifo: std::collections::VecDeque<Request>,
    }
    impl Scheduler for PanicOnRead {
        fn name(&self) -> &'static str {
            "panic-on-read-gate"
        }
        fn syscall_enter(&mut self, sc: &SyscallInfo, _ctx: &mut SchedCtx<'_>) -> Gate {
            assert!(
                !matches!(sc.kind, SyscallKind::Read { .. }),
                "split framework must not gate reads"
            );
            Gate::Proceed
        }
        fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
            self.fifo.push_back(req);
            ctx.kick_dispatch();
        }
        fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
            match self.fifo.pop_front() {
                Some(r) => Dispatch::Issue(r),
                None => Dispatch::Idle,
            }
        }
        fn queued(&self) -> usize {
            self.fifo.len()
        }
    }
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(), // gate_reads: false
        DeviceKind::ssd(),
        Box::new(PanicOnRead {
            fifo: Default::default(),
        }),
    );
    let f = w.prealloc_file(k, 8 * MB, true);
    let mut toggle = false;
    let app = move |_n: SimTime, _l: &Outcome| {
        toggle = !toggle;
        if toggle {
            ProcAction::Syscall(SyscallKind::Read {
                file: f,
                offset: 0,
                len: 4 * KB,
            })
        } else {
            ProcAction::Syscall(SyscallKind::Write {
                file: f,
                offset: 0,
                len: 4 * KB,
            })
        }
    };
    let pid = w.spawn(k, Box::new(app));
    w.run_for(SimDuration::from_millis(50));
    let st = w.kernel(k).stats.proc(pid).unwrap();
    assert!(st.reads > 5 && st.writes > 5);
}

#[test]
fn dirty_throttle_bounds_buffered_data() {
    let mut w = World::new();
    let cfg = KernelConfig {
        cache: CacheConfig {
            mem_bytes: 64 * MB, // dirty limit = 12.8 MB
            ..Default::default()
        },
        ..Default::default()
    };
    let k = w.add_kernel(
        cfg,
        DeviceKind::hdd(),
        Box::new(BlockOnly::new(Noop::new())),
    );
    let f = w.prealloc_file(k, 1 << 30, true);
    let mut offset = 0;
    let writer = move |_n: SimTime, _l: &Outcome| {
        let a = ProcAction::Syscall(SyscallKind::Write {
            file: f,
            offset,
            len: MB,
        });
        offset += MB;
        a
    };
    w.spawn(k, Box::new(writer));
    w.run_for(SimDuration::from_secs(1));
    let limit_pages = w.kernel(k).cache().config().dirty_limit_pages();
    let dirty = w.kernel(k).cache().dirty_total();
    assert!(
        dirty <= limit_pages + 256,
        "dirty pages {dirty} must stay near the {limit_pages}-page limit"
    );
}

#[test]
fn sparse_reads_of_never_written_files_return_zeroes_without_io() {
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::hdd(),
        Box::new(BlockOnly::new(Noop::new())),
    );
    // A freshly created (empty, unallocated) file.
    let created: Rc<RefCell<Option<FileId>>> = Rc::new(RefCell::new(None));
    let created2 = created.clone();
    let mut step = 0;
    let app = move |_n: SimTime, last: &Outcome| {
        step += 1;
        if let Outcome::Created(f) = last {
            *created2.borrow_mut() = Some(*f);
        }
        match step {
            1 => ProcAction::Syscall(SyscallKind::Create),
            2..=10 => {
                let f = created2.borrow().expect("created");
                ProcAction::Syscall(SyscallKind::Read {
                    file: f,
                    offset: (step - 2) * 4 * KB,
                    len: 4 * KB,
                })
            }
            _ => ProcAction::Exit,
        }
    };
    let pid = w.spawn(k, Box::new(app));
    w.run_for(SimDuration::from_millis(100));
    let st = w.kernel(k).stats.proc(pid).unwrap();
    assert_eq!(st.reads, 9, "all hole reads completed");
    // No device traffic needed for holes (journal traffic may exist for
    // the creat, but no Data reads).
    assert_eq!(
        w.kernel(k)
            .stats
            .disk_time
            .get(&pid)
            .copied()
            .unwrap_or(0.0)
            .round() as u64,
        0,
        "hole reads cost no disk time"
    );
}

/// What the recording scheduler below saw, in hook order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Rec {
    /// `buffer_dirtied`: page, overwrite?, new bytes, block.
    Dirtied(u64, bool, u64, Option<u64>),
    /// `block_add`: first block, length.
    Block(u64, u64),
}

/// Logs every buffer-dirtied hook and block request; on the first hook
/// for `flush_on` it asks for writeback of the whole file, mid-write.
struct WriteOrderLog {
    fifo: std::collections::VecDeque<Request>,
    log: Rc<RefCell<Vec<Rec>>>,
    flush_on: u64,
    flushed: bool,
}

impl Scheduler for WriteOrderLog {
    fn name(&self) -> &'static str {
        "write-order-log"
    }
    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        ev.each_page(ctx, |ev, ctx| {
            self.log.borrow_mut().push(Rec::Dirtied(
                ev.page,
                ev.prev.is_some(),
                ev.new_bytes,
                ev.block.map(|b| b.raw()),
            ));
            if ev.page == self.flush_on && !self.flushed {
                self.flushed = true;
                ctx.start_writeback(Some(ev.file), u64::MAX);
            }
        })
    }
    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        self.log
            .borrow_mut()
            .push(Rec::Block(req.start.raw(), req.nblocks));
        self.fifo.push_back(req);
        ctx.kick_dispatch();
    }
    fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
        match self.fifo.pop_front() {
            Some(r) => Dispatch::Issue(r),
            None => Dispatch::Idle,
        }
    }
    fn queued(&self) -> usize {
        self.fifo.len()
    }
}

/// A command queued by one page's hook lands before the next page is
/// dirtied, and the next page sees the extents that command allocated.
/// Pages 0–7 are preallocated, 12–13 are dirtied (unallocated) by a
/// first write, then one write covers 0–15; page 9's hook flushes the
/// file. The flush must take exactly 0–9 and 12–13 (nothing dirtied
/// ahead of the hook), and 12–13 must come back fresh, at the blocks
/// the flush allocated (extents re-read after the command).
#[test]
fn mid_write_writeback_lands_before_the_next_page() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::ssd(),
        Box::new(WriteOrderLog {
            fifo: Default::default(),
            log: log.clone(),
            flush_on: 9,
            flushed: false,
        }),
    );
    let f = w.prealloc_file(k, 32 * KB, true);
    let mut step = 0;
    let app = move |_n: SimTime, _l: &Outcome| {
        step += 1;
        match step {
            1 => ProcAction::Syscall(SyscallKind::Write {
                file: f,
                offset: 48 * KB,
                len: 8 * KB,
            }),
            2 => ProcAction::Syscall(SyscallKind::Write {
                file: f,
                offset: 0,
                len: 64 * KB,
            }),
            _ => ProcAction::Exit,
        }
    };
    w.spawn(k, Box::new(app));
    w.run_for(SimDuration::from_millis(50));
    let log = log.borrow();
    let fresh = |page, block| Rec::Dirtied(page, false, 4 * KB, block);
    let Rec::Dirtied(0, _, _, Some(b0)) = log[2] else {
        panic!("page 0 is preallocated: {:?}", log[2]);
    };
    let Rec::Block(r, 2) = log[13] else {
        panic!("pages 8–9 flushed as one request: {:?}", log[13]);
    };
    let mut want = vec![fresh(12, None), fresh(13, None)];
    want.extend((0..8).map(|p| fresh(p, Some(b0 + p))));
    want.extend([fresh(8, None), fresh(9, None)]);
    // Page 9's flush: the preallocated run, then 8–9 and 12–13 at the
    // blocks delayed allocation just gave them.
    want.extend([Rec::Block(b0, 8), Rec::Block(r, 2), Rec::Block(r + 2, 2)]);
    want.extend([fresh(10, None), fresh(11, None)]);
    want.extend([fresh(12, Some(r + 2)), fresh(13, Some(r + 3))]);
    want.extend([fresh(14, None), fresh(15, None)]);
    assert_eq!(*log, want);
    assert_eq!(w.kernel(k).cache().dirty_total(), 6, "pages 10, 11, 12–15");
}

/// The buffer-dirtied hook's `causes` is the writer's own set, not the
/// page's accumulated union, and `prev` is who was responsible before the
/// write. A dirties page 0, B overwrites it, then A writes it again.
#[test]
fn overwrite_hooks_see_the_writer_and_the_previous_causes() {
    type Seen = Vec<(CauseSet, Option<CauseSet>)>;
    struct CauseLog {
        fifo: std::collections::VecDeque<Request>,
        seen: Rc<RefCell<Seen>>,
    }
    impl Scheduler for CauseLog {
        fn name(&self) -> &'static str {
            "cause-log"
        }
        fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, _ctx: &mut SchedCtx<'_>) -> u64 {
            self.seen
                .borrow_mut()
                .push((ev.causes.clone(), ev.prev.cloned()));
            ev.len
        }
        fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
            self.fifo.push_back(req);
            ctx.kick_dispatch();
        }
        fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
            match self.fifo.pop_front() {
                Some(r) => Dispatch::Issue(r),
                None => Dispatch::Idle,
            }
        }
        fn queued(&self) -> usize {
            self.fifo.len()
        }
    }
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::ssd(),
        Box::new(CauseLog {
            fifo: Default::default(),
            seen: seen.clone(),
        }),
    );
    let f = w.prealloc_file(k, 64 * KB, true);
    let write = ProcAction::Syscall(SyscallKind::Write {
        file: f,
        offset: 0,
        len: 4 * KB,
    });
    // Each process runs its script, one action per step, then exits.
    let script = |actions: Vec<ProcAction>| {
        let mut actions = actions.into_iter();
        move |_n: SimTime, _l: &Outcome| actions.next().unwrap_or(ProcAction::Exit)
    };
    let nap = |ms| ProcAction::Sleep(SimDuration::from_millis(ms));
    let a = w.spawn(k, Box::new(script(vec![write, nap(2), write])));
    let b = w.spawn(k, Box::new(script(vec![nap(1), write])));
    w.run_for(SimDuration::from_millis(50));
    let (a, b) = (CauseSet::of(a), CauseSet::of(b));
    assert_eq!(
        *seen.borrow(),
        vec![
            (a.clone(), None),
            (b.clone(), Some(a.clone())),
            (a.clone(), Some(a.union(&b))),
        ]
    );
}

/// The kernel hands a write's pages to the scheduler as batched stretches:
/// one message for a 64-page cached overwrite inside one extent, and one
/// message per extent for a write across an extent seam, fresh or
/// overwritten.
#[test]
fn a_dirty_stretch_is_one_hook_message() {
    /// Per dirty message: first page, pages, overwrite?, first block.
    type Msgs = Vec<(u64, u64, bool, Option<u64>)>;
    struct StretchLog {
        fifo: std::collections::VecDeque<Request>,
        log: Rc<RefCell<Msgs>>,
    }
    impl Scheduler for StretchLog {
        fn name(&self) -> &'static str {
            "stretch-log"
        }
        fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, _ctx: &mut SchedCtx<'_>) -> u64 {
            self.log.borrow_mut().push((
                ev.page,
                ev.len,
                ev.prev.is_some(),
                ev.block.map(|b| b.raw()),
            ));
            ev.len
        }
        fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
            self.fifo.push_back(req);
            ctx.kick_dispatch();
        }
        fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
            match self.fifo.pop_front() {
                Some(r) => Dispatch::Issue(r),
                None => Dispatch::Idle,
            }
        }
        fn queued(&self) -> usize {
            self.fifo.len()
        }
    }
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::ssd(),
        Box::new(StretchLog {
            fifo: Default::default(),
            log: log.clone(),
        }),
    );
    // One extent; and two extents of 64 pages with a gap between them.
    let one = w.prealloc_file(k, 256 * KB, true);
    let two = w.prealloc_file(k, 512 * KB, false);
    let write = |file, offset| {
        ProcAction::Syscall(SyscallKind::Write {
            file,
            offset,
            len: 256 * KB,
        })
    };
    let mut actions = vec![
        write(one, 0),
        write(one, 0),
        write(two, 128 * KB),
        write(two, 128 * KB),
    ]
    .into_iter();
    w.spawn(
        k,
        Box::new(move |_n: SimTime, _l: &Outcome| actions.next().unwrap_or(ProcAction::Exit)),
    );
    w.run_for(SimDuration::from_millis(50));
    let log = log.borrow();
    assert_eq!(log.len(), 6, "{log:?}");
    let b = log[0].3.expect("preallocated");
    assert_eq!(log[..2], [(0, 64, false, Some(b)), (0, 64, true, Some(b))]);
    let (s1, s2) = (log[2].3.expect("allocated"), log[3].3.expect("allocated"));
    assert_ne!(s2, s1 + 32, "pages 32–95 cross a seam at page 64");
    assert_eq!(
        log[2..],
        [
            (32, 32, false, Some(s1)),
            (64, 32, false, Some(s2)),
            (32, 32, true, Some(s1)),
            (64, 32, true, Some(s2)),
        ]
    );
}

/// A zero-length write or read touches no page: it passes the gate and
/// the exit hook and costs one `SYSCALL_BASE`, but dirties nothing,
/// fires no buffer-dirtied hook, joins no transaction and issues no I/O
/// (the read is of an uncached page, which a one-page span would miss).
#[test]
fn zero_length_calls_touch_no_page() {
    #[derive(Default)]
    struct Counts {
        enters: u64,
        exits: u64,
        dirtied: u64,
        blocks: u64,
    }
    struct CountHooks {
        fifo: std::collections::VecDeque<Request>,
        counts: Rc<RefCell<Counts>>,
    }
    impl Scheduler for CountHooks {
        fn name(&self) -> &'static str {
            "count-hooks"
        }
        fn syscall_enter(&mut self, _sc: &SyscallInfo, _ctx: &mut SchedCtx<'_>) -> Gate {
            self.counts.borrow_mut().enters += 1;
            Gate::Proceed
        }
        fn syscall_exit(&mut self, _sc: &SyscallInfo, _ctx: &mut SchedCtx<'_>) {
            self.counts.borrow_mut().exits += 1;
        }
        fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, _ctx: &mut SchedCtx<'_>) -> u64 {
            self.counts.borrow_mut().dirtied += 1;
            ev.len
        }
        fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
            self.counts.borrow_mut().blocks += 1;
            self.fifo.push_back(req);
            ctx.kick_dispatch();
        }
        fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
            match self.fifo.pop_front() {
                Some(r) => Dispatch::Issue(r),
                None => Dispatch::Idle,
            }
        }
        fn queued(&self) -> usize {
            self.fifo.len()
        }
    }
    let counts = Rc::new(RefCell::new(Counts::default()));
    let cfg = KernelConfig::default();
    let mut w = World::new();
    let k = w.add_kernel(
        cfg,
        DeviceKind::ssd(),
        Box::new(CountHooks {
            fifo: Default::default(),
            counts: counts.clone(),
        }),
    );
    let f = w.prealloc_file(k, 64 * KB, true);
    let steps = Rc::new(RefCell::new(Vec::new()));
    let seen = steps.clone();
    let app = move |now: SimTime, _l: &Outcome| {
        seen.borrow_mut().push(now);
        match seen.borrow().len() {
            1 => ProcAction::Syscall(SyscallKind::Write {
                file: f,
                offset: 8 * KB,
                len: 0,
            }),
            2 => ProcAction::Syscall(SyscallKind::Read {
                file: f,
                offset: 8 * KB,
                len: 0,
            }),
            _ => ProcAction::Exit,
        }
    };
    let pid = w.spawn(k, Box::new(app));
    w.run_for(SimDuration::from_secs(10));
    let c = counts.borrow();
    assert_eq!((c.enters, c.exits), (1, 2), "write gated; both exit");
    assert_eq!(c.dirtied, 0, "no buffer-dirtied hook");
    assert_eq!(c.blocks, 0, "no data, journal or read I/O");
    let kernel = w.kernel(k);
    assert_eq!(kernel.cache().dirty_total(), 0);
    assert_eq!(kernel.stats.requests_dispatched, 0);
    let st = kernel.stats.proc(pid).unwrap();
    assert_eq!((st.writes, st.reads), (1, 1));
    let t = steps.borrow();
    assert_eq!(t[1].since(t[0]), SYSCALL_BASE + SCHED_BOOKKEEPING);
    assert_eq!(t[2].since(t[1]), SYSCALL_BASE);
}

/// An app timer behind the clock is the late schedule it is: counted in
/// `late_schedules()` (what the fleet's lookahead check reads) and fired
/// at `now`, never silently moved.
#[test]
#[cfg_attr(
    debug_assertions,
    should_panic(expected = "scheduled an event in the past")
)]
fn late_app_timer_is_counted_and_fires_now() {
    let mut w = World::new();
    w.schedule_app_timer(SimTime::from_nanos(100), 1);
    let fired = w.run_until_app_events(SimTime::MAX);
    assert!(matches!(fired[..], [AppEvent::Timer { token: 1, .. }]));
    assert_eq!(w.late_schedules(), 0);
    w.schedule_app_timer(SimTime::from_nanos(40), 2);
    assert_eq!(w.late_schedules(), 1);
    let fired = w.run_until_app_events(SimTime::MAX);
    let [AppEvent::Timer { token: 2, now }] = fired[..] else {
        panic!("late timer did not fire: {fired:?}");
    };
    assert_eq!(now, SimTime::from_nanos(100), "clamped to now");
}

/// A FIFO scheduler with one reply out of range: a dirty stretch answered
/// with 0 pages taken, or else a dirty-waiter pick past the last waiter.
struct BadReply {
    fifo: std::collections::VecDeque<Request>,
    zero_pages: bool,
}

impl Scheduler for BadReply {
    fn name(&self) -> &'static str {
        "bad-reply"
    }
    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, _ctx: &mut SchedCtx<'_>) -> u64 {
        if self.zero_pages {
            0
        } else {
            ev.len
        }
    }
    fn pick_dirty_waiter(&mut self, waiters: &[Pid], _ctx: &mut SchedCtx<'_>) -> usize {
        waiters.len()
    }
    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        self.fifo.push_back(req);
        ctx.kick_dispatch();
    }
    fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
        match self.fifo.pop_front() {
            Some(r) => Dispatch::Issue(r),
            None => Dispatch::Idle,
        }
    }
    fn queued(&self) -> usize {
        self.fifo.len()
    }
}

/// One writer of 1 MB calls on a 64 MB machine (a 12.8 MB dirty limit),
/// so it is throttled and, once writeback lands, admitted again.
fn throttled_writer_under(zero_pages: bool) {
    let mut w = World::new();
    let cfg = KernelConfig {
        cache: CacheConfig {
            mem_bytes: 64 * MB,
            ..Default::default()
        },
        ..Default::default()
    };
    let sched = BadReply {
        fifo: Default::default(),
        zero_pages,
    };
    let k = w.add_kernel(cfg, DeviceKind::hdd(), Box::new(sched));
    let f = w.prealloc_file(k, 1 << 30, true);
    let mut offset = 0;
    let writer = move |_n: SimTime, _l: &Outcome| {
        let a = ProcAction::Syscall(SyscallKind::Write {
            file: f,
            offset,
            len: MB,
        });
        offset += MB;
        a
    };
    w.spawn(k, Box::new(writer));
    w.run_for(SimDuration::from_secs(2));
}

#[test]
#[should_panic(expected = "a scheduler took 0 of 256 pages")]
fn a_dirty_reply_of_no_pages_panics() {
    throttled_writer_under(true);
}

#[test]
#[should_panic(expected = "a scheduler picked dirty waiter 1 of 1")]
fn a_dirty_waiter_pick_past_the_last_panics() {
    throttled_writer_under(false);
}
