//! Focused behavioural tests of kernel mechanics: gating, dirty
//! throttling, unlink, journal timers, and hook routing.

use std::cell::RefCell;
use std::rc::Rc;

use sim_block::{Dispatch, Noop, Request};
use sim_cache::CacheConfig;
use sim_core::{FileId, Pid, SimDuration, SimTime};
use sim_kernel::{AppEvent, DeviceKind, KernelConfig, Outcome, ProcAction, World};
use split_core::{BlockOnly, BufferFreed, Gate, IoSched, SchedCtx, SyscallInfo, SyscallKind};

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

impl IoSched for HoldEveryN {
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
    impl IoSched for FreeLog {
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
    impl IoSched for HoldReads {
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
    impl IoSched for PanicOnRead {
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
