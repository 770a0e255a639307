//! The kernel's event stream from the outside: observers written here,
//! with no access to kernel internals, see every transition on every
//! device kind, and a run that cannot finish explains itself.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use sim_block::{Dispatch, Request};
use sim_cache::CacheConfig;
use sim_check::{AuditEvent, AuditPlane, Auditor};
use sim_core::{FileId, KernelId, Pid, SimDuration, SimTime};
use sim_kernel::{DeviceKind, KernelConfig, Outcome, ProcAction, World};
use split_core::{Gate, SchedCtx, Scheduler, SyscallInfo, SyscallKind};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Counts every event by variant. The match is exhaustive on purpose: a
/// new variant fails to compile here until someone decides what an
/// outside observer should make of it.
#[derive(Clone, Default)]
struct Tally(Rc<RefCell<BTreeMap<&'static str, u64>>>);

impl Tally {
    fn get(&self, variant: &str) -> u64 {
        self.0.borrow().get(variant).copied().unwrap_or(0)
    }
}

impl Auditor for Tally {
    fn name(&self) -> &'static str {
        "tally"
    }
    fn on_event(&mut self, _now: SimTime, ev: &AuditEvent<'_>, _out: &mut Vec<String>) {
        let variant = match ev {
            AuditEvent::SyscallEnter { .. } => "SyscallEnter",
            AuditEvent::GateHeld { .. } => "GateHeld",
            AuditEvent::DirtyThrottled { .. } => "DirtyThrottled",
            AuditEvent::WaitEnded { .. } => "WaitEnded",
            AuditEvent::SyscallExit { .. } => "SyscallExit",
            AuditEvent::BlockSubmitted { .. } => "BlockSubmitted",
            AuditEvent::BlockDispatched { .. } => "BlockDispatched",
            AuditEvent::SlotAcquired { .. } => "SlotAcquired",
            AuditEvent::SlotReleased { .. } => "SlotReleased",
            AuditEvent::DiskCharged { .. } => "DiskCharged",
            AuditEvent::BlockFinished { .. } => "BlockFinished",
            AuditEvent::TxnCommitted { .. } => "TxnCommitted",
            AuditEvent::JournalAborted { .. } => "JournalAborted",
        };
        *self.0.borrow_mut().entry(variant).or_default() += 1;
    }
}

/// FIFO elevator that holds every third gated call for 5 ms and, when
/// asked to, keeps the first read it is given forever.
#[derive(Default)]
struct TestSched {
    fifo: VecDeque<Request>,
    seen: u64,
    held: Vec<Pid>,
    withhold_first_read: bool,
    withheld: Rc<RefCell<Option<Request>>>,
}

impl Scheduler for TestSched {
    fn name(&self) -> &'static str {
        "test-sched"
    }
    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        self.seen += 1;
        if !self.seen.is_multiple_of(3) {
            return Gate::Proceed;
        }
        self.held.push(sc.pid);
        ctx.set_timer(ctx.now + SimDuration::from_millis(5));
        Gate::Hold
    }
    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        for pid in self.held.drain(..) {
            ctx.wake(pid);
        }
    }
    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        if self.withhold_first_read && req.is_read() {
            self.withhold_first_read = false;
            *self.withheld.borrow_mut() = Some(req);
            return;
        }
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
        self.fifo.len() + usize::from(self.withheld.borrow().is_some())
    }
}

/// 64 MB of buffered writes (five times a 64 MB machine's dirty limit),
/// an fsync, eight uncached reads, exit: 73 syscalls.
fn workload(file: FileId) -> impl FnMut(SimTime, &Outcome) -> ProcAction {
    let mut step = 0u64;
    move |_now, _last| {
        step += 1;
        ProcAction::Syscall(match step {
            1..=64 => SyscallKind::Write {
                file,
                offset: (step - 1) * MB,
                len: MB,
            },
            65 => SyscallKind::Fsync { file },
            66..=73 => SyscallKind::Read {
                file,
                offset: 512 * MB + (step - 66) * MB,
                len: 64 * KB,
            },
            _ => return ProcAction::Exit,
        })
    }
}

fn small_machine(queue_depth: u32) -> KernelConfig {
    KernelConfig {
        cache: CacheConfig {
            mem_bytes: 64 * MB, // dirty limit = 12.8 MB
            ..Default::default()
        },
        queue_depth,
        ..Default::default()
    }
}

/// Install the standard battery plus a tally on `k`, run the workload to
/// completion, and hold the stream to its own conservation laws. A
/// `physical` device takes time: the writer outruns it into the dirty
/// limit and finished requests bill disk time; a virtio disk does neither.
fn observe(w: &mut World, k: KernelId, physical: bool) {
    let tally = Tally::default();
    let mut plane = AuditPlane::standard();
    plane.push(Box::new(tally.clone()));
    w.kernel_mut(k).install_audit_plane(plane);
    let file = w.prealloc_file(k, 1024 * MB, true);
    w.spawn(k, Box::new(workload(file)));
    w.run_for(SimDuration::from_secs(60));
    assert!(w.kernel(k).block_idle(), "the workload drains");
    w.audit_quiesce(k);

    let n = |v| tally.get(v);
    assert_eq!(n("SyscallEnter"), 73);
    assert_eq!(n("SyscallExit"), 73);
    assert!(n("GateHeld") > 0, "every third gated call is held");
    assert_eq!(
        n("DirtyThrottled") > 0,
        physical,
        "64 MB vs a 12.8 MB limit"
    );
    assert_eq!(n("WaitEnded"), n("GateHeld") + n("DirtyThrottled"));
    let submitted = n("BlockSubmitted");
    assert!(submitted > 8, "writeback, journal and eight reads");
    for later in [
        "BlockDispatched",
        "SlotAcquired",
        "SlotReleased",
        "BlockFinished",
    ] {
        assert_eq!(n(later), submitted, "{later} balances BlockSubmitted");
    }
    assert!(n("TxnCommitted") > 0);
    assert_eq!(n("JournalAborted"), 0);
    assert_eq!(n("DiskCharged") > 0, physical);
    let plane = w.kernel(k).audit_plane().expect("installed above");
    assert_eq!(
        plane.violations().len(),
        0,
        "standard auditors stay clean: {:?}",
        plane.violations()
    );
}

#[test]
fn an_outside_observer_sees_every_transition_on_every_device_kind() {
    for depth in [1, 8] {
        let mut w = World::new();
        let k = w.add_kernel(
            small_machine(depth),
            DeviceKind::ssd(),
            Box::<TestSched>::default(),
        );
        observe(&mut w, k, true);
    }
    // A guest on a virtual disk: its requests become the host VMM's
    // syscalls, absorbed by the host's page cache.
    let mut w = World::new();
    let host = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::ssd(),
        Box::<TestSched>::default(),
    );
    let image = w.prealloc_file(host, 2048 * MB, true);
    let vmm = w.spawn_external(host);
    let guest = w.add_kernel(
        small_machine(1),
        DeviceKind::virtio(host, image, vmm),
        Box::<TestSched>::default(),
    );
    observe(&mut w, guest, false);
}

#[test]
fn a_stalled_run_names_the_reader_its_syscall_and_the_withheld_request() {
    let withheld = Rc::new(RefCell::new(None));
    let mut w = World::new();
    let k = w.add_kernel(
        KernelConfig::default(),
        DeviceKind::ssd(),
        Box::new(TestSched {
            withhold_first_read: true,
            withheld: Rc::clone(&withheld),
            ..Default::default()
        }),
    );
    w.kernel_mut(k).install_audit_plane(AuditPlane::standard());
    let file = w.prealloc_file(k, 16 * MB, true);
    let mut asked = false;
    let reader = w.spawn(
        k,
        Box::new(move |_now: SimTime, _last: &Outcome| {
            if std::mem::replace(&mut asked, true) {
                return ProcAction::Exit;
            }
            ProcAction::Syscall(SyscallKind::Read {
                file,
                offset: 0,
                len: 4 * KB,
            })
        }),
    );
    w.run_for(SimDuration::from_secs(5));
    assert!(!w.kernel(k).block_idle(), "the read never comes back");
    w.audit_stalled(k);

    let req = withheld.borrow().as_ref().expect("one read kept").id;
    let report: Vec<String> = w
        .kernel(k)
        .audit_plane()
        .expect("installed above")
        .violations()
        .iter()
        .filter(|v| v.auditor == "stall")
        .map(|v| v.message.clone())
        .collect();
    let who = format!("pid {} is IoWait in Read", reader.0);
    let waits = format!("waiting on request(s) [{}]", req.raw());
    let held = format!(
        "request {} (read for pid {}) is still in the scheduler",
        req.raw(),
        reader.0
    );
    assert!(
        report
            .iter()
            .any(|l| l.contains(&who) && l.contains(&waits)),
        "blocked reader and its syscall missing from {report:#?}"
    );
    assert!(
        report.iter().any(|l| l == &held),
        "withheld request missing from {report:#?}"
    );
}
