//! The simulation world: the event queue plus one or more kernels, with
//! cross-kernel routing for the nested-VM and distributed scenarios.

use sim_core::{EventQueue, FileId, KernelId, Pid, RequestId, SimDuration, SimTime};
use split_core::{IoSched, SchedAttr, SyscallKind};

use crate::kernel::{DeviceKind, Kernel, KernelConfig};
use crate::process::ProcessLogic;

/// Everything that can happen in a world.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A process is runnable again.
    ProcStep {
        /// Kernel.
        k: KernelId,
        /// Process.
        pid: Pid,
    },
    /// The device finished a request.
    DeviceDone {
        /// Kernel.
        k: KernelId,
        /// Request.
        req: RequestId,
    },
    /// Re-poll block dispatch (after a scheduler `WaitUntil`).
    DispatchRetry {
        /// Kernel.
        k: KernelId,
    },
    /// A scheduler timer fired.
    SchedTimer {
        /// Kernel.
        k: KernelId,
    },
    /// The file system's periodic tick (journal commit interval).
    FsTimer {
        /// Kernel.
        k: KernelId,
    },
    /// The writeback daemon's poll tick.
    WritebackTick {
        /// Kernel.
        k: KernelId,
    },
    /// An application-level timer (drained via [`World::drain_app_events`]).
    AppTimer {
        /// Caller-chosen correlation token.
        token: u64,
    },
}

/// Where the completion of an injected syscall should be reported.
#[derive(Debug, Clone, Copy)]
pub enum InjectTarget {
    /// It backs a guest kernel's virtual-disk request.
    GuestVirtio {
        /// Guest kernel.
        guest: KernelId,
        /// Guest block request.
        req: RequestId,
    },
    /// An application driver (HDFS) is waiting; reported as an
    /// [`AppEvent::InjectedDone`].
    App {
        /// Caller-chosen correlation token.
        token: u64,
    },
}

/// Events surfaced to application drivers outside the kernels.
#[derive(Debug, Clone, Copy)]
pub enum AppEvent {
    /// An injected syscall completed.
    InjectedDone {
        /// The token passed at injection.
        token: u64,
        /// Completion time.
        now: SimTime,
    },
    /// An application timer fired.
    Timer {
        /// The token passed at scheduling.
        token: u64,
        /// Fire time.
        now: SimTime,
    },
}

/// Cross-kernel actions produced inside a kernel and executed by the world.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CrossAction {
    InjectSyscall {
        kernel: KernelId,
        pid: Pid,
        kind: SyscallKind,
        target: InjectTarget,
    },
    VirtioDone {
        guest: KernelId,
        req: RequestId,
    },
}

/// Shared plumbing passed into kernel methods: the event queue plus the
/// cross-kernel and application outboxes.
pub(crate) struct Bus {
    /// The world's event queue.
    pub q: EventQueue<Event>,
    /// Application events awaiting [`World::drain_app_events`].
    pub app_events: Vec<AppEvent>,
    pub(crate) cross: Vec<CrossAction>,
}

/// A deterministic simulation world.
pub struct World {
    bus: Bus,
    kernels: Vec<Kernel>,
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

impl World {
    /// An empty world at t = 0. If a self-profiler is installed on the
    /// current thread (see [`sim_core::prof::install_thread`]) the event
    /// queue picks it up; profiling observes wall-clock time only and
    /// never changes simulation output.
    pub fn new() -> Self {
        let mut q = EventQueue::new();
        if let Some(p) = sim_core::prof::thread_profiler() {
            q.set_profiler(p);
        }
        World {
            bus: Bus {
                q,
                app_events: Vec::new(),
                cross: Vec::new(),
            },
            kernels: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.bus.q.now()
    }

    /// Events processed by the world's queue so far (throughput
    /// benchmarks report events per wall-clock second from this).
    pub fn events_processed(&self) -> u64 {
        self.bus.q.events_processed()
    }

    /// When the next queued event fires, if any event is queued.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.bus.q.peek_time()
    }

    /// Add a machine; returns its id.
    pub fn add_kernel(
        &mut self,
        cfg: KernelConfig,
        device: DeviceKind,
        sched: Box<dyn IoSched>,
    ) -> KernelId {
        let id = KernelId(self.kernels.len() as u32);
        let mut k = Kernel::new(id, cfg, device, sched);
        k.start_timers(&mut self.bus);
        self.kernels.push(k);
        id
    }

    /// Immutable access to a kernel.
    pub fn kernel(&self, k: KernelId) -> &Kernel {
        &self.kernels[k.raw() as usize]
    }

    /// Turn on span/metrics tracing for kernel `k`.
    pub fn enable_tracing(&mut self, k: KernelId) {
        self.kernels[k.raw() as usize].enable_tracing();
    }

    /// Kernel `k`'s tracer (spans, counters, gauges, histograms); `None`
    /// unless [`World::enable_tracing`] was called for it.
    pub fn tracer(&self, k: KernelId) -> Option<&sim_trace::Tracer> {
        self.kernels[k.raw() as usize].tracer()
    }

    /// Mutable access to a kernel (experiment setup).
    pub fn kernel_mut(&mut self, k: KernelId) -> &mut Kernel {
        &mut self.kernels[k.raw() as usize]
    }

    /// Run kernel `k`'s auditors with the quiescence flag set; call once
    /// every process has exited and the block layer idles.
    pub fn audit_quiesce(&mut self, k: KernelId) {
        self.kernels[k.raw() as usize].audit_quiesce(&self.bus);
    }

    /// Diagnose kernel `k` when it will not quiesce: the strict checkpoint
    /// plus one violation per blocked process and outstanding request
    /// (see `Kernel::audit_stalled`).
    pub fn audit_stalled(&mut self, k: KernelId) {
        self.kernels[k.raw() as usize].audit_stalled(&self.bus);
    }

    /// How many events were scheduled in the past and clamped to `now`
    /// (should stay zero; the event-queue auditor reports increases and
    /// the check harness's drain gate fails the run).
    pub fn late_schedules(&self) -> u64 {
        self.bus.q.late_schedules()
    }

    /// Deliberately schedule one app timer behind the clock, tripping
    /// the late-schedule counter exactly as a buggy release-build caller
    /// would. Only useful to `runner check --inject-late`, which proves
    /// the gate turns a nonzero [`World::late_schedules`] into a failed
    /// run. No-op at t = 0, where no earlier time exists.
    pub fn inject_late_schedule(&mut self) {
        let now = self.now();
        if now == SimTime::ZERO {
            return;
        }
        let past = SimTime::from_nanos(now.as_nanos() - 1);
        self.bus
            .q
            .schedule_unchecked(past, Event::AppTimer { token: u64::MAX });
    }

    /// Spawn a workload process on kernel `k`.
    pub fn spawn(&mut self, k: KernelId, logic: Box<dyn ProcessLogic>) -> Pid {
        let pid = self.kernels[k.raw() as usize].spawn(logic, &mut self.bus);
        self.settle();
        pid
    }

    /// Spawn an external (injection-driven) process on kernel `k`.
    pub fn spawn_external(&mut self, k: KernelId) -> Pid {
        self.kernels[k.raw() as usize].spawn_external()
    }

    /// Inject a syscall into an external process.
    pub fn inject(&mut self, k: KernelId, pid: Pid, kind: SyscallKind, target: InjectTarget) {
        self.kernels[k.raw() as usize].inject(pid, kind, target, &mut self.bus);
        self.settle();
    }

    /// Forward a scheduler attribute on kernel `k`.
    pub fn configure(&mut self, k: KernelId, pid: Pid, attr: SchedAttr) {
        self.kernels[k.raw() as usize].sched_configure(pid, attr, &mut self.bus);
        self.settle();
    }

    /// Set a process's I/O priority on kernel `k`.
    pub fn set_ioprio(&mut self, k: KernelId, pid: Pid, prio: sim_block::IoPrio) {
        self.kernels[k.raw() as usize].set_ioprio(pid, prio, &mut self.bus);
        self.settle();
    }

    /// Create a preallocated file on kernel `k`.
    pub fn prealloc_file(&mut self, k: KernelId, bytes: u64, contiguous: bool) -> FileId {
        self.kernels[k.raw() as usize].prealloc_file(bytes, contiguous)
    }

    /// Schedule an application timer. A time behind the clock is a
    /// caller bug: it fires at `now` and counts in
    /// [`World::late_schedules`], like any other late event.
    pub fn schedule_app_timer(&mut self, at: SimTime, token: u64) {
        self.bus.q.schedule(at, Event::AppTimer { token });
    }

    /// Take the accumulated application events.
    pub(crate) fn drain_app_events(&mut self) -> Vec<AppEvent> {
        std::mem::take(&mut self.bus.app_events)
    }

    /// Run until at least one application event is pending (or the
    /// deadline / queue exhaustion), then return the drained events.
    /// Application drivers (the HDFS layer) alternate this with
    /// injections.
    pub fn run_until_app_events(&mut self, deadline: SimTime) -> Vec<AppEvent> {
        while self.bus.app_events.is_empty() {
            let Some(t) = self.bus.q.peek_time() else {
                break;
            };
            if t > deadline {
                break;
            }
            if !self.step() {
                break;
            }
        }
        self.drain_app_events()
    }

    /// Process a single event; returns false when the queue is empty.
    pub(crate) fn step(&mut self) -> bool {
        let Some(ev) = self.bus.q.pop() else {
            return false;
        };
        match ev.payload {
            Event::AppTimer { token } => {
                self.bus.app_events.push(AppEvent::Timer {
                    token,
                    now: ev.time,
                });
            }
            other => {
                let k = match other {
                    Event::ProcStep { k, .. }
                    | Event::DeviceDone { k, .. }
                    | Event::DispatchRetry { k }
                    | Event::SchedTimer { k }
                    | Event::FsTimer { k }
                    | Event::WritebackTick { k } => k,
                    Event::AppTimer { .. } => unreachable!(),
                };
                self.kernels[k.raw() as usize].handle(other, &mut self.bus);
            }
        }
        self.settle();
        true
    }

    /// Execute the pending cross-kernel actions (and any they cascade
    /// into).
    fn settle(&mut self) {
        while let Some(action) = {
            let bus = &mut self.bus;
            if bus.cross.is_empty() {
                None
            } else {
                Some(bus.cross.remove(0))
            }
        } {
            match action {
                CrossAction::InjectSyscall {
                    kernel,
                    pid,
                    kind,
                    target,
                } => {
                    self.kernels[kernel.raw() as usize].inject(pid, kind, target, &mut self.bus);
                }
                CrossAction::VirtioDone { guest, req } => {
                    self.kernels[guest.raw() as usize].device_done(req, &mut self.bus);
                }
            }
        }
    }

    /// Run until the queue is exhausted or `deadline` is reached; stops
    /// *before* processing any event beyond the deadline.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.bus.q.peek_time() {
            if t > deadline {
                break;
            }
            if !self.step() {
                break;
            }
        }
    }

    /// Run for a span of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }
}
