//! One machine's storage stack: processes → syscall layer → page cache →
//! file system → block layer → device, with the scheduler's hooks woven
//! through all of it.
//!
//! There is one physical device plane: every physical disk sits behind a
//! hardware queue ([`QueuedDevice`], depth 1 unless configured deeper).
//! The elevator dispatches only while the device has a free tag, and the
//! dispatched request goes straight into it — nothing is staged in
//! between.

use std::collections::VecDeque;

use sim_block::{Dispatch, IoPrio, MqDispatch, PrioClass, ReqKind, Request};
use sim_cache::{CacheConfig, PageCache};
use sim_check::{AuditCheckpoint, AuditEvent, AuditPlane, Auditor};
use sim_core::prof::{self, Phase, Profiler};
use sim_core::stats::TimeSeries;
use sim_core::{
    page_span, BlockNo, CauseSet, ChaosConfig, ChaosPlane, CompletionJitter, FileId, IdAlloc,
    IoError, IoErrorKind, KernelId, Pid, RequestId, SimDuration, SimTime, PAGE_SIZE,
};
use sim_core::{FastMap, FastSet};
use sim_device::{DiskModel, HddModel, QueuedDevice, QueuedDeviceConfig, SsdModel, Started};
use sim_fault::{DeviceFaultPlane, Fault, WriteStep};
use sim_fs::{Extent, FsConfig, FsEvent, FsOutput, IoToken, JournaledFs};
use sim_trace::{RequestTrace, Tracer};
use split_core::{
    BufferDirtied, BufferFreed, Gate, Hook, IoSched, SchedAttr, SchedCmd, SchedCtx, SyscallInfo,
    SyscallKind,
};

use crate::cpu::{copy_cost, CpuModel, SCHED_BOOKKEEPING, SYSCALL_BASE};
use crate::process::{Outcome, ProcAction, ProcessLogic};
use crate::span_probe::{BlockTraceProbe, SpanProbe};
use crate::stats::KernelStats;
use crate::world::{AppEvent, Bus, CrossAction, Event, InjectTarget};

mod stall;

/// The device backing a kernel's block layer.
pub enum DeviceKind {
    /// A physical disk model.
    Physical(Box<dyn DiskModel>),
    /// A virtual disk backed by a file on another (host) kernel — the
    /// QEMU configuration of §7.2. Guest block requests become host file
    /// syscalls issued by the host-side VMM process.
    Virtual {
        /// Host kernel.
        host: KernelId,
        /// Host file acting as the disk image.
        host_file: FileId,
        /// Host-side VMM process issuing the I/O.
        host_pid: Pid,
        /// Stand-in model for scheduler cost peeks inside the guest.
        peek: SsdModel,
    },
}

impl DeviceKind {
    /// A default hard disk.
    pub fn hdd() -> Self {
        DeviceKind::Physical(Box::new(HddModel::new()))
    }

    /// A default SSD.
    pub fn ssd() -> Self {
        DeviceKind::Physical(Box::new(SsdModel::new()))
    }

    /// A virtual disk (see [`DeviceKind::Virtual`]).
    pub fn virtio(host: KernelId, host_file: FileId, host_pid: Pid) -> Self {
        DeviceKind::Virtual {
            host,
            host_file,
            host_pid,
            peek: SsdModel::new(),
        }
    }

    fn peek(&self) -> &dyn DiskModel {
        match self {
            DeviceKind::Physical(m) => m.as_ref(),
            DeviceKind::Virtual { peek, .. } => peek,
        }
    }

    fn capacity_blocks(&self) -> u64 {
        self.peek().capacity_blocks()
    }
}

/// The device a built kernel actually drives: [`DeviceKind`] resolved
/// against the configured queue depth.
enum ActiveDevice {
    /// A physical disk behind its hardware queue.
    Physical {
        /// The multi-request device front-end.
        dev: QueuedDevice,
        /// Who holds how many of its hardware slots.
        mq: MqDispatch,
    },
    /// Virtual disk backed by a host file; always single-slot here (the
    /// host's own block layer provides any queueing).
    Virtual {
        host: KernelId,
        host_file: FileId,
        host_pid: Pid,
        peek: SsdModel,
    },
}

impl ActiveDevice {
    /// A physical disk gets a hardware queue of `depth` slots, owning the
    /// chaos plane's completion-jitter stream when that class is on.
    fn resolve(device: DeviceKind, depth: u32, chaos: Option<&ChaosConfig>) -> Self {
        match device {
            DeviceKind::Physical(m) => {
                let mut dev = QueuedDevice::new(m, QueuedDeviceConfig::with_depth(depth));
                if let Some(jitter) = chaos.and_then(CompletionJitter::new) {
                    dev.install_chaos(jitter);
                }
                ActiveDevice::Physical {
                    mq: MqDispatch::new(dev.depth()),
                    dev,
                }
            }
            DeviceKind::Virtual {
                host,
                host_file,
                host_pid,
                peek,
            } => ActiveDevice::Virtual {
                host,
                host_file,
                host_pid,
                peek,
            },
        }
    }

    fn peek(&self) -> &dyn DiskModel {
        match self {
            ActiveDevice::Physical { dev, .. } => dev.model(),
            ActiveDevice::Virtual { peek, .. } => peek,
        }
    }

    /// A hook context at `now` peeking at this device, queuing commands
    /// into `buf` (a recycled, empty buffer). Hooks see a physical disk's
    /// hardware-queue occupancy.
    fn sched_ctx(&self, now: SimTime, tracer: &Tracer, buf: Vec<SchedCmd>) -> SchedCtx<'_> {
        let ctx = SchedCtx::traced(now, self.peek(), tracer.clone()).with_commands_buf(buf);
        match self {
            ActiveDevice::Physical { mq, .. } => ctx.with_occupancy(mq.occupancy()),
            ActiveDevice::Virtual { .. } => ctx,
        }
    }
}

/// Background writeback poll interval.
const WB_TICK: SimDuration = SimDuration::from_millis(200);

/// Pages per background writeback pass.
const WB_BATCH_PAGES: u64 = 2048;

/// Which file system to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsChoice {
    /// ext4, fully integrated with the split framework.
    Ext4,
    /// XFS, partially integrated (untagged log task).
    Xfs,
}

/// Kernel construction parameters.
pub struct KernelConfig {
    /// File system.
    pub fs: FsChoice,
    /// Page-cache configuration.
    pub cache: CacheConfig,
    /// CPU cores.
    pub cores: u32,
    /// Whether the background writeback daemon (pdflush) runs on its own.
    /// Split-Deadline disables it to take full control of writeback
    /// (§7.1.2).
    pub pdflush: bool,
    /// Whether read syscalls pass through the scheduler's entry gate.
    /// False for block and split schedulers (the paper schedules reads
    /// below the cache); true for the SCS architecture.
    pub gate_reads: bool,
    /// Extra entropy folded into the file system's layout RNG seed. Zero
    /// (the default) keeps the historical on-disk layout; sweeps set it to
    /// vary allocator and metadata placement across replicates.
    pub fs_seed: u64,
    /// Adversarial timing perturbation (the chaos plane). `None` (the
    /// default) keeps every run byte-identical to a build without the
    /// plane; `Some` jitters writeback wakeups, CPU slices, journal
    /// commit timing, and device completion order within legal bounds
    /// (see [`sim_core::chaos`]).
    pub chaos: Option<ChaosConfig>,
    /// Hardware queue depth of a physical disk (NCQ tags / NVMe slots),
    /// at least 1: the device holds that many requests at once and may
    /// reorder their service ([`QueuedDevice`]). The default, 1, is a
    /// serial device. Virtual (host-backed) disks ignore it: their
    /// queueing lives in the host's own block layer.
    pub queue_depth: u32,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            fs: FsChoice::Ext4,
            cache: CacheConfig::default(),
            cores: 8,
            pdflush: true,
            gate_reads: false,
            fs_seed: 0,
            chaos: None,
            queue_depth: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ProcAttrs {
    ioprio: IoPrio,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Fresh,
    Computing,
    Sleeping,
    GateWait,
    DirtyWait,
    IoWait,
    PostCpu,
    ExternalIdle,
    Exited,
}

struct CurSyscall {
    kind: SyscallKind,
    entered: SimTime,
    gate_since: Option<SimTime>,
    gated: bool,
    pending_io: FastSet<RequestId>,
    /// First I/O error hit by this call's requests (fault injection); the
    /// call completes with `Outcome::Failed` once its I/O drains.
    error: Option<IoError>,
}

struct Proc {
    logic: Option<Box<dyn ProcessLogic>>,
    state: PState,
    cur: Option<CurSyscall>,
    last: Outcome,
    inject_target: Option<InjectTarget>,
}

#[derive(Default)]
struct ReqMeta {
    fs_token: Option<IoToken>,
    reader: Option<Pid>,
    fill: Option<(FileId, u64, u64)>,
    dirty_pages: u64,
    /// Set at dispatch when the fault plane failed this request; routed to
    /// `io_failed`/`block_failed` instead of the success paths.
    failed: Option<IoError>,
}

/// One simulated machine.
pub struct Kernel {
    /// This kernel's id in the world.
    pub id: KernelId,
    cfg: KernelConfig,
    sched: Box<dyn IoSched>,
    device: ActiveDevice,
    /// The requests inside the device, indexed by hardware tag (the
    /// device tracks ordering; this only parks the request bodies and
    /// their committed service times until completion).
    inflight: Vec<Option<(Request, SimDuration)>>,
    req_meta: FastMap<RequestId, ReqMeta>,
    req_ids: IdAlloc,
    fs: JournaledFs,
    cache: PageCache,
    procs: FastMap<Pid, Proc>,
    attrs: FastMap<Pid, ProcAttrs>,
    pid_alloc: u32,
    cpu: CpuModel,
    dirty_waiters: VecDeque<Pid>,
    /// Dirty pages submitted to the block layer but not yet on media;
    /// still counted against the dirty threshold.
    wb_inflight_pages: u64,
    wb_active: bool,
    dispatching: bool,
    journal_pid: Pid,
    writeback_pid: Pid,
    /// Measurements.
    pub stats: KernelStats,
    tracer: Tracer,
    /// Fault-injection plan, if installed. `None` (the default) keeps the
    /// dispatch path byte-for-byte identical to the fault-free build.
    fault_plane: Option<DeviceFaultPlane>,
    /// Subscribers to the kernel's event stream — invariant auditors,
    /// the span tracer, the block trace — if any are installed (same
    /// opt-in contract as the fault plane). The only outlet for simulated
    /// events: every site below reports through [`emit`], once.
    audit: Option<AuditPlane>,
    /// Chaos plane, if installed (same opt-in contract as the fault
    /// plane). Its completion-jitter stream lives inside the physical
    /// device.
    chaos: Option<ChaosPlane>,
    /// Self-profiler plane, picked up from the thread at construction
    /// (see [`sim_core::prof::install_thread`]). `None` (the default)
    /// keeps hot paths free of profiling beyond one `Option` check;
    /// when present it only reads wall-clock time, never sim state.
    prof: Option<Profiler>,
    /// Reusable buffers for the read and write hot paths: cache-miss runs
    /// and the extents backing a run of pages.
    read_miss_scratch: Vec<(u64, u64)>,
    extent_scratch: Vec<Extent>,
    /// Recycled allocations for per-syscall / per-hook state: emptied
    /// `pending_io` sets and `SchedCtx` command buffers go back here and
    /// come out on the next use with their capacity intact. Pools (not
    /// single slots) because hook applications nest: `apply_cmds` can
    /// re-enter `with_sched` while the outer buffer is still out.
    pending_io_pool: Vec<FastSet<RequestId>>,
    sched_cmd_pool: Vec<Vec<SchedCmd>>,
}

impl Kernel {
    /// Build a kernel. Called through [`crate::World::add_kernel`].
    pub(crate) fn new(
        id: KernelId,
        cfg: KernelConfig,
        device: DeviceKind,
        sched: Box<dyn IoSched>,
    ) -> Self {
        let journal_pid = Pid(1);
        let writeback_pid = Pid(2);
        let blocks = device.capacity_blocks();
        // One tracer per kernel, shared (disabled by default) with every
        // layer so spans opened in the fs or cache join the kernel's tree.
        let tracer = Tracer::for_kernel(id.raw());
        tracer.label_task(journal_pid, "journal");
        tracer.label_task(writeback_pid, "writeback");
        let mut fs_cfg = match cfg.fs {
            FsChoice::Ext4 => FsConfig::ext4(blocks),
            FsChoice::Xfs => FsConfig::xfs(blocks),
        };
        fs_cfg.seed ^= cfg.fs_seed;
        let mut fs = JournaledFs::new(fs_cfg, journal_pid, writeback_pid);
        fs.set_tracer(tracer.clone());
        let mut cache = PageCache::new(cfg.cache);
        cache.set_tracer(tracer.clone());
        let cores = cfg.cores;
        let device = ActiveDevice::resolve(device, cfg.queue_depth, cfg.chaos.as_ref());
        let chaos = cfg.chaos.as_ref().map(ChaosPlane::new);
        Kernel {
            id,
            cfg,
            sched,
            device,
            inflight: Vec::new(),
            req_meta: FastMap::default(),
            req_ids: IdAlloc::new(),
            fs,
            cache,
            procs: FastMap::default(),
            attrs: FastMap::default(),
            pid_alloc: 10,
            cpu: CpuModel::new(cores),
            dirty_waiters: VecDeque::new(),
            wb_inflight_pages: 0,
            wb_active: false,
            dispatching: false,
            journal_pid,
            writeback_pid,
            stats: KernelStats::default(),
            tracer,
            fault_plane: None,
            audit: None,
            chaos,
            prof: prof::thread_profiler(),
            read_miss_scratch: Vec::new(),
            extent_scratch: Vec::new(),
            pending_io_pool: Vec::new(),
            sched_cmd_pool: Vec::new(),
        }
    }

    // ---- public API used by World and experiments -------------------------

    /// Spawn a workload process; its first step fires immediately.
    pub(crate) fn spawn(&mut self, logic: Box<dyn ProcessLogic>, bus: &mut Bus) -> Pid {
        let pid = self.alloc_pid();
        self.procs.insert(
            pid,
            Proc {
                logic: Some(logic),
                state: PState::Fresh,
                cur: None,
                last: Outcome::None,
                inject_target: None,
            },
        );
        bus.q
            .schedule(bus.q.now(), Event::ProcStep { k: self.id, pid });
        pid
    }

    /// Create a process with no logic of its own; syscalls are injected
    /// into it (VMM host process, HDFS datanode handlers).
    pub(crate) fn spawn_external(&mut self) -> Pid {
        let pid = self.alloc_pid();
        self.procs.insert(
            pid,
            Proc {
                logic: None,
                state: PState::ExternalIdle,
                cur: None,
                last: Outcome::None,
                inject_target: None,
            },
        );
        pid
    }

    fn alloc_pid(&mut self) -> Pid {
        let pid = Pid(self.pid_alloc);
        self.pid_alloc += 1;
        pid
    }

    /// Set a process's I/O priority (the `ionice` analogue). Forwarded to
    /// the scheduler as well.
    ///
    /// # Panics
    ///
    /// Rejects priorities with a zero service weight here, at configure
    /// time, so the elevators can rely on `weight >= 1` instead of
    /// clamping deep inside their slice arithmetic.
    pub(crate) fn set_ioprio(&mut self, pid: Pid, prio: IoPrio, bus: &mut Bus) {
        assert!(prio.weight() > 0, "I/O priority weight must be positive");
        self.attrs.entry(pid).or_default().ioprio = prio;
        self.sched_configure(pid, SchedAttr::Prio(prio), bus);
    }

    /// Forward an attribute straight to the scheduler, then run its
    /// maintenance in the same context: configuration may unblock things
    /// (e.g. a raised token rate).
    pub(crate) fn sched_configure(&mut self, pid: Pid, attr: SchedAttr, bus: &mut Bus) {
        self.with_sched(bus, |s, ctx| {
            s.on(Hook::Configure { pid, attr }, ctx);
            s.on(Hook::Timer, ctx);
        });
        self.try_dispatch(bus);
    }

    /// Create a preallocated file (fixture).
    pub(crate) fn prealloc_file(&mut self, bytes: u64, contiguous: bool) -> FileId {
        self.fs.prealloc_file(bytes, contiguous)
    }

    /// Track a throughput time series for `pid`'s completed reads.
    pub fn track_read_ts(&mut self, pid: Pid, bucket: SimDuration) {
        self.stats.read_ts.insert(pid, TimeSeries::new(bucket));
    }

    /// The page cache (assertions and experiment setup).
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// Mutable page-cache access (dirty-ratio sweeps).
    pub fn cache_mut(&mut self) -> &mut PageCache {
        &mut self.cache
    }

    /// The file system.
    pub fn fs(&self) -> &JournaledFs {
        &self.fs
    }

    /// The scheduler.
    pub fn sched(&self) -> &dyn IoSched {
        self.sched.as_ref()
    }

    /// Turn on span + metrics tracing for this kernel's entire stack
    /// (syscall gate, cache, fs journal, block queue, device service).
    /// Export with [`Kernel::tracer`] (`chrome_json`, `spans_csv`, ...).
    pub(crate) fn enable_tracing(&mut self) {
        if !self.tracer.enabled() {
            self.tracer.set_enabled(true);
            self.subscribe(Box::new(SpanProbe::new(self.tracer.clone())));
        }
    }

    /// The tracing handle shared by every layer of this kernel.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Record every dispatched request into an in-memory trace
    /// (capacity-bounded, oldest kept); retrieve it with
    /// [`Kernel::trace_records`].
    pub fn enable_trace(&mut self, capacity: usize) {
        let table = RequestTrace::with_capacity(capacity);
        if !self.tracer.install_block_trace(table) {
            self.subscribe(Box::new(BlockTraceProbe::new(self.tracer.clone())));
        }
    }

    /// Snapshot of the recorded block dispatches, if tracing was enabled.
    pub fn trace_records(&self) -> Option<Vec<sim_trace::TraceRecord>> {
        self.tracer
            .with_block_trace(|t| t.iter().cloned().collect())
    }

    /// Install a device fault plan. Only physical devices are affected;
    /// requests on a virtual (host-backed) disk fail through the host's
    /// own plane instead.
    pub fn install_fault_plane(&mut self, plane: DeviceFaultPlane) {
        self.fault_plane = Some(plane);
    }

    /// Install an auditor plane. Its auditors join whatever already
    /// subscribes to the kernel's events (tracing, an earlier plane) and
    /// run after them, in registration order.
    pub fn install_audit_plane(&mut self, plane: AuditPlane) {
        match self.audit.as_mut() {
            Some(installed) => installed.merge(plane),
            None => self.audit = Some(plane),
        }
    }

    fn subscribe(&mut self, subscriber: Box<dyn Auditor>) {
        self.install_audit_plane(AuditPlane::new(vec![subscriber]));
    }

    /// The installed auditor plane, if any (inspect its violations).
    pub fn audit_plane(&self) -> Option<&AuditPlane> {
        self.audit.as_ref()
    }

    /// Whether the block layer is fully drained: nothing queued in the
    /// scheduler and nothing on the device. The check harness requires
    /// this before declaring quiescence.
    pub fn block_idle(&self) -> bool {
        self.inflight.iter().all(Option::is_none) && self.sched.queued() == 0
    }

    /// Run the auditors' final checkpoint with the quiescence flag set;
    /// call once after the event queue drains.
    pub(crate) fn audit_quiesce(&mut self, bus: &Bus) {
        self.audit_checkpoint(bus, true);
    }

    /// Snapshot cross-layer counters for the plane's checkpoint auditors.
    fn audit_checkpoint(&mut self, bus: &Bus, quiesced: bool) {
        let Some(plane) = self.audit.as_mut().filter(|p| p.wants_checkpoints()) else {
            return;
        };
        let sched_errors = self.sched.audit(quiesced);
        let cp = AuditCheckpoint {
            now: bus.q.now(),
            cache_dirty_total: self.cache.dirty_total(),
            cache_dirty_sum: self.cache.dirty_check_sum(),
            sched_errors: &sched_errors,
            late_events: bus.q.late_schedules(),
            quiesced,
        };
        plane.checkpoint(&cp);
    }

    /// The writeback daemon's pid.
    pub fn writeback_pid(&self) -> Pid {
        self.writeback_pid
    }

    /// The journal task's pid.
    pub fn journal_pid(&self) -> Pid {
        self.journal_pid
    }

    /// Arm the kernel's periodic timers; called once by the world.
    pub(crate) fn start_timers(&mut self, bus: &mut Bus) {
        let now = bus.q.now();
        let fs_at = self.next_fs_timer(now);
        bus.q.schedule(fs_at, Event::FsTimer { k: self.id });
        let wb = self.next_wb_tick();
        bus.q
            .schedule(now + wb, Event::WritebackTick { k: self.id });
    }

    /// When the journal timer fires next, chaos jitter applied. The
    /// perturbed instant is always strictly after `now`.
    fn next_fs_timer(&mut self, now: SimTime) -> SimTime {
        let at = self.fs.next_timer(now);
        match self.chaos.as_mut() {
            Some(c) => now + c.journal_tick(at.since(now)),
            None => at,
        }
    }

    /// The writeback daemon's next poll interval, chaos jitter applied.
    /// [`WB_TICK`] without chaos.
    fn next_wb_tick(&mut self) -> SimDuration {
        match self.chaos.as_mut() {
            Some(c) => c.wb_tick(WB_TICK),
            None => WB_TICK,
        }
    }

    /// Extra chaos wakeup delay for one CPU slice (zero without chaos):
    /// the analogue of scx_chaos stretching scheduling latency.
    fn chaos_cpu_delay(&mut self) -> SimDuration {
        match self.chaos.as_mut() {
            Some(c) => c.cpu_delay(),
            None => SimDuration::ZERO,
        }
    }

    /// Begin an injected syscall on an external process.
    pub(crate) fn inject(
        &mut self,
        pid: Pid,
        kind: SyscallKind,
        target: InjectTarget,
        bus: &mut Bus,
    ) {
        {
            let proc = self.procs.get_mut(&pid).expect("external proc exists");
            debug_assert_eq!(proc.state, PState::ExternalIdle, "one syscall at a time");
            proc.inject_target = Some(target);
        }
        self.begin_syscall(pid, kind, bus);
    }

    // ---- event handling ---------------------------------------------------

    /// Route one event.
    pub(crate) fn handle(&mut self, ev: Event, bus: &mut Bus) {
        match ev {
            Event::ProcStep { pid, .. } => self.proc_step(pid, bus),
            Event::DeviceDone { req, .. } => self.device_done(req, bus),
            Event::DispatchRetry { .. } => self.try_dispatch(bus),
            Event::SchedTimer { .. } => {
                self.with_sched(bus, |s, ctx| s.on(Hook::Timer, ctx));
                self.try_dispatch(bus);
            }
            Event::FsTimer { .. } => {
                let now = bus.q.now();
                let t0 = prof::tick(&self.prof);
                let out = self.fs.timer(&mut self.cache, now);
                prof::tock(&self.prof, Phase::Journal, t0);
                self.absorb(out, bus);
                let at = self.next_fs_timer(now);
                bus.q.schedule(at, Event::FsTimer { k: self.id });
            }
            Event::WritebackTick { .. } => {
                if self.cfg.pdflush && self.cache.over_background() {
                    self.kick_writeback(bus);
                }
                let tick = self.next_wb_tick();
                bus.q
                    .schedule(bus.q.now() + tick, Event::WritebackTick { k: self.id });
            }
            Event::AppTimer { .. } => unreachable!("app timers are handled by the world"),
        }
    }

    // ---- process scheduling -----------------------------------------------

    fn proc_step(&mut self, pid: Pid, bus: &mut Bus) {
        let state = match self.procs.get(&pid) {
            Some(p) => p.state,
            None => return,
        };
        match state {
            PState::Computing | PState::PostCpu => self.cpu.task_blocked(),
            PState::Fresh | PState::Sleeping => {}
            // A stale step for a process that moved into a wait.
            _ => return,
        }
        let (action, last) = {
            let proc = self.procs.get_mut(&pid).expect("checked");
            let last = std::mem::replace(&mut proc.last, Outcome::None);
            let Some(logic) = proc.logic.as_mut() else {
                proc.state = PState::ExternalIdle;
                return;
            };
            (logic.next(bus.q.now(), &last), last)
        };
        let _ = last;
        match action {
            ProcAction::Exit => {
                self.procs.get_mut(&pid).expect("checked").state = PState::Exited;
            }
            ProcAction::Compute(d) => {
                self.cpu.task_runnable();
                let stretched = self.cpu.stretch(d) + self.chaos_cpu_delay();
                self.procs.get_mut(&pid).expect("checked").state = PState::Computing;
                bus.q
                    .schedule(bus.q.now() + stretched, Event::ProcStep { k: self.id, pid });
            }
            ProcAction::Sleep(d) => {
                self.procs.get_mut(&pid).expect("checked").state = PState::Sleeping;
                bus.q
                    .schedule(bus.q.now() + d, Event::ProcStep { k: self.id, pid });
            }
            ProcAction::Syscall(kind) => self.begin_syscall(pid, kind, bus),
        }
    }

    fn ioprio_of(&self, pid: Pid) -> IoPrio {
        self.attrs.get(&pid).map(|a| a.ioprio).unwrap_or_default()
    }

    fn begin_syscall(&mut self, pid: Pid, kind: SyscallKind, bus: &mut Bus) {
        let now = bus.q.now();
        emit(&mut self.audit, now, || AuditEvent::SyscallEnter {
            pid,
            kind: &kind,
        });
        let gated = kind.is_write_like() || self.cfg.gate_reads;
        let proc = self.procs.get_mut(&pid).expect("proc exists");
        proc.cur = Some(CurSyscall {
            kind,
            entered: now,
            gate_since: None,
            gated,
            pending_io: self.pending_io_pool.pop().unwrap_or_default(),
            error: None,
        });
        if gated {
            let info = SyscallInfo {
                pid,
                kind,
                ioprio: self.ioprio_of(pid),
                cached: None,
            };
            // Park the caller BEFORE applying the hook's commands: a
            // scheduler may `wake(pid)` from inside `syscall_enter`
            // (hold-then-release-immediately patterns), and that wake must
            // find the task already parked.
            let (gate, cmds) = {
                let buf = self.sched_cmd_pool.pop().unwrap_or_default();
                let mut ctx = self.device.sched_ctx(now, &self.tracer, buf);
                let mut gate = Gate::Proceed;
                let hook = Hook::SyscallEnter {
                    sc: &info,
                    gate: &mut gate,
                };
                self.sched.on(hook, &mut ctx);
                (gate, ctx.drain())
            };
            if gate == Gate::Hold {
                let proc = self.procs.get_mut(&pid).expect("proc exists");
                proc.state = PState::GateWait;
                proc.cur.as_mut().expect("just set").gate_since = Some(now);
                emit(&mut self.audit, now, || AuditEvent::GateHeld { pid });
                self.apply_cmds(cmds, bus);
                self.try_dispatch(bus);
                return;
            }
            self.apply_cmds(cmds, bus);
        }
        self.syscall_body(pid, bus);
    }

    fn syscall_body(&mut self, pid: Pid, bus: &mut Bus) {
        let now = bus.q.now();
        let kind = self.procs[&pid].cur.as_ref().expect("in syscall").kind;
        match kind {
            SyscallKind::Write { file, offset, len } => {
                let pages = page_span(offset, len);
                if pages.is_empty() {
                    // Nothing to copy: no throttling, dirtying, journal
                    // join or writeback.
                    let cpu = SYSCALL_BASE;
                    self.complete_syscall(pid, Outcome::Written { bytes: 0 }, cpu, bus);
                    return;
                }
                // Dirty throttling: Linux blocks writers over dirty_ratio.
                if self.effective_dirty() >= self.cache.config().dirty_limit_pages() {
                    self.procs.get_mut(&pid).expect("exists").state = PState::DirtyWait;
                    self.dirty_waiters.push_back(pid);
                    emit(&mut self.audit, now, || AuditEvent::DirtyThrottled { pid });
                    self.kick_writeback(bus);
                    return;
                }
                let causes = CauseSet::of(pid);
                let mut page = pages.start;
                while page < pages.end {
                    page = self.dirty_run(file, page..pages.end, &causes, bus);
                }
                self.fs.note_write(file, &causes, offset, len, now);
                if self.cfg.pdflush && self.cache.over_background() {
                    self.kick_writeback(bus);
                }
                let npages = pages.end - pages.start;
                let cpu = copy_cost(npages);
                self.complete_syscall(pid, Outcome::Written { bytes: len }, cpu, bus);
            }
            SyscallKind::Read { file, offset, len } => {
                let pages = page_span(offset, len);
                let npages = pages.end - pages.start;
                let mut misses = std::mem::take(&mut self.read_miss_scratch);
                let t0 = prof::tick(&self.prof);
                self.cache
                    .read_misses_into(file, pages.start, npages, &mut misses);
                prof::tock(&self.prof, Phase::Cache, t0);
                let cpu = copy_cost(npages);
                if misses.is_empty() {
                    self.read_miss_scratch = misses;
                    self.complete_syscall(
                        pid,
                        Outcome::Read {
                            bytes: len,
                            all_cached: true,
                        },
                        cpu,
                        bus,
                    );
                    return;
                }
                let mut issued = false;
                let mut extents = std::mem::take(&mut self.extent_scratch);
                for &(page, plen) in &misses {
                    self.fs.blocks_for_read_into(file, page, plen, &mut extents);
                    for e in &extents {
                        let id = RequestId(self.req_ids.next());
                        let req = Request {
                            id,
                            dir: sim_device::IoDir::Read,
                            start: e.start,
                            nblocks: e.len,
                            submitter: pid,
                            causes: CauseSet::of(pid),
                            sync: true,
                            ioprio: self.ioprio_of(pid),
                            deadline: None,
                            submitted_at: now,
                            file: Some(file),
                            kind: ReqKind::Data,
                        };
                        self.req_meta.insert(
                            id,
                            ReqMeta {
                                reader: Some(pid),
                                fill: Some((file, e.page, e.len)),
                                ..Default::default()
                            },
                        );
                        self.procs
                            .get_mut(&pid)
                            .expect("exists")
                            .cur
                            .as_mut()
                            .expect("in syscall")
                            .pending_io
                            .insert(id);
                        issued = true;
                        self.add_request(req, &WriteStep::Untracked, bus);
                    }
                }
                self.read_miss_scratch = misses;
                self.extent_scratch = extents;
                if issued {
                    self.procs.get_mut(&pid).expect("exists").state = PState::IoWait;
                    self.try_dispatch(bus);
                } else {
                    // Sparse holes: zero-fill, no I/O.
                    self.complete_syscall(
                        pid,
                        Outcome::Read {
                            bytes: len,
                            all_cached: true,
                        },
                        cpu,
                        bus,
                    );
                }
            }
            SyscallKind::Fsync { file } => {
                let t0 = prof::tick(&self.prof);
                let out = self.fs.fsync(file, pid, &mut self.cache, now);
                prof::tock(&self.prof, Phase::Journal, t0);
                self.procs.get_mut(&pid).expect("exists").state = PState::IoWait;
                self.absorb(out, bus);
            }
            SyscallKind::Create => {
                let (fid, out) = self.fs.create_file(pid, now);
                self.absorb(out, bus);
                self.complete_syscall(pid, Outcome::Created(fid), SYSCALL_BASE, bus);
            }
            SyscallKind::Mkdir => {
                let out = self.fs.mkdir(pid, now);
                self.absorb(out, bus);
                self.complete_syscall(pid, Outcome::MetaDone, SYSCALL_BASE, bus);
            }
            SyscallKind::Unlink { file } => {
                let out = self.fs.unlink(file, pid, &mut self.cache, now);
                self.absorb(out, bus);
                self.complete_syscall(pid, Outcome::MetaDone, SYSCALL_BASE, bus);
            }
        }
    }

    /// Dirty a write's `pages` of `file` as one run of stretches. Each
    /// stretch is the longest run of pages inside one extent (or hole)
    /// whose buffer-dirty events are identical — all fresh, or all
    /// overwrites of one dirty span: the cache classifies it with one
    /// lookup, the scheduler gets it as one dirty message, and the
    /// pages the scheduler took are committed as one range update. The
    /// hook context, the dirty-file and clean-slot lookups and the extent
    /// walk are paid once per run. The run ends early after the first
    /// page whose hook queues a command; the command is applied before the
    /// next page is dirtied, and the next run re-reads the cache, extents
    /// and device that the command may have changed. Returns the first
    /// page not yet dirtied.
    fn dirty_run(
        &mut self,
        file: FileId,
        pages: std::ops::Range<u64>,
        causes: &CauseSet,
        bus: &mut Bus,
    ) -> u64 {
        let now = bus.q.now();
        let mut extents = std::mem::take(&mut self.extent_scratch);
        self.fs
            .blocks_for_read_into(file, pages.start, pages.end - pages.start, &mut extents);
        let mut extents_left = extents.iter().peekable();
        let buf = self.sched_cmd_pool.pop().unwrap_or_default();
        let mut ctx = self.device.sched_ctx(now, &self.tracer, buf);
        let mut run = self.cache.dirty_run(file, causes, now);
        let mut page = pages.start;
        while page < pages.end {
            while extents_left.next_if(|e| e.page + e.len <= page).is_some() {}
            // The extent holding `page`, or the hole up to the next one.
            let (block, seam) = match extents_left.peek() {
                Some(e) if e.page <= page => (
                    Some(BlockNo(e.start.raw() + (page - e.page))),
                    e.page + e.len,
                ),
                Some(e) => (None, e.page),
                None => (None, pages.end),
            };
            let t0 = prof::tick(&self.prof);
            let (len, ev) = run.stretch(page, seam.min(pages.end) - page);
            prof::tock(&self.prof, Phase::Cache, t0);
            let ev = BufferDirtied {
                file,
                page,
                len,
                causes,
                prev: ev.prev,
                block,
                new_bytes: ev.new_bytes,
            };
            let mut taken = len;
            let t0 = prof::tick(&self.prof);
            self.sched.on(
                Hook::BufferDirtied {
                    ev,
                    taken: &mut taken,
                },
                &mut ctx,
            );
            prof::tock(&self.prof, Phase::Sched, t0);
            // A reply of 0 would never advance and one past `len` would
            // commit pages the stretch did not classify: checked in release
            // too, since any `IoSched` may answer.
            assert!(
                (1..=len).contains(&taken),
                "a scheduler took {taken} of {len} pages"
            );
            let t0 = prof::tick(&self.prof);
            run.commit(taken);
            prof::tock(&self.prof, Phase::Cache, t0);
            page += taken;
            if ctx.has_commands() {
                break;
            }
        }
        let t0 = prof::tick(&self.prof);
        run.finish();
        prof::tock(&self.prof, Phase::Cache, t0);
        let cmds = ctx.drain();
        drop(ctx);
        self.extent_scratch = extents;
        self.apply_cmds(cmds, bus);
        page
    }

    fn complete_syscall(&mut self, pid: Pid, outcome: Outcome, cpu: SimDuration, bus: &mut Bus) {
        let now = bus.q.now();
        let (kind, entered, gate_since, gated) = {
            let proc = self.procs.get_mut(&pid).expect("proc exists");
            let cur = proc.cur.take().expect("syscall in flight");
            let mut pio = cur.pending_io;
            pio.clear();
            self.pending_io_pool.push(pio);
            (cur.kind, cur.entered, cur.gate_since, cur.gated)
        };
        emit(&mut self.audit, now, || AuditEvent::SyscallExit {
            pid,
            kind: &kind,
            entered,
        });
        // Scheduler bookkeeping runs on every gated call (SCS pays it on
        // reads too; split schedulers only on write-like calls).
        let cpu = if gated { cpu + SCHED_BOOKKEEPING } else { cpu };
        // Stats.
        {
            let st = self.stats.proc_mut(pid);
            match outcome {
                Outcome::Read { bytes, .. } => {
                    st.reads += 1;
                    st.read_bytes += bytes;
                }
                Outcome::Written { bytes } => {
                    st.writes += 1;
                    st.write_bytes += bytes;
                }
                Outcome::Synced => st.fsyncs.push((now, now.since(entered))),
                Outcome::Created(_) | Outcome::MetaDone => st.meta_ops.push(now),
                Outcome::Failed(_) => st.io_errors += 1,
                Outcome::None => {}
            }
            if let Some(g) = gate_since {
                st.gated_time += now.since(g);
            }
        }
        if let Outcome::Read { bytes, .. } = outcome {
            if let Some(ts) = self.stats.read_ts.get_mut(&pid) {
                ts.record(now, bytes);
            }
        }
        // Exit hook.
        let cached = match outcome {
            Outcome::Read { all_cached, .. } => Some(all_cached),
            _ => None,
        };
        let info = SyscallInfo {
            pid,
            kind,
            ioprio: self.ioprio_of(pid),
            cached,
        };
        self.with_sched(bus, |s, ctx| s.on(Hook::SyscallExit(&info), ctx));
        self.audit_checkpoint(bus, false);

        let proc = self.procs.get_mut(&pid).expect("proc exists");
        proc.last = outcome;
        if let Some(target) = proc.inject_target.take() {
            proc.state = PState::ExternalIdle;
            match target {
                InjectTarget::GuestVirtio { guest, req } => {
                    bus.cross.push(CrossAction::VirtioDone { guest, req });
                }
                InjectTarget::App { token } => {
                    bus.app_events.push(AppEvent::InjectedDone { token, now });
                }
            }
        } else {
            proc.state = PState::PostCpu;
            self.cpu.task_runnable();
            let stretched = self.cpu.stretch(cpu) + self.chaos_cpu_delay();
            bus.q
                .schedule(now + stretched, Event::ProcStep { k: self.id, pid });
        }
    }

    // ---- block layer ------------------------------------------------------

    fn add_request(&mut self, req: Request, step: &WriteStep, bus: &mut Bus) {
        emit(&mut self.audit, bus.q.now(), || {
            AuditEvent::BlockSubmitted {
                req: &req,
                step,
                sched_queued: self.sched.queued(),
            }
        });
        if req.ioprio.class == PrioClass::BestEffort {
            self.stats.req_prio_hist[req.ioprio.level.min(7) as usize] += 1;
        }
        self.with_sched(bus, |s, ctx| s.on(Hook::BlockAdd(req), ctx));
    }

    fn try_dispatch(&mut self, bus: &mut Bus) {
        if self.dispatching {
            return;
        }
        self.dispatching = true;
        loop {
            if !self.device_can_accept() {
                break;
            }
            let mut d = Dispatch::Idle;
            self.with_sched(bus, |s, ctx| s.on(Hook::BlockDispatch(&mut d), ctx));
            match d {
                Dispatch::Issue(req) => self.issue(req, bus),
                Dispatch::WaitUntil(t) => {
                    // Never re-poll at the same instant: a scheduler that
                    // answers `WaitUntil(now)` must still make time pass.
                    let at = t.max(bus.q.now() + SimDuration::from_micros(1));
                    bus.q.schedule(at, Event::DispatchRetry { k: self.id });
                    break;
                }
                Dispatch::Idle => break,
            }
        }
        self.dispatching = false;
    }

    /// Room for another request below the elevator? A physical disk
    /// admits one per free hardware tag, so the device always takes what
    /// the elevator dispatches; a virtual disk holds one.
    fn device_can_accept(&self) -> bool {
        match &self.device {
            ActiveDevice::Physical { dev, .. } => dev.can_accept(),
            ActiveDevice::Virtual { .. } => self.inflight.iter().all(Option::is_none),
        }
    }

    /// One request leaves the elevator for the device.
    fn issue(&mut self, req: Request, bus: &mut Bus) {
        let now = bus.q.now();
        self.stats.requests_dispatched += 1;
        self.stats.device_bytes = self.stats.device_bytes.saturating_add(req.bytes());
        emit(&mut self.audit, now, || AuditEvent::BlockDispatched {
            req: &req,
        });
        let (dev, mq) = match &mut self.device {
            ActiveDevice::Physical { dev, mq } => (dev, mq),
            ActiveDevice::Virtual {
                host,
                host_file,
                host_pid,
                ..
            } => {
                let (file, offset, len) = (
                    *host_file,
                    req.start.raw().saturating_mul(PAGE_SIZE),
                    req.bytes(),
                );
                bus.cross.push(CrossAction::InjectSyscall {
                    kernel: *host,
                    pid: *host_pid,
                    kind: match req.dir {
                        sim_device::IoDir::Read => SyscallKind::Read { file, offset, len },
                        sim_device::IoDir::Write => SyscallKind::Write { file, offset, len },
                    },
                    target: InjectTarget::GuestVirtio {
                        guest: self.id,
                        req: req.id,
                    },
                });
                emit(&mut self.audit, now, || AuditEvent::SlotAcquired {
                    req: &req,
                    slot: 0,
                    in_flight: 1,
                    depth: 1,
                });
                park(&mut self.inflight, 0, req);
                return;
            }
        };
        // The fault plane rolls at dispatch, once per request; a virtual
        // disk's requests fail through the host's own plane instead.
        let fault = self
            .fault_plane
            .as_mut()
            .and_then(|plane| plane.on_request(&req.shape()));
        let (spike, failed) = match fault {
            Some(Fault::Spike { factor }) => (Some(factor), None),
            Some(Fault::Transient) => (None, Some(IoErrorKind::TransientDevice)),
            Some(Fault::Torn { .. }) => (None, Some(IoErrorKind::TornWrite)),
            None => (None, None),
        };
        if let Some(kind) = failed {
            self.req_meta.entry(req.id).or_default().failed =
                Some(IoError::for_request(kind, req.id));
        }
        // Admission saw a free tag, so the device takes the request now.
        let t0 = prof::tick(&self.prof);
        let depth = dev.depth();
        let in_flight = dev.in_flight() as u32 + 1;
        let (slot, started) = dev.accept(req.id, req.shape(), spike);
        mq.note_accepted(req.submitter);
        emit(&mut self.audit, now, || AuditEvent::SlotAcquired {
            req: &req,
            slot,
            in_flight,
            depth,
        });
        park(&mut self.inflight, slot, req);
        start_service(started, &mut self.inflight, self.id, now, bus);
        prof::tock(&self.prof, Phase::MqPump, t0);
        if let Some(p) = &self.prof {
            p.sample_mq(in_flight as usize);
        }
    }

    /// A request left the device — a physical one's `DeviceDone` fired, or
    /// the host finished the syscall backing a virtual disk's request:
    /// free its slot, start the request the physical device moved into
    /// service behind it, if any, and run the completion path.
    pub(crate) fn device_done(&mut self, req_id: RequestId, bus: &mut Bus) {
        let now = bus.q.now();
        let (slot, in_flight, depth) = match &mut self.device {
            ActiveDevice::Physical { dev, .. } => {
                let (slot, started) = dev.complete(req_id);
                start_service(started, &mut self.inflight, self.id, now, bus);
                (slot, dev.in_flight() as u32, dev.depth())
            }
            ActiveDevice::Virtual { .. } => (0, 0, 1),
        };
        let (req, service) = self.inflight[slot as usize]
            .take()
            .expect("a completed request was in flight");
        debug_assert_eq!(req.id, req_id);
        if let ActiveDevice::Physical { mq, .. } = &mut self.device {
            mq.note_done(req.submitter);
        }
        emit(&mut self.audit, now, || AuditEvent::SlotReleased {
            req: &req,
            slot,
            in_flight,
            depth,
        });
        self.finish_request(req, service, bus);
    }

    fn finish_request(&mut self, req: Request, service: SimDuration, bus: &mut Bus) {
        let now = bus.q.now();
        // Charge disk time to the causes (fair-share accounting).
        if service > SimDuration::ZERO {
            let secs = service.as_secs_f64();
            let causes = if req.causes.is_empty() {
                CauseSet::of(req.submitter)
            } else {
                req.causes.clone()
            };
            for (pid, share) in causes.shares(secs) {
                let total = self.stats.disk_time.entry(pid).or_insert(0.0);
                *total += share;
                let total_s = *total;
                emit(&mut self.audit, now, || AuditEvent::DiskCharged {
                    pid,
                    total_s,
                });
            }
        }
        let failed = self.req_meta.get(&req.id).and_then(|m| m.failed);
        // Report the completion BEFORE the scheduler and fs hooks run, so a
        // TxnCommitted generated by absorbing this request's fs token is
        // observed after its commit record finished.
        emit(&mut self.audit, now, || AuditEvent::BlockFinished {
            req: &req,
            failed: failed.is_some(),
            service,
            sched_queued: self.sched.queued(),
        });
        let hook = match failed {
            Some(error) => {
                self.stats.io_errors += 1;
                Hook::BlockFailed { req: &req, error }
            }
            None => Hook::BlockCompleted(&req),
        };
        self.with_sched(bus, |s, ctx| s.on(hook, ctx));
        if let Some(meta) = self.req_meta.remove(&req.id) {
            if meta.dirty_pages > 0 {
                self.wb_inflight_pages = self.wb_inflight_pages.saturating_sub(meta.dirty_pages);
            }
            if let Some(tok) = meta.fs_token {
                let now = bus.q.now();
                let out = match failed {
                    Some(err) => self.fs.io_failed(tok, err, &mut self.cache, now),
                    None => self.fs.io_completed(tok, &mut self.cache, now),
                };
                self.absorb(out, bus);
            }
            if let Some((file, page, len)) = meta.fill {
                // A failed read fills nothing; the reader gets the error.
                if failed.is_none() {
                    self.cache.fill(file, page, len);
                }
            }
            if let Some(pid) = meta.reader {
                let done = {
                    let proc = self.procs.get_mut(&pid).expect("reader exists");
                    if let Some(cur) = proc.cur.as_mut() {
                        if let Some(err) = failed {
                            cur.error.get_or_insert(err);
                        }
                        cur.pending_io.remove(&req.id);
                        cur.pending_io.is_empty()
                    } else {
                        false
                    }
                };
                if done {
                    let (len, cpu, error) = {
                        let cur = self.procs[&pid].cur.as_ref().expect("in syscall");
                        let len = match cur.kind {
                            SyscallKind::Read { len, .. } => len,
                            _ => 0,
                        };
                        let pages = sim_core::pages_for_bytes(len);
                        (len, copy_cost(pages), cur.error)
                    };
                    let outcome = match error {
                        Some(e) => Outcome::Failed(e),
                        None => Outcome::Read {
                            bytes: len,
                            all_cached: false,
                        },
                    };
                    self.complete_syscall(pid, outcome, cpu, bus);
                }
            }
        }
        self.wake_dirty_waiters(bus);
        self.cache.sample_tagmem();
        self.audit_checkpoint(bus, false);
        self.try_dispatch(bus);
    }

    // ---- writeback & dirty throttling --------------------------------------

    fn effective_dirty(&self) -> u64 {
        self.cache.dirty_total() + self.wb_inflight_pages
    }

    fn kick_writeback(&mut self, bus: &mut Bus) {
        if self.wb_active {
            return;
        }
        self.wb_active = true;
        let now = bus.q.now();
        let t0 = prof::tick(&self.prof);
        let out = self.fs.writeback(
            None,
            WB_BATCH_PAGES,
            self.writeback_pid,
            &mut self.cache,
            now,
        );
        prof::tock(&self.prof, Phase::Writeback, t0);
        self.absorb(out, bus);
    }

    /// Explicit writeback trigger (scheduler `StartWriteback` command).
    fn scheduled_writeback(&mut self, file: Option<FileId>, max_pages: u64, bus: &mut Bus) {
        let now = bus.q.now();
        let t0 = prof::tick(&self.prof);
        let out = self
            .fs
            .writeback(file, max_pages, self.writeback_pid, &mut self.cache, now);
        prof::tock(&self.prof, Phase::Writeback, t0);
        self.absorb(out, bus);
    }

    fn wake_dirty_waiters(&mut self, bus: &mut Bus) {
        while !self.dirty_waiters.is_empty()
            && self.effective_dirty() < self.cache.config().dirty_limit_pages()
        {
            // The scheduler chooses the admission order (default: FIFO).
            let mut pick = 0;
            let t0 = prof::tick(&self.prof);
            let buf = self.sched_cmd_pool.pop().unwrap_or_default();
            let mut ctx = self.device.sched_ctx(bus.q.now(), &self.tracer, buf);
            let waiters = self.dirty_waiters.make_contiguous();
            let len = waiters.len();
            let hook = Hook::PickDirtyWaiter {
                waiters,
                pick: &mut pick,
            };
            self.sched.on(hook, &mut ctx);
            let cmds = ctx.drain();
            drop(ctx);
            prof::tock(&self.prof, Phase::Sched, t0);
            // Past the last waiter there is nobody to admit: checked in
            // release too, since any `IoSched` may answer.
            assert!(
                pick < len,
                "a scheduler picked dirty waiter {pick} of {len}"
            );
            let pid = self.dirty_waiters.remove(pick).expect("checked index");
            self.apply_cmds(cmds, bus);
            if self
                .procs
                .get(&pid)
                .map(|p| p.state == PState::DirtyWait)
                .unwrap_or(false)
            {
                self.procs.get_mut(&pid).expect("exists").state = PState::IoWait;
                emit(&mut self.audit, bus.q.now(), || AuditEvent::WaitEnded {
                    pid,
                });
                self.syscall_body(pid, bus);
            }
        }
    }

    // ---- scheduler plumbing -------------------------------------------------

    /// Send the scheduler messages through `f` in one fresh context, then
    /// apply the commands they queued.
    fn with_sched(&mut self, bus: &mut Bus, f: impl FnOnce(&mut dyn IoSched, &mut SchedCtx<'_>)) {
        let now = bus.q.now();
        let t0 = prof::tick(&self.prof);
        let cmds = {
            let buf = self.sched_cmd_pool.pop().unwrap_or_default();
            let mut ctx = self.device.sched_ctx(now, &self.tracer, buf);
            f(self.sched.as_mut(), &mut ctx);
            ctx.drain()
        };
        prof::tock(&self.prof, Phase::Sched, t0);
        self.apply_cmds(cmds, bus);
    }

    fn apply_cmds(&mut self, mut cmds: Vec<SchedCmd>, bus: &mut Bus) {
        for cmd in cmds.drain(..) {
            match cmd {
                SchedCmd::Wake(pid) => self.gate_wake(pid, bus),
                SchedCmd::Timer(at) => {
                    bus.q
                        .schedule(at.max(bus.q.now()), Event::SchedTimer { k: self.id });
                }
                SchedCmd::StartWriteback { file, max_pages } => {
                    self.scheduled_writeback(file, max_pages, bus);
                }
                SchedCmd::KickDispatch => self.try_dispatch(bus),
            }
        }
        self.sched_cmd_pool.push(cmds);
    }

    fn gate_wake(&mut self, pid: Pid, bus: &mut Bus) {
        let ok = self
            .procs
            .get(&pid)
            .map(|p| p.state == PState::GateWait)
            .unwrap_or(false);
        if !ok {
            return;
        }
        self.procs.get_mut(&pid).expect("exists").state = PState::IoWait;
        emit(&mut self.audit, bus.q.now(), || AuditEvent::WaitEnded {
            pid,
        });
        self.syscall_body(pid, bus);
    }

    fn absorb(&mut self, out: FsOutput, bus: &mut Bus) {
        let now = bus.q.now();
        for (file, range) in out.freed {
            let bf = BufferFreed {
                file,
                page: range.start_page,
                causes: range.causes.clone(),
                bytes: range.bytes(),
            };
            self.with_sched(bus, |s, ctx| s.on(Hook::BufferFreed(&bf), ctx));
        }
        for mut io in out.ios {
            let step = std::mem::take(&mut io.step);
            let id = RequestId(self.req_ids.next());
            let attrs = self.attrs.get(&io.submitter).copied().unwrap_or_default();
            let dirty_pages = if io.kind == ReqKind::Data && io.dir == sim_device::IoDir::Write {
                io.nblocks
            } else {
                0
            };
            self.wb_inflight_pages += dirty_pages;
            self.req_meta.insert(
                id,
                ReqMeta {
                    fs_token: Some(io.token),
                    dirty_pages,
                    ..Default::default()
                },
            );
            let req = Request {
                id,
                dir: io.dir,
                start: io.start,
                nblocks: io.nblocks,
                submitter: io.submitter,
                causes: io.causes,
                sync: io.sync,
                ioprio: attrs.ioprio,
                deadline: None,
                submitted_at: now,
                file: io.file,
                kind: io.kind,
            };
            self.add_request(req, &step, bus);
        }
        for ev in out.events {
            let (waiter, outcome) = match ev {
                FsEvent::FsyncDone { waiter, .. } => (waiter, Outcome::Synced),
                FsEvent::FsyncFailed { waiter, error, .. } => (waiter, Outcome::Failed(error)),
                FsEvent::WritebackDone { .. } => {
                    self.wb_active = false;
                    if self.cfg.pdflush && self.cache.over_background() {
                        self.kick_writeback(bus);
                    }
                    continue;
                }
                FsEvent::TxnCommitted { txn } => {
                    emit(&mut self.audit, now, || AuditEvent::TxnCommitted { txn });
                    continue;
                }
                FsEvent::JournalAborted { txn, .. } => {
                    self.stats.journal_aborts += 1;
                    emit(&mut self.audit, now, || AuditEvent::JournalAborted { txn });
                    continue;
                }
            };
            let in_fsync = self
                .procs
                .get(&waiter)
                .and_then(|p| p.cur.as_ref())
                .map(|c| matches!(c.kind, SyscallKind::Fsync { .. }))
                .unwrap_or(false);
            if in_fsync {
                let cpu = SYSCALL_BASE;
                self.complete_syscall(waiter, outcome, cpu, bus);
            }
        }
        self.wake_dirty_waiters(bus);
        self.try_dispatch(bus);
    }
}

/// Park `req` in its hardware tag's entry until the device is done with it.
fn park(inflight: &mut Vec<Option<(Request, SimDuration)>>, slot: u32, req: Request) {
    let slot = slot as usize;
    if inflight.len() <= slot {
        inflight.resize_with(slot + 1, || None);
    }
    inflight[slot] = Some((req, SimDuration::ZERO));
}

/// Record the committed service time of the request the device just
/// moved into service, if any, and schedule its completion.
fn start_service(
    started: Option<Started>,
    inflight: &mut [Option<(Request, SimDuration)>],
    k: KernelId,
    now: SimTime,
    bus: &mut Bus,
) {
    if let Some(s) = started {
        let (_, service) = inflight[s.slot as usize]
            .as_mut()
            .expect("a started request is parked");
        *service = s.service;
        bus.q
            .schedule(now + s.service, Event::DeviceDone { k, req: s.id });
    }
}

/// Feed one event to the kernel's subscribers. `build` runs only when a
/// plane is installed, so an unobserved kernel pays one branch per site.
#[inline]
fn emit<'a>(plane: &mut Option<AuditPlane>, now: SimTime, build: impl FnOnce() -> AuditEvent<'a>) {
    if let Some(plane) = plane {
        plane.observe(now, &build());
    }
}
