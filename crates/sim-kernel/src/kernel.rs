//! One machine's storage stack: processes → syscall layer → page cache →
//! file system → block layer → device, with the scheduler's hooks woven
//! through all of it.

use std::collections::VecDeque;

use sim_block::{Dispatch, IoPrio, MqDispatch, PrioClass, QueueOccupancy, ReqKind, Request};
use sim_cache::{CacheConfig, PageCache};
use sim_check::{AuditCheckpoint, AuditEvent, AuditPlane, Auditor};
use sim_core::prof::{self, Phase, Profiler};
use sim_core::stats::TimeSeries;
use sim_core::{
    page_span, BlockNo, CauseSet, ChaosConfig, ChaosPlane, FileId, IdAlloc, IoError, IoErrorKind,
    KernelId, Pid, RequestId, SimDuration, SimTime, PAGE_SIZE,
};
use sim_core::{FastMap, FastSet};
use sim_device::{DiskModel, HddModel, QueuedDevice, QueuedDeviceConfig, SsdModel};
use sim_fault::{DeviceFaultPlane, Fault, WriteStep};
use sim_fs::{Extent, FileSystem, FsConfig, FsEvent, FsOutput, IoToken, JournaledFs};
use sim_trace::{RequestTrace, Tracer};
use split_core::{
    BufferDirtied, BufferFreed, Gate, IoSched, SchedAttr, SchedCmd, SchedCtx, SyscallInfo,
    SyscallKind,
};

use crate::cpu::{CpuCosts, CpuModel};
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
/// against the configured [`QueuePlane`].
enum ActiveDevice {
    /// Legacy single-slot physical device.
    Serial(Box<dyn DiskModel>),
    /// Physical device behind the queued plane: blk-mq software queues
    /// in front of a multi-slot hardware queue.
    Queued {
        /// The multi-request device front-end.
        dev: QueuedDevice,
        /// Per-process software queues + the live occupancy picture.
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
    fn resolve(device: DeviceKind, queue: QueuePlane) -> Self {
        match device {
            DeviceKind::Physical(m) => match queue {
                QueuePlane::Serial => ActiveDevice::Serial(m),
                QueuePlane::Queued { depth } => {
                    let depth = depth.max(1);
                    ActiveDevice::Queued {
                        dev: QueuedDevice::new(m, QueuedDeviceConfig::with_depth(depth)),
                        mq: MqDispatch::new(depth),
                    }
                }
            },
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
            ActiveDevice::Serial(m) => m.as_ref(),
            ActiveDevice::Queued { dev, .. } => dev.model(),
            ActiveDevice::Virtual { peek, .. } => peek,
        }
    }

    /// The hardware-queue occupancy picture, on the queued plane only.
    fn occupancy(&self) -> Option<&QueueOccupancy> {
        match self {
            ActiveDevice::Queued { mq, .. } => Some(mq.occupancy()),
            _ => None,
        }
    }

    /// A hook context at `now` peeking at this device, queuing commands
    /// into `buf` (a recycled, empty buffer).
    fn sched_ctx(&self, now: SimTime, tracer: &Tracer, buf: Vec<SchedCmd>) -> SchedCtx<'_> {
        let ctx = SchedCtx::traced(now, self.peek(), tracer.clone()).with_commands_buf(buf);
        match self.occupancy() {
            Some(occ) => ctx.with_occupancy(occ),
            None => ctx,
        }
    }
}

/// How the block layer drives a physical device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePlane {
    /// The legacy single-slot path: one request on the device at a time,
    /// submit → finish. The historical behaviour, byte for byte.
    Serial,
    /// The queued-device plane: per-process software queues
    /// ([`MqDispatch`]) feeding a hardware queue of `depth` slots
    /// ([`QueuedDevice`] — NCQ reordering on rotational models, channel
    /// parallelism on flash). `depth = 1` is byte-identical to
    /// [`QueuePlane::Serial`]. Virtual (host-backed) disks ignore this
    /// setting: their queueing lives in the host's own block layer.
    Queued {
        /// Hardware queue depth (NCQ tags / NVMe slots), at least 1.
        depth: u32,
    },
}

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
    /// CPU cost parameters.
    pub cpu: CpuCosts,
    /// Pages per background writeback pass.
    pub wb_batch_pages: u64,
    /// Background writeback poll interval.
    pub wb_tick: SimDuration,
    /// Extra entropy folded into the file system's layout RNG seed. Zero
    /// (the default) keeps the historical on-disk layout; sweeps set it to
    /// vary allocator and metadata placement across replicates.
    pub fs_seed: u64,
    /// Adversarial timing perturbation (the chaos plane). `None` (the
    /// default) keeps every run byte-identical to a build without the
    /// plane; `Some` jitters writeback wakeups, CPU slices, journal
    /// commit timing, and queued-device completion order within legal
    /// bounds (see [`sim_core::chaos`]).
    pub chaos: Option<ChaosConfig>,
    /// How the block layer drives a physical device (serial single-slot
    /// or the queued multi-request plane).
    pub queue: QueuePlane,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            fs: FsChoice::Ext4,
            cache: CacheConfig::default(),
            cores: 8,
            pdflush: true,
            gate_reads: false,
            cpu: CpuCosts::default(),
            wb_batch_pages: 2048,
            wb_tick: SimDuration::from_millis(200),
            fs_seed: 0,
            chaos: None,
            queue: QueuePlane::Serial,
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
    /// Fault-plane service-time multiplier, staged at dispatch for the
    /// queued plane (the device applies it when the request enters
    /// service, which may be later).
    spike: Option<f64>,
}

/// One simulated machine.
pub struct Kernel {
    /// This kernel's id in the world.
    pub id: KernelId,
    cfg: KernelConfig,
    sched: Box<dyn IoSched>,
    device: ActiveDevice,
    inflight: Option<(Request, SimDuration)>,
    /// In-flight requests on the queued plane, keyed by id (the device
    /// tracks ordering; this map only parks the request bodies and their
    /// committed service times until completion).
    q_inflight: FastMap<RequestId, (Request, SimDuration)>,
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
    /// plane). Its completion-jitter stream lives inside the queued
    /// device when one exists.
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
        let mut device = ActiveDevice::resolve(device, cfg.queue);
        let chaos = cfg.chaos.as_ref().map(ChaosPlane::new);
        let chaos = chaos.map(|mut plane| {
            // On the queued plane the completion-jitter stream moves into
            // the device, which stretches service times where it already
            // applies fault spikes; the serial plane keeps the stream
            // here and applies it at issue.
            if let ActiveDevice::Queued { dev, .. } = &mut device {
                if let Some(jitter) = plane.take_completion_jitter() {
                    dev.install_chaos(jitter);
                }
            }
            plane
        });
        Kernel {
            id,
            cfg,
            sched,
            device,
            inflight: None,
            q_inflight: FastMap::default(),
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

    /// Forward an attribute straight to the scheduler.
    pub(crate) fn sched_configure(&mut self, pid: Pid, attr: SchedAttr, bus: &mut Bus) {
        self.sched.configure(pid, attr);
        // Configuration may unblock things (e.g. a raised token rate).
        self.run_sched_maintenance(bus);
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
        let device_idle = match &self.device {
            ActiveDevice::Queued { dev, mq } => dev.in_flight() == 0 && mq.staged() == 0,
            _ => self.inflight.is_none(),
        };
        device_idle && self.sched.queued() == 0
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
    fn next_wb_tick(&mut self) -> SimDuration {
        match self.chaos.as_mut() {
            Some(c) => c.wb_tick(self.cfg.wb_tick),
            None => self.cfg.wb_tick,
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
                self.with_sched(bus, |s, ctx| s.timer_fired(ctx));
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
                let gate = self.sched.syscall_enter(&info, &mut ctx);
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
        let costs = self.cfg.cpu;
        match kind {
            SyscallKind::Write { file, offset, len } => {
                let pages = page_span(offset, len);
                if pages.is_empty() {
                    // Nothing to copy: no throttling, dirtying, journal
                    // join or writeback.
                    let cpu = costs.syscall_base;
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
                let cpu = costs.syscall_base
                    + SimDuration::from_nanos(costs.per_page_copy.as_nanos() * npages);
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
                let cpu = costs.syscall_base
                    + SimDuration::from_nanos(costs.per_page_copy.as_nanos() * npages);
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
                self.complete_syscall(pid, Outcome::Created(fid), costs.syscall_base, bus);
            }
            SyscallKind::Mkdir => {
                let out = self.fs.mkdir(pid, now);
                self.absorb(out, bus);
                self.complete_syscall(pid, Outcome::MetaDone, costs.syscall_base, bus);
            }
            SyscallKind::Unlink { file } => {
                let out = self.fs.unlink(file, pid, &mut self.cache, now);
                self.absorb(out, bus);
                self.complete_syscall(pid, Outcome::MetaDone, costs.syscall_base, bus);
            }
        }
    }

    /// Dirty a write's `pages` of `file` as one run, firing each page's
    /// buffer-dirtied hook right after the page is dirtied. The hook
    /// context, the dirty-file and clean-slot lookups and the extent walk
    /// are paid once per run, not per page (`block` comes from one walk
    /// over the rest of the write). The run ends early after the first
    /// hook that queues a command; the command is applied before the next
    /// page is dirtied, and the next run re-reads the cache, extents and
    /// device that the command may have changed. Returns the first page
    /// not yet dirtied.
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
            let t0 = prof::tick(&self.prof);
            let ev = run.page(page);
            prof::tock(&self.prof, Phase::Cache, t0);
            while extents_left.next_if(|e| e.page + e.len <= page).is_some() {}
            let block = extents_left
                .peek()
                .filter(|e| e.page <= page)
                .map(|e| BlockNo(e.start.raw() + (page - e.page)));
            let bd = BufferDirtied {
                file,
                page,
                causes: causes.clone(),
                prev: ev.prev,
                block,
                new_bytes: ev.new_bytes,
            };
            let t0 = prof::tick(&self.prof);
            self.sched.buffer_dirtied(&bd, &mut ctx);
            prof::tock(&self.prof, Phase::Sched, t0);
            page += 1;
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
        let cpu = if gated {
            cpu + self.cfg.cpu.sched_bookkeeping
        } else {
            cpu
        };
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
        self.with_sched(bus, |s, ctx| s.syscall_exit(&info, ctx));
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
        self.with_sched(bus, |s, ctx| s.block_add(req, ctx));
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
            let d = self.with_sched(bus, |s, ctx| s.block_dispatch(ctx));
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

    /// Room for another request below the elevator? The serial and
    /// virtio planes hold one; the queued plane admits up to `depth`
    /// counting both hardware slots and software staging, so staged
    /// requests can never outrun the tags they will need.
    fn device_can_accept(&self) -> bool {
        match &self.device {
            ActiveDevice::Queued { dev, mq } => {
                dev.in_flight() + mq.staged() < dev.depth() as usize
            }
            _ => self.inflight.is_none(),
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
        // The fault plane rolls at dispatch, in the same per-request order
        // on both physical planes; a virtual disk's requests fail through
        // the host's own plane instead.
        let mut spike = None;
        if !matches!(self.device, ActiveDevice::Virtual { .. }) {
            let fault = self
                .fault_plane
                .as_mut()
                .and_then(|plane| plane.on_request(&req.shape()));
            let failed = match fault {
                Some(Fault::Spike { factor }) => {
                    spike = Some(factor);
                    None
                }
                Some(Fault::Transient) => Some(IoErrorKind::TransientDevice),
                Some(Fault::Torn { .. }) => Some(IoErrorKind::TornWrite),
                None => None,
            };
            if let Some(kind) = failed {
                self.req_meta.entry(req.id).or_default().failed =
                    Some(IoError::for_request(kind, req.id));
            }
        }
        let service = match &mut self.device {
            ActiveDevice::Queued { mq, .. } => {
                // A spike is staged on the request and applied when it
                // enters service, which may be later.
                if spike.is_some() {
                    self.req_meta.entry(req.id).or_default().spike = spike;
                }
                mq.submit(req);
                self.pump_queued(bus);
                return;
            }
            ActiveDevice::Serial(model) => {
                let mut service = model.service_time(&req.shape());
                if let Some(factor) = spike {
                    service = service.mul_f64(factor.max(1.0));
                }
                if let Some(c) = self.chaos.as_mut() {
                    // Serial-plane completion chaos: stretch the service
                    // time exactly like a fault spike (never shrink).
                    service = service.mul_f64(c.service_stretch().max(1.0));
                }
                bus.q.schedule(
                    now + service,
                    Event::DeviceDone {
                        k: self.id,
                        req: req.id,
                    },
                );
                service
            }
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
                SimDuration::ZERO
            }
        };
        self.slot_acquired(&req, 0, 1, 1, now);
        self.inflight = Some((req, service));
    }

    /// The device took `req` into `slot`; every device kind reports here.
    fn slot_acquired(
        &mut self,
        req: &Request,
        slot: u32,
        in_flight: u32,
        depth: u32,
        now: SimTime,
    ) {
        emit(&mut self.audit, now, || AuditEvent::SlotAcquired {
            req,
            slot,
            in_flight,
            depth,
            queued_plane: matches!(self.device, ActiveDevice::Queued { .. }),
        });
    }

    /// Drain staged requests into free hardware-queue slots, then turn
    /// whatever the device moved into service into DES completions.
    fn pump_queued(&mut self, bus: &mut Bus) {
        // Sample occupancy before (staged backlog) and after (what the
        // pump pushed into flight), so the profiler's high watermarks
        // see both sides of the drain.
        if let (Some(p), ActiveDevice::Queued { dev, mq }) = (&self.prof, &self.device) {
            p.sample_mq(mq.staged(), dev.in_flight());
        }
        let t0 = prof::tick(&self.prof);
        self.pump_queued_inner(bus);
        prof::tock(&self.prof, Phase::MqPump, t0);
        if let (Some(p), ActiveDevice::Queued { dev, mq }) = (&self.prof, &self.device) {
            p.sample_mq(mq.staged(), dev.in_flight());
        }
    }

    fn pump_queued_inner(&mut self, bus: &mut Bus) {
        let now = bus.q.now();
        loop {
            let (req, slot, started, in_flight, depth) = {
                let ActiveDevice::Queued { dev, mq } = &mut self.device else {
                    return;
                };
                if !dev.can_accept() {
                    return;
                }
                let Some(req) = mq.pop_next() else { return };
                let spike = self.req_meta.get(&req.id).and_then(|m| m.spike);
                let (slot, started) = dev.accept(req.id, req.shape(), spike);
                mq.note_accepted(req.submitter);
                (req, slot, started, dev.in_flight() as u32, dev.depth())
            };
            self.slot_acquired(&req, slot, in_flight, depth, now);
            self.q_inflight.insert(req.id, (req, SimDuration::ZERO));
            self.schedule_started(started, now, bus);
        }
    }

    /// Record committed service times and schedule completion events for
    /// requests the device just moved into service.
    fn schedule_started(&mut self, started: Vec<sim_device::Started>, now: SimTime, bus: &mut Bus) {
        for s in started {
            if let Some(entry) = self.q_inflight.get_mut(&s.id) {
                entry.1 = s.service;
            }
            bus.q.schedule(
                now + s.service,
                Event::DeviceDone {
                    k: self.id,
                    req: s.id,
                },
            );
        }
    }

    /// A request left the device — a physical one's `DeviceDone` fired, or
    /// the host finished the syscall backing a virtual disk's request:
    /// free its slot, start whatever the queued device moved into service
    /// behind it, and run the completion path.
    pub(crate) fn device_done(&mut self, req_id: RequestId, bus: &mut Bus) {
        let now = bus.q.now();
        let (req, service, slot, in_flight, started) = match &mut self.device {
            ActiveDevice::Queued { dev, mq } => {
                let Some((req, service)) = self.q_inflight.remove(&req_id) else {
                    return;
                };
                let (slot, started) = dev.complete(req_id);
                mq.note_done(req.submitter);
                (req, service, slot, dev.in_flight() as u32, started)
            }
            _ => {
                let Some((req, service)) = self.inflight.take() else {
                    return;
                };
                debug_assert_eq!(req.id, req_id);
                (req, service, 0, 0, Vec::new())
            }
        };
        emit(&mut self.audit, now, || AuditEvent::SlotReleased {
            req: &req,
            slot,
            in_flight,
            queued_plane: matches!(self.device, ActiveDevice::Queued { .. }),
        });
        self.schedule_started(started, now, bus);
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
        if let Some(err) = failed {
            self.stats.io_errors += 1;
            self.with_sched(bus, |s, ctx| s.block_failed(&req, err, ctx));
        } else {
            self.with_sched(bus, |s, ctx| s.block_completed(&req, ctx));
        }
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
                        (
                            len,
                            self.cfg.cpu.syscall_base
                                + SimDuration::from_nanos(
                                    self.cfg.cpu.per_page_copy.as_nanos() * pages,
                                ),
                            cur.error,
                        )
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
            self.cfg.wb_batch_pages,
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
            let waiters: Vec<Pid> = self.dirty_waiters.iter().copied().collect();
            let idx = self
                .sched
                .pick_dirty_waiter(&waiters)
                .min(waiters.len() - 1);
            let pid = self.dirty_waiters.remove(idx).expect("bounded index");
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

    fn with_sched<R>(
        &mut self,
        bus: &mut Bus,
        f: impl FnOnce(&mut dyn IoSched, &mut SchedCtx<'_>) -> R,
    ) -> R {
        let now = bus.q.now();
        let t0 = prof::tick(&self.prof);
        let (r, cmds) = {
            let buf = self.sched_cmd_pool.pop().unwrap_or_default();
            let mut ctx = self.device.sched_ctx(now, &self.tracer, buf);
            let r = f(self.sched.as_mut(), &mut ctx);
            (r, ctx.drain())
        };
        prof::tock(&self.prof, Phase::Sched, t0);
        self.apply_cmds(cmds, bus);
        r
    }

    fn run_sched_maintenance(&mut self, bus: &mut Bus) {
        self.with_sched(bus, |s, ctx| s.timer_fired(ctx));
        self.try_dispatch(bus);
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
            self.with_sched(bus, |s, ctx| s.buffer_freed(&bf, ctx));
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
                let cpu = self.cfg.cpu.syscall_base;
                self.complete_syscall(waiter, outcome, cpu, bus);
            }
        }
        self.wake_dirty_waiters(bus);
        self.try_dispatch(bus);
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
