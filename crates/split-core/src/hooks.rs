//! The message interface between the kernel and a split scheduler.

use sim_block::{Dispatch, IoPrio, QueueOccupancy, Request};
use sim_core::{BlockNo, CauseSet, FileId, IoError, Pid, SimDuration, SimTime};
use sim_device::DiskModel;
use sim_trace::Tracer;

/// Identifies an I/O-related system call as seen by the syscall-level
/// hooks. Reads are *not* gated at entry (the paper schedules reads below
/// the cache, §4.2) but are still reported to `syscall_exit` for
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallKind {
    /// `read(file, offset, len)`.
    Read {
        /// Target file.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u64,
    },
    /// `write(file, offset, len)`.
    Write {
        /// Target file.
        file: FileId,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u64,
    },
    /// `fsync(file)`.
    Fsync {
        /// Target file.
        file: FileId,
    },
    /// `creat(path)` — a metadata write.
    Create,
    /// `mkdir(path)` — a metadata write.
    Mkdir,
    /// `unlink(path)` — a metadata write (listed as future work in §4.2;
    /// implemented here).
    Unlink {
        /// The file being removed.
        file: FileId,
    },
}

impl SyscallKind {
    /// Whether this call mutates state (write, fsync or metadata ops).
    pub fn is_write_like(&self) -> bool {
        !matches!(self, SyscallKind::Read { .. })
    }

    /// Short name for stats and traces.
    pub fn name(&self) -> &'static str {
        match self {
            SyscallKind::Read { .. } => "read",
            SyscallKind::Write { .. } => "write",
            SyscallKind::Fsync { .. } => "fsync",
            SyscallKind::Create => "creat",
            SyscallKind::Mkdir => "mkdir",
            SyscallKind::Unlink { .. } => "unlink",
        }
    }
}

/// A system call arriving at the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SyscallInfo {
    /// Calling process.
    pub pid: Pid,
    /// Which call, with arguments.
    pub kind: SyscallKind,
    /// The caller's I/O priority.
    pub ioprio: IoPrio,
    /// At `syscall_exit` of a read: whether every page came from the page
    /// cache. The SCS framework needed a file-system modification to learn
    /// this (§5.3); the split framework does not use it (reads are
    /// scheduled below the cache), but exposes it for the SCS baseline.
    pub cached: Option<bool>,
}

/// Verdict of `syscall_enter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Let the call run now.
    Proceed,
    /// Park the caller; the scheduler will `wake(pid)` it later.
    Hold,
}

/// Memory-level notification (§4.2, "buffer-dirty hook") for a
/// *stretch*: `len ≥ 1` consecutive pages of one file, dirtied by one
/// write, whose buffer-dirty events are identical — all fresh, or all
/// overwrites of one previous tag — and which lie in one extent (or one
/// hole). A single page is a stretch of one. Borrowed from the kernel and
/// the page cache for the length of the message.
#[derive(Debug, Clone, Copy)]
pub struct BufferDirtied<'a> {
    /// File owning the pages.
    pub file: FileId,
    /// First page index within the file.
    pub page: u64,
    /// Number of pages (at least one).
    pub len: u64,
    /// Who made this write: the writer's own set (`{pid}`), not the
    /// pages' accumulated union — on an overwrite that union is `prev`
    /// plus these causes.
    pub causes: &'a CauseSet,
    /// For an overwrite of already-dirty buffers: who was responsible for
    /// every one of the pages before this write. The scheduler may shift
    /// accounting to the last writer.
    pub prev: Option<&'a CauseSet>,
    /// On-disk location of the first page, the rest following it; `None`
    /// under delayed allocation — the reason memory-level cost estimates
    /// are guesses.
    pub block: Option<BlockNo>,
    /// Bytes newly dirtied per page (0 for a pure overwrite).
    pub new_bytes: u64,
}

impl<'a> BufferDirtied<'a> {
    /// Take the stretch page by page, for a scheduler whose charge is per
    /// page: run `f` on each page's own one-page event in order, stopping
    /// after the first page whose `f` queues a command, so the kernel
    /// applies it before the next page is dirtied. Returns the pages
    /// taken.
    pub fn each_page(
        &self,
        ctx: &mut SchedCtx<'_>,
        mut f: impl FnMut(&BufferDirtied<'a>, &mut SchedCtx<'_>),
    ) -> u64 {
        for i in 0..self.len {
            let page = BufferDirtied {
                page: self.page + i,
                len: 1,
                block: self.block.map(|b| BlockNo(b.raw() + i)),
                ..*self
            };
            f(&page, ctx);
            if ctx.has_commands() {
                return i + 1;
            }
        }
        self.len
    }
}

/// Memory-level notification: a buffer left the cache before writeback
/// ("buffer-free hook") — the write work evaporated.
#[derive(Debug, Clone)]
pub struct BufferFreed {
    /// File owning the page.
    pub file: FileId,
    /// Page index within the file.
    pub page: u64,
    /// Who had been responsible.
    pub causes: CauseSet,
    /// Bytes whose writeback was avoided.
    pub bytes: u64,
}

/// Per-process scheduling attributes, set via the kernel's
/// `sched_configure` API (the simulator's analogue of `ionice` and the
/// paper's per-process deadline / token settings).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedAttr {
    /// I/O priority (CFQ, AFQ).
    Prio(IoPrio),
    /// Deadline for this process's fsyncs (Split-Deadline).
    FsyncDeadline(SimDuration),
    /// Deadline for this process's block reads.
    ReadDeadline(SimDuration),
    /// Deadline for this process's block writes (Block-Deadline only).
    WriteDeadline(SimDuration),
    /// Throttle to this many normalized bytes per second (token schedulers).
    TokenRate(u64),
    /// Cap on accumulated tokens, in bytes.
    TokenCap(u64),
    /// Join a shared token bucket (VM instances, HDFS accounts, thread
    /// groups share one limit).
    TokenGroup(u32),
    /// Remove any throttle.
    Unthrottled,
    /// Register a process name for rule-based classification (the layer
    /// plane's analogue of a cgroup/systemd-slice membership). Must be
    /// configured before the process's first I/O to affect admission.
    ProcName(&'static str),
}

/// Commands a scheduler queues during a hook invocation; the kernel
/// applies them after the hook returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedCmd {
    /// Unpark a task previously held at `syscall_enter`.
    Wake(Pid),
    /// Call `timer_fired` at (or after) the given instant.
    Timer(SimTime),
    /// Ask the kernel to start asynchronous writeback: of one file's dirty
    /// pages, or (with `file: None`) of the oldest dirty data in general.
    /// Asynchronous writeback creates no synchronization point (§5.2).
    StartWriteback {
        /// Specific file, or any.
        file: Option<FileId>,
        /// Upper bound on pages to flush.
        max_pages: u64,
    },
    /// Re-run the block dispatch loop (e.g. after internal state changed
    /// in a way that may unblock dispatch).
    KickDispatch,
}

/// Context handed to every hook: the current time, a read-only view of the
/// device model for cost peeking, a tracer for scheduler-side metrics, and
/// a command buffer.
pub struct SchedCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The device servicing this kernel's block layer; peek-only.
    pub device: &'a dyn DiskModel,
    /// Hardware-queue occupancy of a physical disk; `None` on a virtual
    /// (host-backed) disk. Split schedulers use it to
    /// see — and cap — a tenant's share of the in-flight slots.
    occupancy: Option<&'a QueueOccupancy>,
    tracer: Tracer,
    commands: Vec<SchedCmd>,
}

impl<'a> SchedCtx<'a> {
    /// Build a context (called by the kernel before invoking a hook).
    /// Carries a disabled tracer; use [`SchedCtx::traced`] to attach one.
    pub fn new(now: SimTime, device: &'a dyn DiskModel) -> Self {
        Self::traced(now, device, Tracer::new())
    }

    /// Build a context that shares the kernel's tracer, so schedulers can
    /// publish their internal state (token levels, queue depths) into the
    /// same metrics registry as the rest of the stack.
    pub fn traced(now: SimTime, device: &'a dyn DiskModel, tracer: Tracer) -> Self {
        SchedCtx {
            now,
            device,
            occupancy: None,
            tracer,
            commands: Vec::new(),
        }
    }

    /// Attach the hardware-queue occupancy view (a physical disk).
    pub fn with_occupancy(mut self, occ: &'a QueueOccupancy) -> Self {
        self.occupancy = Some(occ);
        self
    }

    /// Hardware-queue occupancy, on a physical disk.
    pub fn occupancy(&self) -> Option<&QueueOccupancy> {
        self.occupancy
    }

    /// The kernel's tracing handle (disabled unless the kernel enabled it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Unpark a held task.
    pub fn wake(&mut self, pid: Pid) {
        self.commands.push(SchedCmd::Wake(pid));
    }

    /// Arm a timer.
    pub fn set_timer(&mut self, at: SimTime) {
        self.commands.push(SchedCmd::Timer(at));
    }

    /// Kick asynchronous writeback.
    pub fn start_writeback(&mut self, file: Option<FileId>, max_pages: u64) {
        self.commands
            .push(SchedCmd::StartWriteback { file, max_pages });
    }

    /// Re-poll block dispatch.
    pub fn kick_dispatch(&mut self) {
        self.commands.push(SchedCmd::KickDispatch);
    }

    /// Seed the command buffer with a recycled (empty) allocation, so a
    /// warm kernel's hook invocations never touch the allocator.
    pub fn with_commands_buf(mut self, buf: Vec<SchedCmd>) -> Self {
        debug_assert!(buf.is_empty());
        self.commands = buf;
        self
    }

    /// Whether any command is queued (kernel side). The write path ends a
    /// run of pages on the first hook that queues one, so the command
    /// lands before the next page is dirtied.
    pub fn has_commands(&self) -> bool {
        !self.commands.is_empty()
    }

    /// Take the queued commands (kernel side).
    pub fn drain(&mut self) -> Vec<SchedCmd> {
        std::mem::take(&mut self.commands)
    }
}

/// One message from the kernel to a scheduler: the split framework's
/// hooks at three levels (Table 2 of the paper), plus configuration, the
/// scheduler's timer and the dirty-waiter pick.
///
/// A message that wants an answer carries a `&mut` slot that the sender
/// has already filled with the default answer — `Proceed`, `Idle`, the
/// whole stretch, the first waiter — and the receiver overwrites. A
/// message nobody answers therefore gets the default.
#[derive(Debug)]
pub enum Hook<'a> {
    /// Set a per-process attribute (the kernel's `sched_configure`).
    Configure {
        /// The process.
        pid: Pid,
        /// The attribute.
        attr: SchedAttr,
    },
    /// A gated system call is entering (write/fsync/creat/mkdir/unlink;
    /// reads only when the kernel gates them). Answer [`Gate::Hold`] to
    /// park the caller until a later `ctx.wake(pid)`.
    SyscallEnter {
        /// The call.
        sc: &'a SyscallInfo,
        /// The verdict; starts as [`Gate::Proceed`].
        gate: &'a mut Gate,
    },
    /// A system call finished executing (all kinds, including reads).
    SyscallExit(&'a SyscallInfo),
    /// Memory level: a stretch of buffers was dirtied or re-dirtied.
    BufferDirtied {
        /// The stretch.
        ev: BufferDirtied<'a>,
        /// How many of its pages the scheduler took; starts as `len`.
        /// Fewer only when a page's work queued a command: the kernel
        /// applies it before it dirties the rest. The kernel panics on a
        /// reply outside `1..=len`.
        taken: &'a mut u64,
    },
    /// Memory level: a dirty buffer was dropped before writeback.
    BufferFreed(&'a BufferFreed),
    /// Block level: a request entered the block layer. The scheduler owns
    /// the queue; it holds the request until a dispatch answers with it.
    BlockAdd(Request),
    /// Block level: the device can take a request; answer the next one.
    /// Starts as [`Dispatch::Idle`].
    BlockDispatch(&'a mut Dispatch),
    /// Block level: a request completed at the device.
    BlockCompleted(&'a Request),
    /// Block level: a request *failed* at the device (fault injection).
    BlockFailed {
        /// The request.
        req: &'a Request,
        /// Why it failed.
        error: IoError,
    },
    /// A timer armed via `ctx.set_timer` fired.
    Timer,
    /// The kernel is about to admit one writer blocked on the dirty
    /// threshold. Answer the index of the waiter to wake; the kernel
    /// panics on an index past the last waiter.
    PickDirtyWaiter {
        /// The blocked writers, in arrival order.
        waiters: &'a [Pid],
        /// The index to wake; starts as 0 (FIFO, Linux's behaviour).
        pick: &'a mut usize,
    },
}

/// The kernel's view of a scheduler: one entry point for every message,
/// plus three queries.
///
/// Write a scheduler against [`Scheduler`]; its blanket impl turns each
/// message into a hook call. Implement `IoSched` directly only to wrap
/// another scheduler: match the messages the wrapper changes and forward
/// the rest with `other => self.inner.on(other, ctx)`.
pub trait IoSched {
    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Handle one message, answering in its slot if it has one.
    fn on(&mut self, hook: Hook<'_>, ctx: &mut SchedCtx<'_>);

    /// Requests currently held at the block level.
    fn queued(&self) -> usize;

    /// Self-audit the scheduler's internal ledgers, returning one message
    /// per violated invariant. `quiesced` is true when the caller knows no
    /// request is queued or in flight — accounting schedulers then check
    /// that every dispatch-time charge has been settled by a completion or
    /// refund.
    fn audit(&self, quiesced: bool) -> Vec<String>;
}

/// A complete I/O scheduler in the split framework, written hook by hook.
///
/// Every hook but the two block-queue ones has a default, so a scheduler
/// implements exactly the levels it cares about — a block-only scheduler
/// overrides the block hooks, SCS overrides the syscall hooks, and a true
/// split scheduler uses all three (§3). Each hook answers the [`Hook`]
/// message of the same name.
pub trait Scheduler {
    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Set a per-process attribute. Unsupported attributes are ignored.
    fn configure(&mut self, pid: Pid, attr: SchedAttr, ctx: &mut SchedCtx<'_>) {
        let _ = (pid, attr, ctx);
    }

    /// A gated system call is entering ([`Hook::SyscallEnter`]).
    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        let _ = (sc, ctx);
        Gate::Proceed
    }

    /// A system call finished executing (all kinds, including reads).
    fn syscall_exit(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) {
        let _ = (sc, ctx);
    }

    /// Memory level: a stretch of buffers was dirtied or re-dirtied.
    /// Returns how many of its pages the scheduler took (see
    /// [`Hook::BufferDirtied`]); the default takes the whole stretch. A
    /// scheduler whose charge is per page takes it through
    /// [`BufferDirtied::each_page`].
    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        let _ = ctx;
        ev.len
    }

    /// Memory level: a dirty buffer was dropped before writeback.
    fn buffer_freed(&mut self, ev: &BufferFreed, ctx: &mut SchedCtx<'_>) {
        let _ = (ev, ctx);
    }

    /// Block level: a request entered the block layer.
    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>);

    /// Block level: the device is idle; pick the next request.
    fn block_dispatch(&mut self, ctx: &mut SchedCtx<'_>) -> Dispatch;

    /// Block level: a request completed at the device.
    fn block_completed(&mut self, req: &Request, ctx: &mut SchedCtx<'_>) {
        let _ = (req, ctx);
    }

    /// Block level: a request failed at the device. The default treats it
    /// like a completion so queue accounting stays balanced; schedulers
    /// with cost accounting override this to refund what the failed
    /// request was charged.
    fn block_failed(&mut self, req: &Request, error: IoError, ctx: &mut SchedCtx<'_>) {
        let _ = error;
        self.block_completed(req, ctx);
    }

    /// A timer armed via `ctx.set_timer` fired.
    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        let _ = ctx;
    }

    /// Pick which dirty-throttled writer to admit next. The default is
    /// FIFO (Linux's behaviour). Split schedulers use this to make the
    /// write-buffer admission order follow their policy — controlling
    /// "when writes become visible to the file system" (§3.3).
    fn pick_dirty_waiter(&mut self, waiters: &[Pid], ctx: &mut SchedCtx<'_>) -> usize {
        let _ = (waiters, ctx);
        0
    }

    /// Requests currently held at the block level.
    fn queued(&self) -> usize;

    /// Self-audit (see [`IoSched::audit`]). The default reports nothing.
    fn audit(&self, quiesced: bool) -> Vec<String> {
        let _ = quiesced;
        Vec::new()
    }
}

/// The one place a message becomes a hook call.
impl<S: Scheduler> IoSched for S {
    fn name(&self) -> &'static str {
        Scheduler::name(self)
    }

    fn on(&mut self, hook: Hook<'_>, ctx: &mut SchedCtx<'_>) {
        match hook {
            Hook::Configure { pid, attr } => self.configure(pid, attr, ctx),
            Hook::SyscallEnter { sc, gate } => *gate = self.syscall_enter(sc, ctx),
            Hook::SyscallExit(sc) => self.syscall_exit(sc, ctx),
            Hook::BufferDirtied { ev, taken } => *taken = self.buffer_dirtied(&ev, ctx),
            Hook::BufferFreed(ev) => self.buffer_freed(ev, ctx),
            Hook::BlockAdd(req) => self.block_add(req, ctx),
            Hook::BlockDispatch(d) => *d = self.block_dispatch(ctx),
            Hook::BlockCompleted(req) => self.block_completed(req, ctx),
            Hook::BlockFailed { req, error } => self.block_failed(req, error, ctx),
            Hook::Timer => self.timer_fired(ctx),
            Hook::PickDirtyWaiter { waiters, pick } => *pick = self.pick_dirty_waiter(waiters, ctx),
        }
    }

    fn queued(&self) -> usize {
        Scheduler::queued(self)
    }

    fn audit(&self, quiesced: bool) -> Vec<String> {
        Scheduler::audit(self, quiesced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_device::HddModel;

    #[test]
    fn ctx_collects_commands_in_order() {
        let dev = HddModel::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        assert!(!ctx.has_commands());
        ctx.wake(Pid(3));
        assert!(ctx.has_commands());
        ctx.set_timer(SimTime::from_nanos(10));
        ctx.start_writeback(Some(FileId(7)), 128);
        ctx.kick_dispatch();
        let cmds = ctx.drain();
        assert_eq!(cmds.len(), 4);
        assert_eq!(cmds[0], SchedCmd::Wake(Pid(3)));
        assert_eq!(cmds[1], SchedCmd::Timer(SimTime::from_nanos(10)));
        assert_eq!(
            cmds[2],
            SchedCmd::StartWriteback {
                file: Some(FileId(7)),
                max_pages: 128
            }
        );
        assert_eq!(cmds[3], SchedCmd::KickDispatch);
        assert!(!ctx.has_commands());
        assert!(ctx.drain().is_empty());
    }

    /// Taken page by page, each page of a stretch gets its own block, and
    /// the reply stops after the page whose work queues a command.
    #[test]
    fn each_page_stops_at_the_first_command() {
        struct Log(Vec<(u64, u64, Option<u64>)>);
        impl Scheduler for Log {
            fn name(&self) -> &'static str {
                "log"
            }
            fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
                ev.each_page(ctx, |p, ctx| {
                    self.0.push((p.page, p.len, p.block.map(|b| b.raw())));
                    if p.page == 12 {
                        ctx.kick_dispatch();
                    }
                })
            }
            fn block_add(&mut self, _req: Request, _ctx: &mut SchedCtx<'_>) {}
            fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
                Dispatch::Idle
            }
            fn queued(&self) -> usize {
                0
            }
        }
        let dev = HddModel::new();
        let causes = CauseSet::of(Pid(1));
        let mut s = Log(Vec::new());
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        let mut send = |page, len| {
            let ev = BufferDirtied {
                file: FileId(1),
                page,
                len,
                causes: &causes,
                prev: None,
                block: Some(BlockNo(100)),
                new_bytes: 4096,
            };
            let mut taken = len;
            s.on(
                Hook::BufferDirtied {
                    ev,
                    taken: &mut taken,
                },
                &mut ctx,
            );
            taken
        };
        assert_eq!(send(0, 3), 3);
        assert_eq!(send(10, 5), 3);
        assert_eq!(
            s.0,
            vec![
                (0, 1, Some(100)),
                (1, 1, Some(101)),
                (2, 1, Some(102)),
                (10, 1, Some(100)),
                (11, 1, Some(101)),
                (12, 1, Some(102))
            ]
        );
        assert!(ctx.has_commands());
    }

    #[test]
    fn syscall_kind_classification() {
        let w = SyscallKind::Write {
            file: FileId(1),
            offset: 0,
            len: 4096,
        };
        let r = SyscallKind::Read {
            file: FileId(1),
            offset: 0,
            len: 4096,
        };
        assert!(w.is_write_like());
        assert!(!r.is_write_like());
        assert!(SyscallKind::Create.is_write_like());
        assert_eq!(SyscallKind::Mkdir.name(), "mkdir");
    }
}
