//! Tracing as subscribers of the kernel's event stream.
//!
//! Every layer reports each simulated transition once, through the
//! kernel's one outlet, [`AuditEvent`]: the kernel its own, the file
//! system its [`FsEvent`]s, the page cache what each dirtied stretch did,
//! the scheduler its gauges. No layer holds a tracer. [`SpanProbe`] turns
//! the stream into the syscall / gate / cache-wait / journal-commit /
//! fsync / writeback-pass / block-queue / device spans, one tree across
//! the layers, and into the counters, gauges and histograms. Any other
//! per-request table is a plain [`Auditor`] on the same stream.
//!
//! Span ids are allocation-ordered and histogram sums are float-add
//! ordered, so the *order* of calls below is part of every traced
//! export; `tracing_integration.rs` pins it against digests.

use sim_check::{AuditEvent, Auditor, Checkpoints};
use sim_core::{CauseSet, FastMap, Pid, RequestId, SimTime};
use sim_fs::FsEvent;
use sim_trace::{slot_name, Layer, SpanId, Tracer};
use split_core::SyscallKind;

/// Spans and metrics for every layer of the stack.
pub(crate) struct SpanProbe {
    tracer: Tracer,
    /// Live syscall per process: its span and an open gate-wait or
    /// dirty-wait child, if parked.
    calls: FastMap<Pid, (SpanId, SpanId)>,
    /// Live request: block-layer queue span (submit → dispatch) and device
    /// service span (slot acquired → completion).
    reqs: FastMap<RequestId, (SpanId, SpanId)>,
    /// Live journal commit (keyed by transaction) or writeback pass
    /// (by pass id): its task and span.
    tasks: FastMap<(Layer, u64), (Pid, SpanId)>,
    /// Live fsync: its data-flush and journal-wait spans.
    fsyncs: FastMap<u64, (SpanId, SpanId)>,
}

impl SpanProbe {
    /// A probe recording into `tracer`.
    pub(crate) fn new(tracer: Tracer) -> Self {
        SpanProbe {
            tracer,
            calls: FastMap::default(),
            reqs: FastMap::default(),
            tasks: FastMap::default(),
            fsyncs: FastMap::default(),
        }
    }

    /// Open the wait span of `pid`'s live syscall and count the park.
    fn begin_wait(
        &mut self,
        layer: Layer,
        name: &'static str,
        counter: &'static str,
        pid: Pid,
        now: SimTime,
    ) {
        if let Some(call) = self.calls.get_mut(&pid) {
            call.1 = self.tracer.begin(layer, name, pid, &CauseSet::of(pid), now);
            self.tracer.count(counter, 1);
        }
    }

    /// The file system's spans: a commit belongs to the journal task but
    /// carries the entangled causes (the Figure 4/5 story in one span);
    /// an fsync decomposes under its syscall span into a data-flush and a
    /// journal-wait child; a writeback pass carries the flushed pages'
    /// causes. Commits and passes are their task's current span, so the
    /// I/O they submit parents to them — delegation stays visible.
    fn on_fs(&mut self, now: SimTime, ev: &FsEvent) {
        let tr = &self.tracer;
        match ev {
            FsEvent::CommitStarted { txn, task, causes } => {
                let span = tr.begin_current(Layer::Journal, "journal_commit", *task, causes, now);
                tr.set_arg(span, txn.raw());
                self.tasks
                    .insert((Layer::Journal, txn.raw()), (*task, span));
            }
            FsEvent::TxnCommitted { txn } | FsEvent::JournalAborted { txn } => {
                if let Some((task, span)) = self.tasks.remove(&(Layer::Journal, txn.raw())) {
                    tr.end_current(task, span, now);
                }
                if matches!(ev, FsEvent::TxnCommitted { .. }) {
                    tr.count("journal.commits", 1);
                }
            }
            FsEvent::FsyncStarted {
                fsync,
                pid,
                data,
                txn,
            } => {
                tr.count("fs.fsyncs", 1);
                let parent = tr.current(*pid);
                let causes = CauseSet::of(*pid);
                let child = |open: bool, layer, name| {
                    if open {
                        tr.begin_child(parent, layer, name, *pid, &causes, now)
                    } else {
                        SpanId::NONE
                    }
                };
                let data_span = child(*data, Layer::Writeback, "fsync_data");
                let txn_span = child(txn.is_some(), Layer::Journal, "journal_wait");
                if let Some(txn) = txn {
                    tr.set_arg(txn_span, txn.raw());
                }
                self.fsyncs.insert(*fsync, (data_span, txn_span));
            }
            FsEvent::FsyncDataDrained { fsync } => {
                if let Some(spans) = self.fsyncs.get_mut(fsync) {
                    tr.end(std::mem::take(&mut spans.0), now);
                }
            }
            FsEvent::FsyncDone { fsync, .. } => {
                let (data_span, txn_span) = self.fsyncs.remove(fsync).unwrap_or_default();
                tr.end(data_span, now);
                tr.end(txn_span, now);
            }
            FsEvent::DataFlushed { pages, .. } => tr.count("cache.pages_cleaned", *pages),
            FsEvent::WritebackStarted {
                pass,
                task,
                causes,
                pages,
            } => {
                let span = tr.begin_current(Layer::Writeback, "writeback_pass", *task, causes, now);
                tr.set_arg(span, *pages);
                self.tasks.insert((Layer::Writeback, *pass), (*task, span));
            }
            FsEvent::WritebackDone { pass, .. } => {
                if let Some((task, span)) = self.tasks.remove(&(Layer::Writeback, *pass)) {
                    tr.end_current(task, span, now);
                }
            }
            FsEvent::Unlinked { dirty, .. } => {
                tr.count("cache.pages_freed_dirty", dirty.iter().map(|r| r.len).sum());
            }
        }
    }
}

impl Auditor for SpanProbe {
    fn name(&self) -> &'static str {
        "span-probe"
    }

    fn checkpoints(&self) -> Checkpoints {
        Checkpoints::Never
    }

    fn on_event(&mut self, now: SimTime, ev: &AuditEvent<'_>, _out: &mut Vec<String>) {
        let tr = &self.tracer;
        match *ev {
            AuditEvent::SyscallEnter { pid, kind } => {
                let span =
                    tr.begin_current(Layer::Syscall, kind.name(), pid, &CauseSet::of(pid), now);
                tr.count(syscall_metric_names(kind).0, 1);
                self.calls.insert(pid, (span, SpanId::NONE));
            }
            AuditEvent::GateHeld { pid } => {
                self.begin_wait(Layer::Gate, "gate_wait", "gate.holds", pid, now);
            }
            AuditEvent::DirtyThrottled { pid } => {
                self.begin_wait(
                    Layer::Cache,
                    "dirty_wait",
                    "cache.dirty_throttled",
                    pid,
                    now,
                );
            }
            AuditEvent::WaitEnded { pid } => {
                if let Some(call) = self.calls.get_mut(&pid) {
                    tr.end(std::mem::take(&mut call.1), now);
                }
            }
            AuditEvent::SyscallExit { pid, kind, entered } => {
                let (span, wait) = self.calls.remove(&pid).unwrap_or_default();
                tr.end(wait, now);
                tr.end_current(pid, span, now);
                tr.observe(syscall_metric_names(kind).1, now.since(entered));
            }
            AuditEvent::BlockSubmitted {
                req, sched_queued, ..
            } => {
                // Parent under the submitter's current span: the syscall for
                // direct reads/fsync flushes, the commit or writeback-pass
                // span for delegated I/O — delegation stays visible.
                let qs = tr.begin(Layer::Block, "queue", req.submitter, &req.causes, now);
                tr.set_arg(qs, req.id.raw());
                self.reqs.insert(req.id, (qs, SpanId::NONE));
                tr.count("block.submitted", 1);
                tr.gauge("block.queue_depth", now, (sched_queued + 1) as f64);
            }
            AuditEvent::BlockDispatched { req } => {
                let qs = self.reqs.get(&req.id).map_or(SpanId::NONE, |r| r.0);
                tr.end(qs, now);
                tr.count("block.dispatched", 1);
                tr.observe("block.queue_ms", now.since(req.submitted_at));
            }
            AuditEvent::SlotAcquired {
                req,
                slot,
                in_flight,
                depth,
            } => {
                // A one-slot device's tag says nothing: its span is plain
                // `service`, and it keeps no queue-depth gauge.
                let name = if depth > 1 {
                    tr.gauge("device.queue_depth", now, in_flight as f64);
                    slot_name(slot)
                } else {
                    "service"
                };
                // The device span is the queue span's *sibling* (same
                // parent), so queueing and service read as consecutive
                // phases of one request.
                let spans = self.reqs.entry(req.id).or_default();
                let parent = tr.parent_of(spans.0);
                let ds =
                    tr.begin_child(parent, Layer::Device, name, req.submitter, &req.causes, now);
                tr.set_arg(ds, req.id.raw());
                spans.1 = ds;
            }
            AuditEvent::SlotReleased {
                in_flight, depth, ..
            } if depth > 1 => tr.gauge("device.queue_depth", now, in_flight as f64),
            AuditEvent::DiskCharged { pid, total_s } => {
                tr.gauge_key("disk.time_s", pid.raw() as u64, now, total_s);
            }
            AuditEvent::BlockFinished {
                req,
                failed,
                service,
                sched_queued,
            } => {
                // A read that completes fills the page cache.
                if req.is_read() && !failed {
                    tr.count("cache.pages_filled", req.nblocks);
                }
                tr.count("block.completed", 1);
                tr.observe("device.service_ms", service);
                tr.gauge("block.queue_depth", now, sched_queued as f64);
                let (_, ds) = self.reqs.remove(&req.id).unwrap_or_default();
                tr.end(ds, now);
            }
            AuditEvent::Dirtied(d) => {
                // Page by page, as the gauges always read: each page bumps
                // the dirty total (if fresh) and moves tag memory by the
                // same amount.
                let counter = if d.fresh {
                    "cache.pages_dirtied"
                } else {
                    "cache.overwrites"
                };
                tr.count(counter, d.len);
                let per_page =
                    (d.tag_bytes_after as i64 - d.tag_bytes_before as i64) / d.len as i64;
                for k in 1..=d.len {
                    let dirty = d.dirty_before + if d.fresh { k } else { 0 };
                    tr.gauge("cache.dirty_pages", now, dirty as f64);
                    let tag_bytes = d.tag_bytes_before as i64 + per_page * k as i64;
                    tr.gauge("cache.tag_bytes", now, tag_bytes as f64);
                }
            }
            AuditEvent::SchedGauge { name, key, value } => tr.gauge_key(name, key, now, value),
            AuditEvent::Fs(ev) => self.on_fs(now, ev),
            AuditEvent::SlotReleased { .. } => {}
        }
    }
}

/// Per-kind syscall counter and latency-histogram names (static, so
/// recording stays alloc-free).
fn syscall_metric_names(kind: &SyscallKind) -> (&'static str, &'static str) {
    match kind {
        SyscallKind::Read { .. } => ("syscall.read", "syscall.read_ms"),
        SyscallKind::Write { .. } => ("syscall.write", "syscall.write_ms"),
        SyscallKind::Fsync { .. } => ("syscall.fsync", "syscall.fsync_ms"),
        SyscallKind::Create => ("syscall.creat", "syscall.creat_ms"),
        SyscallKind::Mkdir => ("syscall.mkdir", "syscall.mkdir_ms"),
        SyscallKind::Unlink { .. } => ("syscall.unlink", "syscall.unlink_ms"),
    }
}
