//! Kernel-side tracing as subscribers of the audit stream.
//!
//! The kernel emits each simulated transition once, as an
//! [`AuditEvent`], and never calls the tracer itself. [`SpanProbe`] turns
//! the stream into the
//! syscall / gate / cache-wait / block-queue / device spans and the
//! kernel's counters, gauges and histograms; [`BlockTraceProbe`] feeds the
//! flat block-request table. Both hold a clone of the kernel's shared
//! [`Tracer`], so spans opened inside the fs, cache and schedulers (which
//! write through the same handle) still join one tree.
//!
//! Span ids are allocation-ordered and histogram sums are float-add
//! ordered, so the *order* of calls below is part of every traced
//! export; `tracing_integration.rs` pins it against digests.

use sim_check::{AuditEvent, Auditor, Checkpoints};
use sim_core::{CauseSet, FastMap, Pid, RequestId, SimTime};
use sim_trace::{slot_name, Layer, SpanId, Tracer};
use split_core::SyscallKind;

/// Spans and metrics for the syscall, gate, block and device layers.
pub(crate) struct SpanProbe {
    tracer: Tracer,
    /// Live syscall per process: its span and an open gate-wait or
    /// dirty-wait child, if parked.
    calls: FastMap<Pid, (SpanId, SpanId)>,
    /// Live request: block-layer queue span (submit → dispatch) and device
    /// service span (slot acquired → completion).
    reqs: FastMap<RequestId, (SpanId, SpanId)>,
}

impl SpanProbe {
    /// A probe recording into `tracer`.
    pub(crate) fn new(tracer: Tracer) -> Self {
        SpanProbe {
            tracer,
            calls: FastMap::default(),
            reqs: FastMap::default(),
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
                service,
                sched_queued,
                ..
            } => {
                tr.count("block.completed", 1);
                tr.observe("device.service_ms", service);
                tr.gauge("block.queue_depth", now, sched_queued as f64);
                let (_, ds) = self.reqs.remove(&req.id).unwrap_or_default();
                tr.end(ds, now);
            }
            AuditEvent::SlotReleased { .. }
            | AuditEvent::TxnCommitted { .. }
            | AuditEvent::JournalAborted { .. } => {}
        }
    }
}

/// Feeds every finished request into the tracer's flat block table
/// (`Kernel::enable_trace`).
pub(crate) struct BlockTraceProbe {
    tracer: Tracer,
}

impl BlockTraceProbe {
    /// A probe recording into `tracer`'s installed block table.
    pub(crate) fn new(tracer: Tracer) -> Self {
        BlockTraceProbe { tracer }
    }
}

impl Auditor for BlockTraceProbe {
    fn name(&self) -> &'static str {
        "block-trace"
    }

    fn checkpoints(&self) -> Checkpoints {
        Checkpoints::Never
    }

    fn on_event(&mut self, now: SimTime, ev: &AuditEvent<'_>, _out: &mut Vec<String>) {
        if let AuditEvent::BlockFinished { req, service, .. } = *ev {
            self.tracer.record_block(req, service, now);
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
