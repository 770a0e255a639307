//! The shared tracing handle. One [`Tracer`] is created per kernel and
//! cloned into every layer (page cache, filesystem, scheduler context);
//! all clones share one span store and metrics registry, so a request
//! crossing layers stays one connected tree.
//!
//! The handle is built to cost nothing when tracing is off: every entry
//! point first reads a shared `Cell<bool>` and returns before touching
//! the `RefCell` state, formatting a key, or cloning a cause set.

use crate::block::RequestTrace;
use crate::metrics::Registry;
use crate::span::{Layer, SpanId, SpanRecord};
use sim_block::Request;
use sim_core::{CauseSet, FastMap, Pid, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Retained-span cap; past it new spans are counted as dropped.
const DEFAULT_SPAN_CAP: usize = 1 << 20;

#[derive(Debug, Default)]
struct Inner {
    process: u32,
    spans: Vec<SpanRecord>,
    current: FastMap<Pid, SpanId>,
    task_labels: FastMap<Pid, &'static str>,
    registry: Registry,
    block: Option<RequestTrace>,
    span_cap: usize,
    spans_dropped: u64,
}

/// Cheap-to-clone handle onto one kernel's trace state.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: Rc<Cell<bool>>,
    inner: Rc<RefCell<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer for process (kernel) 0.
    pub fn new() -> Self {
        Tracer::for_kernel(0)
    }

    /// A disabled tracer whose Chrome-trace `pid` field is `process`
    /// (one track group per kernel instance in multi-machine worlds).
    pub fn for_kernel(process: u32) -> Self {
        Tracer {
            enabled: Rc::new(Cell::new(false)),
            inner: Rc::new(RefCell::new(Inner {
                process,
                span_cap: DEFAULT_SPAN_CAP,
                ..Default::default()
            })),
        }
    }

    /// Is span/metric recording on? All clones observe the same flag.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turn span/metric recording on or off (for every clone).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Name a task for exports ("journal", "writeback").
    pub fn label_task(&self, pid: Pid, label: &'static str) {
        self.inner.borrow_mut().task_labels.insert(pid, label);
    }

    // ---- spans -----------------------------------------------------

    /// Open a span whose parent is `pid`'s current span (if any).
    #[inline]
    pub fn begin(
        &self,
        layer: Layer,
        name: &'static str,
        pid: Pid,
        causes: &CauseSet,
        now: SimTime,
    ) -> SpanId {
        if !self.enabled.get() {
            return SpanId::NONE;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.current.get(&pid).copied().unwrap_or(SpanId::NONE);
        inner.push_span(layer, name, pid, causes, now, parent)
    }

    /// Open a span with an explicit parent.
    #[inline]
    pub fn begin_child(
        &self,
        parent: SpanId,
        layer: Layer,
        name: &'static str,
        pid: Pid,
        causes: &CauseSet,
        now: SimTime,
    ) -> SpanId {
        if !self.enabled.get() {
            return SpanId::NONE;
        }
        self.inner
            .borrow_mut()
            .push_span(layer, name, pid, causes, now, parent)
    }

    /// Open a span and make it `pid`'s current span, so lower layers
    /// instrumented later in the same logical operation parent to it.
    #[inline]
    pub fn begin_current(
        &self,
        layer: Layer,
        name: &'static str,
        pid: Pid,
        causes: &CauseSet,
        now: SimTime,
    ) -> SpanId {
        if !self.enabled.get() {
            return SpanId::NONE;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.current.get(&pid).copied().unwrap_or(SpanId::NONE);
        let id = inner.push_span(layer, name, pid, causes, now, parent);
        if !id.is_none() {
            inner.current.insert(pid, id);
        }
        id
    }

    /// Close a span. No-op for [`SpanId::NONE`] or unknown ids, so
    /// callers never need to re-check whether tracing was on at open.
    #[inline]
    pub fn end(&self, id: SpanId, now: SimTime) {
        if id.is_none() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if let Some(s) = inner.span_mut(id) {
            s.end = Some(now);
        }
    }

    /// Close a span opened with [`Tracer::begin_current`], restoring
    /// `pid`'s current span to the closed span's parent.
    #[inline]
    pub fn end_current(&self, pid: Pid, id: SpanId, now: SimTime) {
        if id.is_none() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = match inner.span_mut(id) {
            Some(s) => {
                s.end = Some(now);
                s.parent
            }
            None => return,
        };
        if inner.current.get(&pid) == Some(&id) {
            if parent.is_none() {
                inner.current.remove(&pid);
            } else {
                inner.current.insert(pid, parent);
            }
        }
    }

    /// `pid`'s current span ([`SpanId::NONE`] when tracing is off or no
    /// span is open).
    #[inline]
    pub fn current(&self, pid: Pid) -> SpanId {
        if !self.enabled.get() {
            return SpanId::NONE;
        }
        self.inner
            .borrow()
            .current
            .get(&pid)
            .copied()
            .unwrap_or(SpanId::NONE)
    }

    /// A recorded span's parent.
    pub fn parent_of(&self, id: SpanId) -> SpanId {
        if id.is_none() {
            return SpanId::NONE;
        }
        self.inner
            .borrow()
            .span(id)
            .map(|s| s.parent)
            .unwrap_or(SpanId::NONE)
    }

    /// Attach a correlation value (txn id, request id) to a span.
    pub fn set_arg(&self, id: SpanId, arg: u64) {
        if id.is_none() {
            return;
        }
        if let Some(s) = self.inner.borrow_mut().span_mut(id) {
            s.arg = Some(arg);
        }
    }

    // ---- metrics ---------------------------------------------------

    /// Bump a counter.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if !self.enabled.get() {
            return;
        }
        self.inner.borrow_mut().registry.add(name, delta);
    }

    /// Sample a gauge on the simulated clock.
    #[inline]
    pub fn gauge(&self, name: &'static str, now: SimTime, value: f64) {
        if !self.enabled.get() {
            return;
        }
        self.inner.borrow_mut().registry.gauge(name, now, value);
    }

    /// Sample a per-key gauge (`name/key`), e.g. per-pid token levels.
    #[inline]
    pub fn gauge_key(&self, name: &'static str, key: u64, now: SimTime, value: f64) {
        if !self.enabled.get() {
            return;
        }
        self.inner
            .borrow_mut()
            .registry
            .gauge(&format!("{name}/{key}"), now, value);
    }

    /// Record a latency observation in a fixed-bucket histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, d: SimDuration) {
        if !self.enabled.get() {
            return;
        }
        self.inner
            .borrow_mut()
            .registry
            .observe_ms(name, d.as_millis_f64());
    }

    // ---- block-request trace --------------------------------------

    /// Install a flat block-request table (see [`RequestTrace`]),
    /// replacing any earlier one; it records independently of the
    /// span/metric flag. Returns whether one was already installed.
    pub fn install_block_trace(&self, trace: RequestTrace) -> bool {
        self.inner.borrow_mut().block.replace(trace).is_some()
    }

    /// Record one finished block request into the flat table, if
    /// installed (`Kernel::enable_trace` subscribes the caller).
    pub fn record_block(&self, req: &Request, service: SimDuration, now: SimTime) {
        if let Some(t) = self.inner.borrow_mut().block.as_mut() {
            t.record(req, service, now);
        }
    }

    /// Read the flat block table, if installed.
    pub fn with_block_trace<R>(&self, f: impl FnOnce(&RequestTrace) -> R) -> Option<R> {
        self.inner.borrow().block.as_ref().map(f)
    }

    // ---- export / inspection --------------------------------------

    /// Snapshot every recorded span, in open order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().spans.clone()
    }

    /// Read the metrics registry.
    pub fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> R {
        f(&self.inner.borrow().registry)
    }

    /// Export spans + gauges as Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_json(&self) -> String {
        let inner = self.inner.borrow();
        crate::chrome::chrome_json(
            inner.process,
            &inner.spans,
            &inner.task_labels,
            &inner.registry,
        )
    }

    /// Export spans as CSV.
    pub fn spans_csv(&self) -> String {
        crate::chrome::spans_csv(&self.inner.borrow().spans)
    }
}

impl Inner {
    fn push_span(
        &mut self,
        layer: Layer,
        name: &'static str,
        pid: Pid,
        causes: &CauseSet,
        now: SimTime,
        parent: SpanId,
    ) -> SpanId {
        if self.spans.len() >= self.span_cap {
            self.spans_dropped += 1;
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u64 + 1);
        self.spans.push(SpanRecord {
            id,
            parent,
            layer,
            name,
            pid,
            causes: causes.clone(),
            start: now,
            end: None,
            arg: None,
        });
        id
    }

    fn span(&self, id: SpanId) -> Option<&SpanRecord> {
        self.spans.get(id.0 as usize - 1)
    }

    fn span_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
        self.spans.get_mut(id.0 as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        let id = tr.begin_current(Layer::Syscall, "write", Pid(1), &CauseSet::of(Pid(1)), t(0));
        assert!(id.is_none());
        tr.end_current(Pid(1), id, t(5));
        tr.count("x", 1);
        tr.gauge("g", t(1), 1.0);
        tr.observe("h", SimDuration::from_millis(1));
        assert!(tr.spans().is_empty());
        assert_eq!(tr.with_registry(|r| r.counter("x")), 0);
    }

    #[test]
    fn current_span_parents_nested_work() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let causes = CauseSet::of(Pid(1));
        let sys = tr.begin_current(Layer::Syscall, "fsync", Pid(1), &causes, t(0));
        let child = tr.begin(Layer::Journal, "journal_wait", Pid(1), &causes, t(10));
        assert_eq!(tr.parent_of(child), sys);
        tr.end(child, t(20));
        tr.end_current(Pid(1), sys, t(30));
        assert_eq!(tr.current(Pid(1)), SpanId::NONE);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].end, Some(t(30)));
        assert_eq!(spans[1].parent, sys);
    }

    #[test]
    fn end_current_restores_parent() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        let causes = CauseSet::of(Pid(2));
        let outer = tr.begin_current(Layer::Journal, "journal_commit", Pid(2), &causes, t(0));
        let inner = tr.begin_current(Layer::Journal, "write_log", Pid(2), &causes, t(1));
        assert_eq!(tr.current(Pid(2)), inner);
        tr.end_current(Pid(2), inner, t(2));
        assert_eq!(tr.current(Pid(2)), outer);
        tr.end_current(Pid(2), outer, t(3));
        assert_eq!(tr.current(Pid(2)), SpanId::NONE);
    }

    #[test]
    fn clones_share_state() {
        let a = Tracer::new();
        let b = a.clone();
        b.set_enabled(true);
        assert!(a.enabled());
        let id = a.begin(Layer::Block, "queue", Pid(3), &CauseSet::of(Pid(3)), t(0));
        b.end(id, t(7));
        let spans = b.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration(), Some(SimDuration::from_nanos(7)));
    }

    #[test]
    fn span_cap_counts_drops() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.inner.borrow_mut().span_cap = 2;
        let causes = CauseSet::of(Pid(1));
        for i in 0..5 {
            tr.begin(Layer::Block, "queue", Pid(1), &causes, t(i));
        }
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.inner.borrow().spans_dropped, 3);
    }
}
