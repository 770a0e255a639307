//! The tracing handle. One [`Tracer`] is created per *traced* kernel,
//! when tracing is turned on; the kernel's span probe records into it
//! everything the stack reports through the kernel's event stream, and
//! exporters read it back. Clones share one span store and metrics
//! registry, so a request crossing layers stays one connected tree.
//!
//! Only the span probe writes into it, so the handle records whatever it
//! is given.

use crate::metrics::Registry;
use crate::span::{Layer, SpanId, SpanRecord};
use sim_core::{CauseSet, FastMap, Pid, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Retained-span cap; past it new spans are counted as dropped, in the
/// `trace.spans_dropped` counter.
const DEFAULT_SPAN_CAP: usize = 1 << 20;

#[derive(Debug, Default)]
struct Inner {
    process: u32,
    spans: Vec<SpanRecord>,
    current: FastMap<Pid, SpanId>,
    task_labels: FastMap<Pid, &'static str>,
    registry: Registry,
    span_cap: usize,
}

/// Cheap-to-clone handle onto the trace state of one *traced* kernel.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Rc<RefCell<Inner>>,
}

impl Tracer {
    /// An empty tracer whose Chrome-trace `pid` field is `process`
    /// (one track group per kernel instance in multi-machine worlds).
    pub fn for_kernel(process: u32) -> Self {
        Tracer {
            inner: Rc::new(RefCell::new(Inner {
                process,
                span_cap: DEFAULT_SPAN_CAP,
                ..Default::default()
            })),
        }
    }

    /// Name a task for exports ("journal", "writeback").
    pub fn label_task(&self, pid: Pid, label: &'static str) {
        self.inner.borrow_mut().task_labels.insert(pid, label);
    }

    // ---- spans -----------------------------------------------------

    /// Open a span whose parent is `pid`'s current span (if any).
    pub fn begin(
        &self,
        layer: Layer,
        name: &'static str,
        pid: Pid,
        causes: &CauseSet,
        now: SimTime,
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let parent = inner.current.get(&pid).copied().unwrap_or(SpanId::NONE);
        inner.push_span(layer, name, pid, causes, now, parent)
    }

    /// Open a span with an explicit parent.
    pub fn begin_child(
        &self,
        parent: SpanId,
        layer: Layer,
        name: &'static str,
        pid: Pid,
        causes: &CauseSet,
        now: SimTime,
    ) -> SpanId {
        self.inner
            .borrow_mut()
            .push_span(layer, name, pid, causes, now, parent)
    }

    /// Open a span and make it `pid`'s current span, so lower layers
    /// instrumented later in the same logical operation parent to it.
    pub fn begin_current(
        &self,
        layer: Layer,
        name: &'static str,
        pid: Pid,
        causes: &CauseSet,
        now: SimTime,
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let parent = inner.current.get(&pid).copied().unwrap_or(SpanId::NONE);
        let id = inner.push_span(layer, name, pid, causes, now, parent);
        if !id.is_none() {
            inner.current.insert(pid, id);
        }
        id
    }

    /// Close a span. No-op for [`SpanId::NONE`] or unknown ids, so
    /// callers need not check whether the span was ever opened.
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

    /// `pid`'s current span ([`SpanId::NONE`] when no span is open).
    pub fn current(&self, pid: Pid) -> SpanId {
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
    pub fn count(&self, name: &'static str, delta: u64) {
        self.inner.borrow_mut().registry.add(name, delta);
    }

    /// Sample a gauge on the simulated clock.
    pub fn gauge(&self, name: &'static str, now: SimTime, value: f64) {
        self.inner.borrow_mut().registry.gauge(name, now, value);
    }

    /// Sample a per-key gauge (`name/key`), e.g. per-pid token levels.
    pub fn gauge_key(&self, name: &'static str, key: u64, now: SimTime, value: f64) {
        self.inner
            .borrow_mut()
            .registry
            .gauge(&format!("{name}/{key}"), now, value);
    }

    /// Record a latency observation in a fixed-bucket histogram.
    pub fn observe(&self, name: &'static str, d: SimDuration) {
        self.inner
            .borrow_mut()
            .registry
            .observe_ms(name, d.as_millis_f64());
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
            self.registry.add("trace.spans_dropped", 1);
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
    fn current_span_parents_nested_work() {
        let tr = Tracer::for_kernel(0);
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
        let tr = Tracer::for_kernel(0);
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
        let a = Tracer::for_kernel(0);
        let b = a.clone();
        let id = a.begin(Layer::Block, "queue", Pid(3), &CauseSet::of(Pid(3)), t(0));
        b.end(id, t(7));
        let spans = b.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration(), Some(SimDuration::from_nanos(7)));
    }

    #[test]
    fn span_cap_counts_drops() {
        let tr = Tracer::for_kernel(0);
        tr.inner.borrow_mut().span_cap = 2;
        let causes = CauseSet::of(Pid(1));
        for i in 0..5 {
            tr.begin(Layer::Block, "queue", Pid(1), &causes, t(i));
        }
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.with_registry(|r| r.counter("trace.spans_dropped")), 3);
        let json = tr.chrome_json();
        let note = r#"{"ph":"M","name":"process_labels","pid":0,"tid":0,"args":{"labels":"3 spans dropped"}}"#;
        assert!(json.contains(note), "{json}");
        crate::json::validate(&json).expect("well-formed");
    }
}
