//! `sim-prof`: a host-side self-profiler for the simulator's own hot
//! path.
//!
//! The simulator's *output* is a pure function of config and seed; the
//! time it takes to produce that output is not, and that wall-clock cost
//! has to be attributed to DES phases before it can be argued down. This
//! module provides the attribution: a [`Profiler`] handle that the event
//! queue and the kernel hot paths consult, charging wall-clock
//! nanoseconds and call counts to a small fixed set of [`Phase`]s, plus
//! high-watermark / occupancy gauges for the event queue and the
//! hardware queue.
//!
//! Contract, matching the fault/audit/chaos planes: the profiler is
//! optional (`Option<Profiler>` at every hook site) and costs one branch
//! when absent. It is a pure *side channel* — it reads wall-clock time
//! but never feeds anything back into simulation state, so simulated
//! output is byte-identical whether the plane is installed, enabled, or
//! missing. This is the one sanctioned use of wall-clock time in
//! `sim-core`; the determinism contract in the crate docs is about
//! simulation *results*, which the profiler cannot touch.
//!
//! Handles are `Rc`-shared (one simulation runs on one thread, like the
//! `Tracer`-style planes above this crate). Installation is by thread:
//! [`install_thread`] parks a handle in a thread-local that
//! `World::new`/`Kernel::new` consult, so experiment entry points that
//! build their worlds internally (`run_cell`, the bench panel) can be
//! profiled without threading a handle through every figure config.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// A DES phase that wall-clock time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Event-queue heap push ([`crate::EventQueue::schedule`]).
    EventPush,
    /// Event-queue heap pop ([`crate::EventQueue::pop`]).
    EventPop,
    /// Scheduler decisions (every `IoSched` call made through the
    /// kernel's scheduler shim).
    Sched,
    /// Page-cache bookkeeping (dirtying pages, miss computation).
    Cache,
    /// Writeback passes (background and scheduler-commanded).
    Writeback,
    /// Journal / filesystem protocol steps (commit timer, fsync entry).
    Journal,
    /// Handing a dispatched request to the device's hardware queue.
    MqPump,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 7] = [
        Phase::EventPush,
        Phase::EventPop,
        Phase::Sched,
        Phase::Cache,
        Phase::Writeback,
        Phase::Journal,
        Phase::MqPump,
    ];

    /// Stable snake_case name (JSON keys, registry counter names).
    pub fn name(self) -> &'static str {
        match self {
            Phase::EventPush => "event_push",
            Phase::EventPop => "event_pop",
            Phase::Sched => "sched",
            Phase::Cache => "cache",
            Phase::Writeback => "writeback",
            Phase::Journal => "journal",
            Phase::MqPump => "mq_pump",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

const NPHASES: usize = Phase::ALL.len();

struct Inner {
    enabled: Cell<bool>,
    calls: [Cell<u64>; NPHASES],
    nanos: [Cell<u64>; NPHASES],
    depth_max: Cell<u64>,
    depth_sum: Cell<u64>,
    depth_samples: Cell<u64>,
    mq_inflight_max: Cell<u64>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            enabled: Cell::new(false),
            calls: std::array::from_fn(|_| Cell::new(0)),
            nanos: std::array::from_fn(|_| Cell::new(0)),
            depth_max: Cell::new(0),
            depth_sum: Cell::new(0),
            depth_samples: Cell::new(0),
            mq_inflight_max: Cell::new(0),
        }
    }
}

/// Shared profiler handle; clones observe the same accumulators.
/// Disabled by default — a disabled handle records nothing and costs
/// one branch per hook.
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Rc<Inner>,
}

impl Profiler {
    /// A fresh, disabled profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// Start timing a phase; `None` when disabled (and then
    /// [`Profiler::record`] is never reached).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.inner.enabled.get() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Charge the time since `t0` (from [`Profiler::start`]) to `phase`.
    #[inline]
    pub fn record(&self, phase: Phase, t0: Instant) {
        let i = phase.idx();
        let c = &self.inner.calls[i];
        c.set(c.get().saturating_add(1));
        let n = &self.inner.nanos[i];
        n.set(n.get().saturating_add(t0.elapsed().as_nanos() as u64));
    }

    /// Record an event-queue depth observation (post-push / post-pop).
    #[inline]
    pub fn sample_depth(&self, len: usize) {
        if !self.inner.enabled.get() {
            return;
        }
        let len = len as u64;
        if len > self.inner.depth_max.get() {
            self.inner.depth_max.set(len);
        }
        let s = &self.inner.depth_sum;
        s.set(s.get().saturating_add(len));
        let n = &self.inner.depth_samples;
        n.set(n.get().saturating_add(1));
    }

    /// Record the hardware queue's in-flight count after an accept;
    /// keeps the high watermark.
    #[inline]
    pub fn sample_mq(&self, in_flight: usize) {
        if !self.inner.enabled.get() {
            return;
        }
        if in_flight as u64 > self.inner.mq_inflight_max.get() {
            self.inner.mq_inflight_max.set(in_flight as u64);
        }
    }

    /// Copy out the current accumulators.
    pub fn snapshot(&self) -> ProfSnapshot {
        let phases = Phase::ALL
            .iter()
            .map(|&p| PhaseStat {
                phase: p,
                calls: self.inner.calls[p.idx()].get(),
                nanos: self.inner.nanos[p.idx()].get(),
            })
            .collect();
        let samples = self.inner.depth_samples.get();
        ProfSnapshot {
            phases,
            depth_max: self.inner.depth_max.get(),
            depth_mean: if samples == 0 {
                0.0
            } else {
                self.inner.depth_sum.get() as f64 / samples as f64
            },
            mq_inflight_max: self.inner.mq_inflight_max.get(),
        }
    }
}

/// One phase's accumulated cost.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Times the phase ran.
    pub calls: u64,
    /// Wall-clock nanoseconds charged.
    pub nanos: u64,
}

impl PhaseStat {
    /// Mean nanoseconds per call; zero when never called.
    pub fn mean_nanos(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }
}

/// A point-in-time copy of a profiler's accumulators.
#[derive(Debug, Clone)]
pub struct ProfSnapshot {
    /// Per-phase stats in [`Phase::ALL`] order (zeros included).
    pub phases: Vec<PhaseStat>,
    /// Largest event-queue depth observed.
    pub depth_max: u64,
    /// Mean event-queue depth over all push/pop observations.
    pub depth_mean: f64,
    /// Largest blk-mq hardware in-flight count observed.
    pub mq_inflight_max: u64,
}

impl ProfSnapshot {
    /// Total wall-clock nanoseconds attributed across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }
}

/// Time a phase behind an `Option<Profiler>` hook; `None` (no plane or
/// disabled) costs one branch.
#[inline]
pub fn tick(p: &Option<Profiler>) -> Option<Instant> {
    match p {
        Some(p) => p.start(),
        None => None,
    }
}

/// Close a [`tick`]; a `None` start (plane off) is a no-op.
#[inline]
pub fn tock(p: &Option<Profiler>, phase: Phase, t0: Option<Instant>) {
    if let (Some(p), Some(t0)) = (p, t0) {
        p.record(phase, t0);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Profiler>> = const { RefCell::new(None) };
}

/// Park a profiler handle for this thread; worlds and kernels built
/// afterwards on the same thread attach to it.
pub fn install_thread(p: &Profiler) {
    CURRENT.with(|c| *c.borrow_mut() = Some(p.clone()));
}

/// Remove this thread's parked profiler, if any.
pub fn uninstall_thread() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// This thread's parked profiler, if one is installed.
pub fn thread_profiler() -> Option<Profiler> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::new();
        assert!(p.start().is_none());
        p.sample_depth(10);
        p.sample_mq(4);
        let s = p.snapshot();
        assert_eq!(s.total_nanos(), 0);
        assert_eq!(s.depth_max, 0);
        assert_eq!(s.mq_inflight_max, 0);
        assert!(s.phases.iter().all(|ps| ps.calls == 0));
    }

    #[test]
    fn enabled_profiler_attributes_time_and_gauges() {
        let p = Profiler::new();
        p.set_enabled(true);
        let t0 = p.start().expect("enabled");
        p.record(Phase::Sched, t0);
        p.sample_depth(5);
        p.sample_depth(3);
        p.sample_mq(7);
        let s = p.snapshot();
        let sched = s.phases.iter().find(|ps| ps.phase == Phase::Sched).unwrap();
        assert_eq!(sched.calls, 1);
        assert_eq!(s.depth_max, 5);
        assert!((s.depth_mean - 4.0).abs() < 1e-9);
        assert_eq!(s.mq_inflight_max, 7);
        assert!(sched.mean_nanos() >= 0.0);
    }

    #[test]
    fn clones_share_accumulators() {
        let p = Profiler::new();
        p.set_enabled(true);
        let q = p.clone();
        if let Some(t0) = q.start() {
            q.record(Phase::Cache, t0);
        }
        assert_eq!(p.snapshot().phases[Phase::Cache as usize].calls, 1);
    }

    #[test]
    fn thread_install_round_trips() {
        uninstall_thread();
        assert!(thread_profiler().is_none());
        let p = Profiler::new();
        install_thread(&p);
        assert!(thread_profiler().is_some());
        uninstall_thread();
        assert!(thread_profiler().is_none());
    }

    #[test]
    fn option_helpers_cost_nothing_when_absent() {
        let none: Option<Profiler> = None;
        let t0 = tick(&none);
        assert!(t0.is_none());
        tock(&none, Phase::EventPop, t0);
        let some = Some(Profiler::new()); // present but disabled
        assert!(tick(&some).is_none());
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "event_push",
                "event_pop",
                "sched",
                "cache",
                "writeback",
                "journal",
                "mq_pump"
            ]
        );
    }
}
