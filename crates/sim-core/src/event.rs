//! The discrete-event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)`; the sequence number makes
//! simultaneous events fire in insertion order, which keeps every run
//! bit-for-bit deterministic.
//!
//! The queue is one `BinaryHeap` keyed reversed-`(time, seq)`. Queues in
//! this stack are shallow (a few events deep on most worlds, never more
//! than a few thousand), and the check fuzzer and the fleet build
//! thousands of short-lived worlds, so what matters is that `new()`
//! allocates nothing; the heap's buffer grows to its high-water depth and
//! is reused from then on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::prof::{Phase, Profiler};
use crate::time::SimTime;

/// An event scheduled for a future instant, carrying a caller-defined
/// payload `E` (the kernel crate uses an enum of everything that can
/// happen: device completions, timer expiries, process wake-ups, ...).
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion sequence; ties on `time` fire in insertion order.
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

/// Heap entry: reversed `(time, seq)` order makes `BinaryHeap` (a
/// max-heap) pop earliest-first.
struct Pending<E>(ScheduledEvent<E>);

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// A deterministic earliest-first event queue.
///
/// The queue also tracks the current simulation time: popping an event
/// advances the clock to that event's timestamp. Scheduling an event in the
/// past is a logic error and is clamped to `now` (with a debug assertion);
/// release builds count the violation in [`EventQueue::late_schedules`],
/// which the kernel's drain path and the check harness treat as fatal.
pub struct EventQueue<E> {
    heap: BinaryHeap<Pending<E>>,
    now: SimTime,
    seq: u64,
    popped: u64,
    late: u64,
    /// Self-profiler plane; `None` (the default) keeps push/pop free of
    /// profiling branches beyond a single `Option` check.
    prof: Option<Profiler>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
            late: 0,
            prof: None,
        }
    }

    /// Install a self-profiler: pushes and pops are timed (phases
    /// [`Phase::EventPush`] / [`Phase::EventPop`]) and the queue depth
    /// is sampled after each. Profiling reads wall-clock time only; it
    /// never changes what the queue returns.
    pub fn set_profiler(&mut self, p: Profiler) {
        self.prof = Some(p);
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Times scheduled in the past so far (each was clamped to `now`).
    /// Always zero in a correct simulation; release builds expose the
    /// count so the invariant stays checkable where the debug assertion
    /// in [`EventQueue::schedule`] is compiled out. The kernel's
    /// quiescence path and the `sim-check` event-queue auditor fail a run
    /// in which this ever becomes nonzero.
    #[inline]
    pub fn late_schedules(&self) -> u64 {
        self.late
    }

    /// Schedule `payload` to fire at `time`. Times in the past are clamped
    /// to `now` so the simulation can never move backwards; the clamp is
    /// counted in [`EventQueue::late_schedules`] and treated as a fatal
    /// invariant violation by the check harness.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        debug_assert!(
            time >= self.now,
            "scheduled an event in the past: {time:?} < {:?}",
            self.now
        );
        self.schedule_unchecked(time, payload);
    }

    /// [`EventQueue::schedule`] without the debug assertion — exactly
    /// what a buggy caller does in a release build. Late times are still
    /// clamped and counted; the only use for calling this directly is
    /// the `--inject-late` probe in `runner check`, which plants one
    /// late event to prove the gate turns the count into a failure.
    pub fn schedule_unchecked(&mut self, time: SimTime, payload: E) {
        if time < self.now {
            self.late += 1;
        }
        let ev = Pending(ScheduledEvent {
            time: time.max(self.now),
            seq: self.seq,
            payload,
        });
        self.seq += 1;
        // Profiling folded into one branch: the common disabled path pays
        // a single `Option` check and nothing else.
        if let Some(p) = self.prof.clone() {
            let t0 = p.start();
            self.heap.push(ev);
            if let Some(t0) = t0 {
                p.record(Phase::EventPush, t0);
            }
            p.sample_depth(self.len());
        } else {
            self.heap.push(ev);
        }
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if let Some(p) = self.prof.clone() {
            let t0 = p.start();
            let ev = self.pop_inner()?;
            if let Some(t0) = t0 {
                p.record(Phase::EventPop, t0);
            }
            p.sample_depth(self.len());
            Some(ev)
        } else {
            self.pop_inner()
        }
    }

    fn pop_inner(&mut self) -> Option<ScheduledEvent<E>> {
        let Pending(ev) = self.heap.pop()?;
        self.now = ev.time;
        self.popped += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn late_schedules_are_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), 1u32);
        assert_eq!(q.pop().expect("scheduled").time, SimTime::from_nanos(100));
        assert_eq!(q.late_schedules(), 0);
        // A buggy caller in a release build schedules behind the clock.
        q.schedule_unchecked(SimTime::from_nanos(40), 2);
        assert_eq!(q.late_schedules(), 1);
        let ev = q.pop().expect("clamped event still fires");
        assert_eq!(ev.time, SimTime::from_nanos(100), "clamped to now");
        assert_eq!(ev.payload, 2);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_nanos(30));
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn profiler_observes_without_changing_order() {
        use crate::prof::{Phase, Profiler};
        let p = Profiler::new();
        p.set_enabled(true);
        let mut q = EventQueue::new();
        q.set_profiler(p.clone());
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"], "profiling must not reorder");
        let s = p.snapshot();
        assert_eq!(s.phases[Phase::EventPush as usize].calls, 3);
        assert_eq!(s.phases[Phase::EventPop as usize].calls, 3);
        assert_eq!(s.depth_max, 3);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), ());
        q.pop();
        // Scheduling "now" after time advanced is fine:
        q.schedule(q.now() + SimDuration::from_nanos(1), ());
        assert_eq!(q.pop().unwrap().time, SimTime::from_nanos(101));
    }

    #[test]
    fn far_future_events_and_the_max_sentinel_pop_in_order() {
        let mut q = EventQueue::new();
        // Seconds ahead of the clock, behind a near event.
        q.schedule(SimTime::from_nanos(5_000_000_000), "far");
        q.schedule(SimTime::from_nanos(100), "near");
        // The maximum representable time works as an "infinite" sentinel.
        q.schedule(SimTime::MAX, "sentinel");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(100)));
        assert_eq!(q.pop().unwrap().payload, "near");
        assert_eq!(q.pop().unwrap().payload, "far");
        assert_eq!(q.now(), SimTime::from_nanos(5_000_000_000));
        assert_eq!(q.pop().unwrap().payload, "sentinel");
        assert_eq!(q.now(), SimTime::MAX);
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_across_many_seconds() {
        // March the clock across several simulated seconds while events
        // stream in just ahead of it.
        let mut q = EventQueue::new();
        let step = SimDuration::from_millis(200);
        q.schedule(SimTime::ZERO + step, 0u64);
        let mut popped = Vec::new();
        for i in 1..40u64 {
            let e = q.pop().expect("stream continues");
            popped.push(e.payload);
            q.schedule(e.time + step, i);
        }
        assert_eq!(popped, (0..39).collect::<Vec<_>>());
        // 39 * 200ms = 7.8 s.
        assert!(q.now() > SimTime::from_nanos(7 << 30));
    }

    /// The queue pops in *identical* `(time, seq)` order to an obviously
    /// correct model — a flat list popped by linear min-scan — over
    /// fuzzed schedules mixing same-instant floods, sub-millisecond
    /// jitter, nearby and second-scale spreads, and far-future times.
    #[test]
    fn pops_match_linear_scan_model_on_fuzzed_schedules() {
        /// `(time, seq, id)`; the seq is the insertion count.
        type Model = Vec<(SimTime, u64, u64)>;
        fn model_pop(model: &mut Model) -> Option<(SimTime, u64, u64)> {
            let i = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
            Some(model.swap_remove(i))
        }
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(0xca1e_4da2 ^ seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model = Model::new();
            let mut next_id = 0u64;
            let mut model_now = SimTime::ZERO;
            for _ in 0..2_000 {
                let burst = match rng.gen_range(4) {
                    0 => rng.gen_range(20) + 1, // same-instant flood
                    _ => 1,
                };
                let offset = match rng.gen_range(6) {
                    0 => 0,                                   // this very instant
                    1 => rng.gen_range(1 << 17),              // within ~131 µs
                    2 => rng.gen_range(1 << 25),              // tens of ms
                    3 => (1 << 30) - 64 + rng.gen_range(128), // ~1.07 s
                    4 => (1 << 30) + rng.gen_range(1 << 32),  // seconds out
                    _ => rng.gen_range(1 << 21),              // nearby
                };
                let t = q.now() + SimDuration::from_nanos(offset);
                for _ in 0..burst {
                    q.schedule(t, next_id);
                    model.push((t.max(model_now), next_id, next_id));
                    next_id += 1;
                }
                // Pop a few events (sometimes none) to advance the clock.
                for _ in 0..rng.gen_range(4) {
                    let got = q.pop().map(|g| (g.time, g.seq, g.payload));
                    let want = model_pop(&mut model);
                    assert_eq!(got, want, "divergence at seed {seed}");
                    if let Some((t, _, _)) = want {
                        model_now = t;
                    }
                }
                assert_eq!(q.len(), model.len());
            }
            // Drain both completely.
            while let Some(want) = model_pop(&mut model) {
                let g = q.pop().expect("queue drains with the model");
                assert_eq!((g.time, g.seq, g.payload), want);
            }
            assert!(q.pop().is_none());
            assert_eq!(q.late_schedules(), 0);
        }
    }
}
