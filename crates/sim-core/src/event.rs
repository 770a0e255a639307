//! The discrete-event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)`; the sequence number makes
//! simultaneous events fire in insertion order, which keeps every run
//! bit-for-bit deterministic.
//!
//! # Implementation: calendar wheel + overflow heap
//!
//! The queue is a single-level calendar (timing) wheel of
//! [`NUM_SLOTS`] ring slots, each [`SLOT_NS`] nanoseconds wide, covering a
//! horizon of ~1.07 simulated seconds ahead of the clock — which holds
//! nearly every event a running simulation schedules (device completions,
//! process steps, writeback ticks). Events beyond the horizon go to a
//! small binary min-heap and migrate into the wheel as the clock
//! approaches them; events are never dropped or reordered by migration.
//!
//! Within a slot, entries are ordered by `(time, seq)` exactly as the old
//! `BinaryHeap` implementation ordered the whole queue: a slot is sorted
//! lazily the first time the cursor pops from it, and later insertions
//! into the *current* slot binary-search their position, so strict
//! FIFO-by-`seq` within a tick is preserved and the pop sequence is
//! byte-identical to a global `(time, seq)` heap (a property-tested
//! invariant, see `wheel_matches_reference_heap_on_fuzzed_schedules`).
//!
//! Pushes append to a `Vec` slot and pops scan a 1 Kbit occupancy bitmap,
//! so the steady state allocates nothing once slot vectors have reached
//! their high-water capacity.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::prof::{Phase, Profiler};
use crate::time::SimTime;

/// log2 of the slot width in nanoseconds: 2^17 ns ≈ 131 µs.
const SLOT_SHIFT: u32 = 17;
/// Number of wheel slots (must stay a power of two). With
/// [`SLOT_SHIFT`] = 17 the wheel horizon is 2^30 ns ≈ 1.07 s.
const NUM_SLOTS: usize = 1 << 13;
/// Words in the slot-occupancy bitmap.
const OCC_WORDS: usize = NUM_SLOTS / 64;

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

/// A wheel-slot entry (also the overflow-heap entry payload).
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

/// Overflow-heap wrapper: reversed `(time, seq)` order makes
/// `BinaryHeap` (a max-heap) pop earliest-first.
struct OverflowEntry<E>(Entry<E>);

impl<E> PartialEq for OverflowEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<E> Eq for OverflowEntry<E> {}
impl<E> PartialOrd for OverflowEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OverflowEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .time
            .cmp(&self.0.time)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

#[inline]
fn tick_of(t: SimTime) -> u64 {
    t.as_nanos() >> SLOT_SHIFT
}

/// A deterministic earliest-first event queue.
///
/// The queue also tracks the current simulation time: popping an event
/// advances the clock to that event's timestamp. Scheduling an event in the
/// past is a logic error and is clamped to `now` (with a debug assertion);
/// release builds count the violation in [`EventQueue::late_schedules`],
/// which the kernel's drain path and the check harness treat as fatal.
pub struct EventQueue<E> {
    /// Ring of calendar slots; slot `tick & (NUM_SLOTS-1)` holds events
    /// whose slot number is `tick`, for ticks within the current horizon
    /// window `[cursor_tick, cursor_tick + NUM_SLOTS)`.
    slots: Box<[Vec<Entry<E>>]>,
    /// One bit per slot: set iff the slot is non-empty.
    occ: [u64; OCC_WORDS],
    /// How many slots have been pre-sized (see `schedule_unchecked`).
    /// A cold slot's first-ever push would lazily allocate its entry
    /// buffer — a slow trickle (coupon-collector over the ring) that
    /// would break the zero-allocation steady state long after warmup.
    /// Pre-sizing all slots at construction instead would put ~8k
    /// allocations on every `new()`, swamping short-lived worlds (the
    /// check fuzzer builds thousands), so each push warms a few more
    /// slots until the whole ring is covered: long-lived queues go
    /// allocation-quiet within their first ~2k events, short-lived
    /// ones never pay for slots they don't reach.
    prepped: usize,
    /// Absolute slot number the pop cursor is at (slot of `now`, or of
    /// the next overflow event after a jump across an empty stretch).
    cursor_tick: u64,
    /// Whether the cursor slot's vector is sorted descending by
    /// `(time, seq)` (pops take from the back).
    cur_sorted: bool,
    /// Events currently stored in wheel slots.
    wheel_len: usize,
    /// Far-future events (≥ one horizon ahead of the cursor).
    overflow: BinaryHeap<OverflowEntry<E>>,
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
            slots: (0..NUM_SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            prepped: 0,
            cursor_tick: 0,
            cur_sorted: false,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
            late: 0,
            prof: None,
        }
    }

    /// Install a self-profiler: wheel pushes and pops are timed (phases
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
        self.wheel_len + self.overflow.len()
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
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        // Amortized slot pre-sizing; see the `prepped` field doc.
        if self.prepped < NUM_SLOTS {
            let end = (self.prepped + 4).min(NUM_SLOTS);
            for s in &mut self.slots[self.prepped..end] {
                s.reserve(8);
            }
            self.prepped = end;
        }
        // Profiling folded into one branch: the common disabled path pays
        // a single `Option` check and nothing else.
        if let Some(p) = self.prof.clone() {
            let t0 = p.start();
            self.insert(Entry { time, seq, payload });
            if let Some(t0) = t0 {
                p.record(Phase::EventPush, t0);
            }
            p.sample_depth(self.len());
        } else {
            self.insert(Entry { time, seq, payload });
        }
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = self.peek_wheel_time();
        let over = self.overflow.peek().map(|e| e.0.time);
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
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

    // ---- wheel internals -------------------------------------------------

    /// Route an entry to its wheel slot or the overflow heap.
    fn insert(&mut self, e: Entry<E>) {
        let tick = tick_of(e.time);
        // `e.time >= now >= cursor window start`, so the difference is
        // non-negative; at or beyond one horizon it overflows.
        if tick - self.cursor_tick >= NUM_SLOTS as u64 {
            self.overflow.push(OverflowEntry(e));
        } else {
            self.wheel_insert(tick, e);
        }
    }

    fn wheel_insert(&mut self, tick: u64, e: Entry<E>) {
        let slot = (tick as usize) & (NUM_SLOTS - 1);
        let v = &mut self.slots[slot];
        if tick == self.cursor_tick && self.cur_sorted {
            // The cursor already sorted this slot (descending); keep it
            // ordered so pops stay O(1) from the back.
            let key = (e.time, e.seq);
            let pos = v.partition_point(|x| (x.time, x.seq) > key);
            v.insert(pos, e);
        } else {
            v.push(e);
        }
        self.occ[slot >> 6] |= 1 << (slot & 63);
        self.wheel_len += 1;
    }

    /// Move overflow events that have come within the horizon into the
    /// wheel. Cheap when none are due: one heap peek.
    fn migrate_due(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let tick = tick_of(top.0.time);
            if tick - self.cursor_tick >= NUM_SLOTS as u64 {
                break;
            }
            let OverflowEntry(e) = self.overflow.pop().expect("peeked");
            self.wheel_insert(tick, e);
        }
    }

    /// Absolute slot number of the next occupied slot, scanning the
    /// occupancy bitmap circularly from the cursor.
    fn next_wheel_tick(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor_tick as usize) & (NUM_SLOTS - 1);
        let mut word_i = start >> 6;
        let mut word = self.occ[word_i] & (!0u64 << (start & 63));
        for _ in 0..=OCC_WORDS {
            if word != 0 {
                let slot = (word_i << 6) | word.trailing_zeros() as usize;
                let dist = (slot + NUM_SLOTS - start) & (NUM_SLOTS - 1);
                return Some(self.cursor_tick + dist as u64);
            }
            word_i = (word_i + 1) & (OCC_WORDS - 1);
            word = self.occ[word_i];
        }
        unreachable!("wheel_len > 0 but no occupancy bit set");
    }

    /// Earliest event time stored in the wheel, if any.
    fn peek_wheel_time(&self) -> Option<SimTime> {
        let tick = self.next_wheel_tick()?;
        let slot = (tick as usize) & (NUM_SLOTS - 1);
        let v = &self.slots[slot];
        if tick == self.cursor_tick && self.cur_sorted {
            v.last().map(|e| e.time)
        } else {
            v.iter().map(|e| e.time).min()
        }
    }

    fn pop_inner(&mut self) -> Option<ScheduledEvent<E>> {
        self.migrate_due();
        let tick = match self.next_wheel_tick() {
            Some(t) => t,
            None => {
                if self.overflow.is_empty() {
                    return None;
                }
                // The wheel is empty and every pending event is beyond the
                // horizon: jump the window to the earliest one.
                let min_tick = tick_of(self.overflow.peek().expect("nonempty").0.time);
                self.cursor_tick = min_tick;
                self.cur_sorted = false;
                self.migrate_due();
                self.next_wheel_tick().expect("just migrated")
            }
        };
        if tick != self.cursor_tick {
            self.cursor_tick = tick;
            self.cur_sorted = false;
        }
        let slot = (tick as usize) & (NUM_SLOTS - 1);
        if !self.cur_sorted {
            self.slots[slot].sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
            self.cur_sorted = true;
        }
        let e = self.slots[slot].pop().expect("occupied slot");
        self.wheel_len -= 1;
        if self.slots[slot].is_empty() {
            self.occ[slot >> 6] &= !(1 << (slot & 63));
        }
        self.now = e.time;
        self.popped += 1;
        Some(ScheduledEvent {
            time: e.time,
            seq: e.seq,
            payload: e.payload,
        })
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
    fn far_future_events_survive_the_overflow_heap() {
        let mut q = EventQueue::new();
        // Beyond the ~1.07 s horizon — lands in the overflow heap.
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
    fn interleaved_push_pop_across_wheel_wrap() {
        // March the clock across several horizons (wheel wraps) while
        // events stream in just ahead of it.
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
        // 39 * 200ms = 7.8 s >> 1.07 s horizon: the ring wrapped.
        assert!(q.now() > SimTime::from_nanos(7 << 30));
    }

    /// The tentpole invariant: the wheel pops in *identical* `(time, seq)`
    /// order to a reference `(time, seq)` binary heap over fuzzed
    /// schedules mixing same-tick floods, sub-slot jitter, in-horizon
    /// spreads, far-future overflow and wheel-wrap boundaries.
    #[test]
    fn wheel_matches_reference_heap_on_fuzzed_schedules() {
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(0xca1e_4da2 ^ seed);
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut reference: BinaryHeap<std::cmp::Reverse<(SimTime, u64, u64)>> =
                BinaryHeap::new();
            let mut next_id = 0u64;
            let mut ref_seq = 0u64;
            let mut ref_now = SimTime::ZERO;
            for _ in 0..2_000 {
                let burst = match rng.gen_range(4) {
                    0 => rng.gen_range(20) + 1, // same-instant flood
                    _ => 1,
                };
                let offset = match rng.gen_range(6) {
                    0 => 0,                                   // this very tick
                    1 => rng.gen_range(1 << SLOT_SHIFT),      // same slot
                    2 => rng.gen_range(1 << 25),              // in horizon
                    3 => (1 << 30) - 64 + rng.gen_range(128), // horizon boundary
                    4 => (1 << 30) + rng.gen_range(1 << 32),  // deep overflow
                    _ => rng.gen_range(1 << 21),              // nearby slots
                };
                let t = wheel.now() + SimDuration::from_nanos(offset);
                for _ in 0..burst {
                    wheel.schedule(t, next_id);
                    reference.push(std::cmp::Reverse((t.max(ref_now), ref_seq, next_id)));
                    ref_seq += 1;
                    next_id += 1;
                }
                // Pop a few events (sometimes none) to advance the clock.
                for _ in 0..rng.gen_range(4) {
                    let got = wheel.pop();
                    let want = reference.pop();
                    match (got, want) {
                        (None, None) => {}
                        (Some(g), Some(std::cmp::Reverse((t, s, id)))) => {
                            assert_eq!(
                                (g.time, g.seq, g.payload),
                                (t, s, id),
                                "divergence at seed {seed}"
                            );
                            ref_now = t;
                        }
                        (g, w) => panic!(
                            "length divergence at seed {seed}: wheel={:?} ref={:?}",
                            g.map(|e| e.payload),
                            w.map(|r| r.0 .2)
                        ),
                    }
                }
                assert_eq!(wheel.len(), reference.len());
            }
            // Drain both completely.
            while let Some(std::cmp::Reverse((t, s, id))) = reference.pop() {
                let g = wheel.pop().expect("wheel drains with reference");
                assert_eq!((g.time, g.seq, g.payload), (t, s, id));
            }
            assert!(wheel.pop().is_none());
            assert_eq!(wheel.late_schedules(), 0);
        }
    }
}
