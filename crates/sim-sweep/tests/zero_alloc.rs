//! Steady-state allocation audit (build with `--features alloc-count`).
//!
//! The event core's claim is a zero-allocation steady state: once the
//! fig01 world is warm — the event heap, slab queues, cache tables, and
//! scratch buffers all grown to their working size — processing events
//! should recycle capacity instead of touching the allocator. This test
//! holds the stack to that with the counting global allocator: run
//! fig01 through its write burst and writeback drain, snapshot the
//! process-wide allocation counter, run several more simulated seconds
//! of the steady mixed read/writeback phase, and require the counter
//! not to move. An empty event queue must cost nothing either: the
//! check fuzzer and the fleet build thousands of worlds.
//!
//! The file contains exactly one test on purpose: the counters are
//! process-wide, so a concurrently running test in the same binary
//! would pollute the window.

#![cfg(feature = "alloc-count")]

use sim_core::{alloc_count, EventQueue, SimDuration, SimTime};
use sim_experiments::fig01_write_burst::{build_burst_world, Config};
use sim_experiments::registry::Profile;
use sim_experiments::setup::SchedChoice;

#[test]
fn fig01_steady_state_allocates_nothing() {
    let before = alloc_count::snapshot();
    drop(std::hint::black_box(EventQueue::<u64>::new()));
    let after = alloc_count::snapshot();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "creating an empty event queue allocated"
    );

    let cfg = Config::at(Profile::Quick, 0);
    let (mut w, _k, _a) = build_burst_world(&cfg, SchedChoice::Cfq, None);
    // Warm up: pre-burst streaming, the 1 s write burst at t = 5 s, and
    // the writeback drain that follows. By t = 25 s every arena has hit
    // its high-water mark.
    w.run_until(SimTime::ZERO + SimDuration::from_secs(25));
    let before = alloc_count::snapshot();
    w.run_until(SimTime::ZERO + SimDuration::from_secs(29));
    let after = alloc_count::snapshot();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "steady-state window allocated (allocs {} -> {}, frees {} -> {})",
        before.allocs,
        after.allocs,
        before.frees,
        after.frees
    );
}
