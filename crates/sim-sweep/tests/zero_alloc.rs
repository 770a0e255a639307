//! Steady-state allocation audit (build with `--features alloc-count`).
//!
//! The event core's claim is a zero-allocation steady state: once a
//! world is warm — the event heap, slab queues, cache tables, device
//! slot table and scratch buffers all grown to their working size —
//! processing events should recycle capacity instead of touching the
//! allocator. This test holds the stack to that with the counting global
//! allocator: run the fig01 burst world through its write burst and
//! writeback drain, snapshot the process-wide allocation counter, run
//! several more simulated seconds of the steady mixed read/writeback
//! phase, and require the counter not to move. It does so on the default
//! one-slot HDD and on an SSD with eight hardware slots, where several
//! requests are in service at once. It holds the cached-overwrite regime
//! (Figure 11d's write-mem arm) to the same: once each writer's region is
//! dirty, re-dirtying it splits, joins and re-tags dirty spans without
//! touching the allocator. An empty event queue and a device of any depth
//! must cost nothing to build either: the check fuzzer and the fleet
//! build thousands of worlds.
//!
//! The file contains exactly one test on purpose: the counters are
//! process-wide, so a concurrently running test in the same binary
//! would pollute the window.

#![cfg(feature = "alloc-count")]

use sim_block::IoPrio;
use sim_core::{alloc_count, EventQueue, SimDuration, SimTime};
use sim_device::{DiskModel, QueuedDevice, QueuedDeviceConfig, SsdModel};
use sim_experiments::fig01_write_burst::{build_burst_world, Config};
use sim_experiments::registry::Profile;
use sim_experiments::setup::{build_world, SchedChoice, Setup};
use sim_experiments::{KB, MB};
use sim_workloads::MemOverwriter;

/// Allocations `f` makes.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = alloc_count::snapshot();
    f();
    alloc_count::snapshot().allocs - before.allocs
}

#[test]
fn fig01_steady_state_allocates_nothing() {
    assert_eq!(
        allocs_in(|| drop(std::hint::black_box(EventQueue::<u64>::new()))),
        0,
        "creating an empty event queue allocated"
    );
    let model: Box<dyn DiskModel> = Box::new(SsdModel::new());
    assert_eq!(
        allocs_in(|| drop(std::hint::black_box(QueuedDevice::new(
            model,
            QueuedDeviceConfig::with_depth(65_536)
        )))),
        0,
        "building a deep hardware queue allocated"
    );

    let cfg = Config::at(Profile::Quick, 0);
    for setup in [
        Setup::new(SchedChoice::Cfq),
        Setup::new(SchedChoice::Cfq).on_ssd().queue_depth(8),
    ] {
        let (mut w, _k, _a) = build_burst_world(&cfg, setup);
        // Warm up: pre-burst streaming, the 1 s write burst at t = 5 s,
        // and the writeback drain that follows. By t = 25 s every arena
        // has hit its high-water mark.
        w.run_until(SimTime::ZERO + SimDuration::from_secs(25));
        let before = alloc_count::snapshot();
        w.run_until(SimTime::ZERO + SimDuration::from_secs(29));
        let after = alloc_count::snapshot();
        assert_eq!(
            after.allocs - before.allocs,
            0,
            "steady-state window allocated on {:?} at depth {} \
             (allocs {} -> {}, frees {} -> {})",
            setup.device,
            setup.queue_depth,
            before.allocs,
            after.allocs,
            before.frees,
            after.frees
        );
    }

    // Eight cached overwriters at eight priorities, 256 KB writes over a
    // 4 MB region each, under AFQ.
    let (mut w, k) = build_world(Setup::new(SchedChoice::Afq));
    for level in 0..8 {
        let file = w.prealloc_file(k, 8 * MB, true);
        let pid = w.spawn(k, Box::new(MemOverwriter::new(file, 4 * MB, 256 * KB)));
        w.set_ioprio(k, pid, IoPrio::best_effort(level));
    }
    w.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let allocs = allocs_in(|| w.run_until(SimTime::ZERO + SimDuration::from_secs(2)));
    assert_eq!(allocs, 0, "the warm cached-overwrite world allocated");
}
