//! Queued-device equivalence: at hardware queue depth 1 the queued
//! plane admits one request at a time, so it must replay *exactly* the
//! serial device's event schedule — same syscall outcomes, same auditor
//! verdicts, same end-of-run kernel counters — for every scheduler on
//! both device models. Any drift here means the queued plane changed
//! simulation semantics rather than just generalizing the device.

use sim_check::{generate, GenConfig};
use sim_core::SimRng;
use sim_sweep::check::{run_one, run_with, RunOpts, ALL_DEVICES, ALL_SCHEDS};

fn at_depth(depth: u32) -> RunOpts {
    RunOpts {
        queue_depth: Some(depth),
        ..Default::default()
    }
}

/// Programs fuzzed per scheduler × device cell. Each program replays
/// 2 × 9 × 2 = 36 times; keep the count small enough for CI.
const PROGRAMS: u64 = 4;

#[test]
fn depth_1_is_byte_identical_to_the_serial_device() {
    for idx in 0..PROGRAMS {
        let spec = generate(&mut SimRng::stream(0xd1, idx), &GenConfig::default());
        for &device in &ALL_DEVICES {
            for &sched in &ALL_SCHEDS {
                let serial = run_one(&spec, sched, device, None);
                let queued = run_with(&spec, sched, device, at_depth(1));
                let label = format!("program {idx}, {} on {device:?}", sched.name());
                assert_eq!(
                    serial.per_proc, queued.per_proc,
                    "{label}: syscall outcomes diverge at depth 1"
                );
                assert_eq!(
                    serial.violations, queued.violations,
                    "{label}: auditor verdicts diverge at depth 1"
                );
                assert_eq!(
                    serial.io_errors, queued.io_errors,
                    "{label}: io_errors diverge at depth 1"
                );
                assert_eq!(
                    serial.fingerprint, queued.fingerprint,
                    "{label}: kernel counters diverge at depth 1"
                );
            }
        }
    }
}

#[test]
fn deep_queues_preserve_syscall_results() {
    // Depth 8 may reorder device service arbitrarily, but the
    // differential oracle still holds: results match the serial noop
    // reference and no auditor (including the in-flight accounting
    // auditor) trips.
    for idx in 0..2 {
        let spec = generate(&mut SimRng::stream(0xd8, idx), &GenConfig::default());
        for &device in &ALL_DEVICES {
            let reference = run_one(&spec, ALL_SCHEDS[0], device, None);
            for &sched in &ALL_SCHEDS {
                let deep = run_with(&spec, sched, device, at_depth(8));
                let label = format!("program {idx}, {} on {device:?}", sched.name());
                assert_eq!(
                    deep.violations,
                    Vec::<String>::new(),
                    "{label}: auditor violation at depth 8"
                );
                assert_eq!(
                    deep.per_proc, reference.per_proc,
                    "{label}: depth 8 changed syscall results"
                );
            }
        }
    }
}
