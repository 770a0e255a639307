//! Mutation check for the chaos plane: a scheduler with a planted
//! *timing-dependent* bug must sleep through plain `runner check`
//! batches — at queue depths 1 and 8 — and be caught (and shrunk) by a chaos
//! batch.
//!
//! The planted bug ([`Trigger::Dwell`]) is a latency assumption tuned
//! to the happy path: a cause-tag handoff table that loses entries when
//! a data request dwells in the device past a fixed horizon, corrupting
//! every cause set submitted afterwards. With chaos off, device service
//! is a pure function of request and device model, so the dwell
//! distribution over this seed set stays under the horizon and the bug
//! is unreachable; the chaos plane's completion class stretches service
//! times (and queue depth compounds the stretch into extra queueing
//! wait), pushing dwell past the horizon. This is the end-to-end proof
//! that the chaos plane has teeth: a bug class exists that only an
//! adversarially-timed batch can flush out.

use sim_check::{generate, shrink, GenConfig, ProgramSpec, Trigger};
use sim_core::{SimDuration, SimRng};
use sim_experiments::{DeviceChoice, SchedChoice};
use sim_fault::ChaosConfig;
use sim_sweep::{run_with, RunOpts};

/// The dwell horizon, calibrated so that over the fixed seed set below
/// the plain arms (deterministic service times) never reach it while
/// the chaos arm (stretched service + compounded queueing) does.
const DWELL: SimDuration = SimDuration::from_micros(4400);

/// The chaos configuration of the catching batch.
fn chaos() -> ChaosConfig {
    ChaosConfig::with_seed(1)
}

fn program(idx: u64) -> ProgramSpec {
    generate(&mut SimRng::stream(0xD1CE, idx), &GenConfig::default())
}

/// The predicate handed to the shrinker: replay on the SSD under the
/// same chaos batch shape (queue depth 8, chaos seed 1) with the
/// timing-sabotaged scheduler (armed at [`DWELL`]), and report whether
/// any auditor fired.
fn chaos_catches(spec: &ProgramSpec) -> bool {
    let opts = RunOpts {
        sabotage: Some(Trigger::Dwell(DWELL)),
        queue_depth: 8,
        chaos: Some(chaos()),
        ..Default::default()
    };
    !run_with(spec, SchedChoice::SplitToken, DeviceChoice::Ssd, opts)
        .violations
        .is_empty()
}

#[test]
fn plain_batches_miss_the_timing_bug() {
    // Both plain arms — the default queue depth 1 and depth 8 —
    // run the full seed set over the sabotaged scheduler without a
    // single auditor firing: deterministic timing never opens the race.
    for idx in 0..12u64 {
        let spec = program(idx);
        for sched in [SchedChoice::Cfq, SchedChoice::SplitToken] {
            for queue_depth in [1, 8] {
                let opts = RunOpts {
                    sabotage: Some(Trigger::Dwell(DWELL)),
                    queue_depth,
                    ..Default::default()
                };
                let out = run_with(&spec, sched, DeviceChoice::Ssd, opts);
                assert_eq!(
                    out.violations,
                    Vec::<String>::new(),
                    "plain qd{queue_depth}, program {idx}, {sched:?}"
                );
            }
        }
    }
}

#[test]
fn chaos_batch_catches_the_timing_bug_and_shrinks_it() {
    // The same seed set under the same scheduler, now with adversarial
    // timing: the chaos batch flushes the bug out.
    let mut culprit = None;
    for idx in 0..12u64 {
        let spec = program(idx);
        if chaos_catches(&spec) {
            culprit = Some(spec);
            break;
        }
    }
    let spec = culprit.expect("timing bug evaded the chaos batch over 12 programs");

    // And the reproducer shrinks: delta debugging replays each
    // candidate under the identical chaos configuration, so the
    // minimised program still opens the race.
    let shrunk = shrink(&spec, chaos_catches);
    assert!(
        chaos_catches(&shrunk),
        "shrunk program must still reproduce"
    );
    assert!(
        shrunk.syscall_count() < spec.syscall_count(),
        "shrinker should make progress: {} -> {} syscalls",
        spec.syscall_count(),
        shrunk.syscall_count()
    );
    assert!(
        shrunk.syscall_count() <= 10,
        "reproducer should be tiny, got {} syscalls:\n{}",
        shrunk.syscall_count(),
        shrunk
    );
}

#[test]
fn healthy_scheduler_passes_the_same_chaos_batch() {
    // Control arm: the identical programs under the identical chaos
    // configuration but with no planted bug are clean, so the catch
    // above is detecting the injected race and not a chaos-plane
    // artefact.
    for idx in 0..12u64 {
        let spec = program(idx);
        for sched in [SchedChoice::Cfq, SchedChoice::SplitToken] {
            let out = run_with(
                &spec,
                sched,
                DeviceChoice::Ssd,
                RunOpts {
                    queue_depth: 8,
                    chaos: Some(chaos()),
                    ..Default::default()
                },
            );
            assert_eq!(
                out.violations,
                Vec::<String>::new(),
                "healthy chaos run, program {idx}, {sched:?}"
            );
        }
    }
}
