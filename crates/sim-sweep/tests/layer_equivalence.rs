//! Degenerate-layer equivalence: a single-layer tree with no cap and no
//! dirty budget wrapping scheduler S must be *byte-identical* to flat S
//! — same syscall outcomes, same auditor verdicts, same end-of-run
//! kernel counters — for every scheduler on both device models, at
//! queue depth 1 and 8. The arbiter's general path only forwards in
//! that configuration (no bucket, no budget, no latency layer, and a
//! slot cap of the whole queue), so any drift means the layer plane
//! changed simulation semantics rather than just adding a (disabled)
//! policy shell around the child. A disarmed `Sabotaged` wrapper, which
//! changes four messages and forwards the rest, must be identical too.

use sim_check::{generate, GenConfig, ProgramSpec, Trigger};
use sim_core::SimRng;
use sim_sweep::check::{run_with, RunOpts, ALL_DEVICES, ALL_SCHEDS};

fn assert_identical(label: &str, spec: &ProgramSpec, queue_depth: u32) {
    for &device in &ALL_DEVICES {
        for &sched in &ALL_SCHEDS {
            let run = |opts| {
                run_with(
                    spec,
                    sched,
                    device,
                    RunOpts {
                        queue_depth,
                        ..opts
                    },
                )
            };
            let flat = run(RunOpts::default());
            let arms = [
                (
                    "the single-layer wrapper",
                    RunOpts {
                        wrap_single_layer: true,
                        ..Default::default()
                    },
                ),
                (
                    "a disarmed sabotage wrapper",
                    RunOpts {
                        sabotage: Some(Trigger::AfterAdds(u64::MAX)),
                        ..Default::default()
                    },
                ),
            ];
            for (arm, opts) in arms {
                let wrapped = run(opts);
                let cell = format!(
                    "{label}, {} on {device:?} at depth {queue_depth}, under {arm}",
                    sched.name()
                );
                assert_eq!(
                    flat.per_proc, wrapped.per_proc,
                    "{cell}: syscall outcomes diverge"
                );
                assert_eq!(
                    flat.violations, wrapped.violations,
                    "{cell}: auditor verdicts diverge"
                );
                assert_eq!(
                    flat.io_errors, wrapped.io_errors,
                    "{cell}: io_errors diverge"
                );
                assert_eq!(
                    flat.fingerprint, wrapped.fingerprint,
                    "{cell}: kernel counters diverge"
                );
                assert_eq!(
                    flat.fsync_ms, wrapped.fsync_ms,
                    "{cell}: fsync latencies diverge"
                );
            }
        }
    }
}

#[test]
fn golden_program_is_byte_identical_under_a_single_layer() {
    // A fixed program touching every hook class: buffered writes (dirty
    // accounting), fsync (journal entanglement), reads, metadata, and
    // an unlink (buffer_freed).
    let spec = ProgramSpec::parse(
        "program shared=2 bytes=131072\n\
         proc\n\
         write s0 0 16384\n\
         fsync s0\n\
         read s0 0 8192\n\
         creat\n\
         write o0 0 4096\n\
         fsync o0\n\
         unlink o0\n\
         end\n\
         proc\n\
         write s1 8192 8192\n\
         read s1 0 16384\n\
         mkdir\n\
         fsync s1\n\
         end\n",
    )
    .unwrap();
    assert_identical("golden", &spec, 1);
}

#[test]
fn fuzzed_programs_are_byte_identical_under_a_single_layer() {
    // Each program replays 2 × |scheds| × 2 times; keep the count CI-sized.
    for idx in 0..3u64 {
        let spec = generate(&mut SimRng::stream(0x1a7e6, idx), &GenConfig::default());
        assert_identical(&format!("program {idx}"), &spec, 1);
    }
}

#[test]
fn programs_are_byte_identical_under_a_single_layer_at_queue_depth_8() {
    // A deep queue arms the arbiter's slot cap, which a single layer
    // must size to the whole queue.
    for idx in 0..3u64 {
        let spec = generate(&mut SimRng::stream(0x1a7e6, idx), &GenConfig::default());
        assert_identical(&format!("program {idx}"), &spec, 8);
    }
}
