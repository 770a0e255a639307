//! Mutation check for the audit plane: a deliberately sabotaged
//! scheduler (cause tags corrupted on the block queue) must be caught
//! by the auditors, and the failing fuzzer program must shrink to a
//! tiny replayable reproducer.
//!
//! This is the end-to-end proof that the checker has teeth — if this
//! test passes, a real cause-tag bookkeeping bug in a scheduler cannot
//! slip through `runner check` silently.

use sim_check::{generate, shrink, GenConfig, ProgramSpec};
use sim_core::SimRng;
use sim_experiments::{DeviceChoice, SchedChoice};
use sim_sweep::{run_one, run_replay, CheckConfig};

/// The predicate handed to the shrinker: replay under CFQ with the
/// sabotage shim armed from the very first block add, and report
/// whether any auditor fired.
fn caught(spec: &ProgramSpec) -> bool {
    !run_one(spec, SchedChoice::Cfq, DeviceChoice::Ssd, Some(0))
        .violations
        .is_empty()
}

#[test]
fn sabotaged_scheduler_is_caught_and_shrinks_small() {
    // Fuzz until a generated program trips the auditors under the
    // sabotaged scheduler. Any program that reaches the block layer
    // qualifies, so this terminates almost immediately; the loop is a
    // guard against a pathological all-cached draw.
    let cfg = GenConfig::default();
    let mut culprit = None;
    for idx in 0..32u64 {
        let spec = generate(&mut SimRng::stream(0xC0FFEE, idx), &cfg);
        if caught(&spec) {
            culprit = Some(spec);
            break;
        }
    }
    let spec = culprit.expect("sabotaged scheduler evaded 32 fuzzed programs");

    let shrunk = shrink(&spec, caught);
    assert!(caught(&shrunk), "shrunk program must still reproduce");
    assert!(
        shrunk.syscall_count() <= 10,
        "reproducer should be tiny, got {} syscalls:\n{}",
        shrunk.syscall_count(),
        shrunk
    );
    // The printed reproducer goes back in through `--replay`, which refuses
    // invalid programs: a shrunk one must not be among them.
    let replayed = run_replay(&shrunk.to_string(), &CheckConfig::default());
    assert!(replayed.is_ok(), "{replayed:?}\n{shrunk}");
}

#[test]
fn clean_scheduler_passes_the_same_programs() {
    // Control arm: the identical programs with no sabotage are clean,
    // so the mutation test above is detecting the injected bug and not
    // a pre-existing violation.
    let cfg = GenConfig::default();
    for idx in 0..4u64 {
        let spec = generate(&mut SimRng::stream(0xC0FFEE, idx), &cfg);
        let out = run_one(&spec, SchedChoice::Cfq, DeviceChoice::Ssd, None);
        assert_eq!(out.violations, Vec::<String>::new(), "program {idx}");
    }
}
