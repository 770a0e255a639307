//! CI's `runner --faults` smoke, in-process, so the tier-1 command
//! (`cargo test -q` at the root) sees a crash-consistency or device-fault
//! regression: the power-cut replay sweep over 80 real-kernel stacks and
//! the single-device-write failure sweep at the quick profile, with no
//! ordered-mode or auditor violation.
//! See `.github/workflows/ci.yml`.

use sim_experiments::registry::{parse, run_cell, CellRequest, Profile};

#[test]
fn fault_sweep_finds_no_consistency_violation() {
    let faults = parse("faults").expect("the figure table has a faults row");
    let out = run_cell(&CellRequest::new(faults, Profile::Quick, 0));
    assert!(out.failure.is_none(), "{:?}\n{}", out.failure, out.summary);
}
