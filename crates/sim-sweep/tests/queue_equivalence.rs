//! Device-plane pins. Every generated program replays under every
//! scheduler on both device models at the default queue depth, and its
//! event count and end-of-run kernel counters must match the lines in
//! `tests/golden/check_fingerprints.txt` — any drift means the block
//! layer or device changed simulation semantics. Deep queues may reorder
//! service but must keep syscall results.

use sim_check::{generate, GenConfig};
use sim_core::SimRng;
use sim_experiments::SchedChoice;
use sim_sweep::check::{run_one, run_with, RunOpts, ALL_DEVICES, ALL_SCHEDS};

#[test]
fn default_depth_runs_match_the_pinned_fingerprints() {
    // An intended change regenerates with `UPDATE_GOLDEN=1`.
    let mut got = String::new();
    for idx in 0..8u64 {
        let spec = generate(&mut SimRng::stream(0xd1, idx), &GenConfig::default());
        for &device in &ALL_DEVICES {
            for sched in SchedChoice::ALL {
                let out = run_one(&spec, sched, device, None);
                got.push_str(&format!(
                    "program{idx:02} {}/{} events={} {}\n",
                    sched.name(),
                    device.name(),
                    out.events,
                    out.fingerprint
                ));
            }
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/check_fingerprints.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("pinned fingerprints");
    assert_eq!(
        got, want,
        "runs drifted from tests/golden/check_fingerprints.txt"
    );
}

#[test]
fn deep_queues_preserve_syscall_results() {
    // Depth 8 may reorder device service arbitrarily, but the
    // differential oracle still holds: results match the default-depth
    // noop reference and no auditor (including the in-flight accounting
    // auditor) trips.
    for idx in 0..2 {
        let spec = generate(&mut SimRng::stream(0xd8, idx), &GenConfig::default());
        for &device in &ALL_DEVICES {
            let reference = run_one(&spec, ALL_SCHEDS[0], device, None);
            for &sched in &ALL_SCHEDS {
                let deep = run_with(
                    &spec,
                    sched,
                    device,
                    RunOpts {
                        queue_depth: 8,
                        ..Default::default()
                    },
                );
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
