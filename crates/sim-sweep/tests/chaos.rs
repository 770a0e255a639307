//! Chaos-plane batteries: determinism, legality, and fairness under
//! adversarial timing.
//!
//! The chaos plane follows the repo's `Option<plane>` idiom — absent, it
//! must leave every run byte-identical (the figure goldens in
//! sim-experiments enforce that end-to-end); present, it perturbs
//! writeback wakeups, CPU slices, journal commit timing, and device
//! completion order *within legal bounds*, so every invariant the
//! auditors check — cause-tag conservation, Split-Token ledger caps, CFQ
//! weight accounting, `(time, seq)` event FIFO, the no-late-schedules
//! drain gate — must keep holding no matter the seed.

use sim_check::{generate, GenConfig, ProgramSpec};
use sim_core::SimRng;
use sim_experiments::{DeviceChoice, SchedChoice};
use sim_fault::{ChaosClass, ChaosConfig};
use sim_sweep::{check_program, run_one, run_with, CheckConfig, RunOpts};

fn program(idx: u64) -> ProgramSpec {
    generate(&mut SimRng::stream(0xCA05, idx), &GenConfig::default())
}

#[test]
fn chaos_config_with_no_classes_is_byte_identical_to_no_chaos() {
    // Present-but-all-disabled is the sharpest byte-identity probe: the
    // plane is installed, its RNG streams exist, yet no draw may happen
    // and no timing may move. Queue depths 1 and 8 must both
    // fingerprint identically to a plain run.
    let empty = ChaosConfig::only(7, &[]);
    for idx in 0..4u64 {
        let spec = program(idx);
        for sched in [SchedChoice::Cfq, SchedChoice::SplitToken] {
            for device in [DeviceChoice::Hdd, DeviceChoice::Ssd] {
                let plain = run_one(&spec, sched, device, None);
                let shaken = run_with(
                    &spec,
                    sched,
                    device,
                    RunOpts {
                        queue_depth: 1,
                        chaos: Some(empty),
                        ..Default::default()
                    },
                );
                assert_eq!(
                    plain.fingerprint, shaken.fingerprint,
                    "depth-1 byte-identity, program {idx}, {sched:?}/{device:?}"
                );
                let plain_q = run_with(
                    &spec,
                    sched,
                    device,
                    RunOpts {
                        queue_depth: 8,
                        ..Default::default()
                    },
                );
                let shaken_q = run_with(
                    &spec,
                    sched,
                    device,
                    RunOpts {
                        queue_depth: 8,
                        chaos: Some(empty),
                        ..Default::default()
                    },
                );
                assert_eq!(
                    plain_q.fingerprint, shaken_q.fingerprint,
                    "depth-8 byte-identity, program {idx}, {sched:?}/{device:?}"
                );
            }
        }
    }
}

#[test]
fn same_chaos_seed_same_bytes() {
    // Chaos is adversarial, not random: a chaos batch is as replayable
    // as a plain one. Identical seed, identical perturbations,
    // identical fingerprint and outcomes.
    let cfg = ChaosConfig::with_seed(42);
    for idx in 0..4u64 {
        let spec = program(idx);
        let run = || {
            run_with(
                &spec,
                SchedChoice::SplitToken,
                DeviceChoice::Ssd,
                RunOpts {
                    queue_depth: 8,
                    chaos: Some(cfg),
                    ..Default::default()
                },
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint, b.fingerprint, "program {idx}");
        assert_eq!(a.per_proc, b.per_proc, "program {idx}");
    }
}

#[test]
fn chaos_actually_perturbs_timing() {
    // Sanity check on the other direction: with classes enabled the
    // perturbation must be real. At least one program in the set must
    // fingerprint differently from its plain run (fsync latencies and
    // dispatch counts move when timing moves).
    let cfg = ChaosConfig::with_seed(1);
    let mut diverged = false;
    for idx in 0..4u64 {
        let spec = program(idx);
        let plain = run_with(
            &spec,
            SchedChoice::Cfq,
            DeviceChoice::Ssd,
            RunOpts {
                queue_depth: 8,
                ..Default::default()
            },
        );
        let shaken = run_with(
            &spec,
            SchedChoice::Cfq,
            DeviceChoice::Ssd,
            RunOpts {
                queue_depth: 8,
                chaos: Some(cfg),
                ..Default::default()
            },
        );
        if plain.fingerprint != shaken.fingerprint {
            diverged = true;
        }
    }
    assert!(
        diverged,
        "chaos with every class on never moved a fingerprint"
    );
}

#[test]
fn single_class_chaos_stays_legal_everywhere() {
    // Property battery per perturbation class: each class alone, at
    // queue depths 1 and 8, must quiesce with zero violations —
    // wakeups never schedule into the past (the event core's hard
    // late-schedule error would fail the run), `(time, seq)` FIFO holds,
    // and completion reorder stays inside the device's in-flight window
    // (anything else would break the auditors' accounting).
    let spec = program(0);
    for class in ChaosClass::ALL {
        let cfg = ChaosConfig::only(3, &[class]);
        for qd in [1, 8] {
            let out = run_with(
                &spec,
                SchedChoice::SplitToken,
                DeviceChoice::Hdd,
                RunOpts {
                    queue_depth: qd,
                    chaos: Some(cfg),
                    ..Default::default()
                },
            );
            assert_eq!(
                out.violations,
                Vec::<String>::new(),
                "class {:?}, qd {qd}",
                class
            );
        }
    }
}

#[test]
fn full_differential_matrix_holds_under_chaos() {
    // The whole differential oracle — every scheduler against the noop
    // reference on both devices, auditors installed — under full chaos.
    // Schedulers may see adversarial timing but must never change
    // syscall results.
    for idx in 0..3u64 {
        let spec = program(idx);
        let planes = CheckConfig {
            queue_depth: 8,
            chaos: Some(ChaosConfig::with_seed(idx + 1)),
            ..CheckConfig::default()
        };
        let violations = check_program(&spec, &planes);
        assert_eq!(violations, Vec::<String>::new(), "program {idx}");
    }
}

#[test]
fn fairness_holds_under_chaos_for_token_and_cfq() {
    // The headline battery: 25 fuzzed programs, split-token and CFQ,
    // full chaos at queue depth 8. The auditors include the
    // Split-Token ledger (per-pid cap accounting) and CFQ weight
    // bookkeeping, so zero violations means the fairness machinery
    // survives adversarial timing, not just the happy path.
    for idx in 0..25u64 {
        let spec = program(idx);
        let cfg = ChaosConfig::with_seed(idx);
        for sched in [SchedChoice::SplitToken, SchedChoice::Cfq] {
            let out = run_with(
                &spec,
                sched,
                DeviceChoice::Ssd,
                RunOpts {
                    queue_depth: 8,
                    chaos: Some(cfg),
                    ..Default::default()
                },
            );
            assert_eq!(
                out.violations,
                Vec::<String>::new(),
                "program {idx}, {sched:?}"
            );
        }
    }
}

#[test]
fn chaos_runs_match_the_pinned_digests() {
    // The only cross-build pin on the chaos plane (every test above
    // compares a build with itself): each scheduler on each device, at
    // queue depths 1 and 8, under chaos seed 1, one line of event count +
    // kernel-counter fingerprint per run. Depth 1 keeps the `serial` label
    // it was pinned under.
    // An intended change regenerates with `UPDATE_GOLDEN=1`.
    let cfg = ChaosConfig::with_seed(1);
    let mut got = String::new();
    for idx in 0..20u64 {
        let spec = program(idx);
        let sched = SchedChoice::ALL[idx as usize % 10];
        let device = DeviceChoice::ALL[idx as usize / 10];
        for qd in [1, 8] {
            let out = run_with(
                &spec,
                sched,
                device,
                RunOpts {
                    queue_depth: qd,
                    chaos: Some(cfg),
                    ..Default::default()
                },
            );
            got.push_str(&format!(
                "program{idx:02} {}/{} qd={} events={} {}\n",
                sched.name(),
                device.name(),
                if qd == 1 {
                    "serial".into()
                } else {
                    qd.to_string()
                },
                out.events,
                out.fingerprint
            ));
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos_digests.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("pinned fingerprints");
    assert_eq!(
        got, want,
        "chaos runs drifted from tests/golden/chaos_digests.txt"
    );
}
