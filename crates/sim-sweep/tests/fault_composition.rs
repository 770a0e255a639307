//! sim-fault × sim-check composition: injected device faults must
//! surface as observable I/O errors — in syscall outcomes and in the
//! kernel's `io_errors` counter — and must never trip a cross-layer
//! auditor. A fault that corrupts silently (no error anywhere) or one
//! that breaks journal ordering / cause accounting would fail here.

use sim_check::{generate, GenConfig, ProgramSpec};
use sim_core::SimRng;
use sim_experiments::{DeviceChoice, SchedChoice};
use sim_fault::DeviceFaultPlane;
use sim_sweep::{run_with, RunOpts};

fn with_faults(plane: DeviceFaultPlane) -> RunOpts {
    RunOpts {
        faults: Some(plane),
        ..Default::default()
    }
}

fn write_fsync_program() -> ProgramSpec {
    ProgramSpec::parse(
        "program shared=1 bytes=65536\n\
         proc\n\
         write s0 0 8192\n\
         fsync s0\n\
         write s0 8192 8192\n\
         fsync s0\n\
         end\n",
    )
    .unwrap()
}

#[test]
fn a_failed_write_surfaces_as_an_error_not_silence() {
    let spec = write_fsync_program();
    let plane = DeviceFaultPlane::with_seed(11).fail_write(0);
    let out = run_with(
        &spec,
        SchedChoice::SplitDeadline,
        DeviceChoice::Ssd,
        with_faults(plane),
    );
    assert_eq!(
        out.violations,
        Vec::<String>::new(),
        "a transient device failure must not break cross-layer invariants"
    );
    assert!(
        out.io_errors >= 1,
        "the injected write failure vanished: io_errors = 0"
    );
}

#[test]
fn a_torn_write_surfaces_as_an_error_not_silence() {
    let spec = write_fsync_program();
    // Tear the first write: zero blocks become durable, and the device
    // reports failure. The kernel must propagate that as an I/O error
    // (journal abort or failed fsync) rather than pretending the data
    // landed.
    let plane = DeviceFaultPlane::with_seed(12).tear_write(0);
    let out = run_with(
        &spec,
        SchedChoice::Cfq,
        DeviceChoice::Hdd,
        with_faults(plane),
    );
    assert_eq!(
        out.violations,
        Vec::<String>::new(),
        "a torn write must not break cross-layer invariants"
    );
    assert!(
        out.io_errors >= 1,
        "the injected torn write vanished: io_errors = 0"
    );
}

#[test]
fn random_torn_writes_never_violate_auditors_on_fuzzed_programs() {
    // Fuzzed programs under a 20% torn-write rate, through every
    // scheduler on both devices: whatever the fault plane does, the
    // auditors must stay quiet, so every scheduler's failed-request path
    // runs here. Across each pair's batch at least one fault should land
    // and be visible as an error.
    let cfg = GenConfig::default();
    for sched in SchedChoice::ALL {
        for device in DeviceChoice::ALL {
            let mut total_errors = 0u64;
            for idx in 0..6u64 {
                let spec = generate(&mut SimRng::stream(0xFA17, idx), &cfg);
                let plane = DeviceFaultPlane::with_seed(idx).torn_rate(0.2);
                let out = run_with(&spec, sched, device, with_faults(plane));
                assert_eq!(
                    out.violations,
                    Vec::<String>::new(),
                    "{} on {}, program {idx}",
                    sched.name(),
                    device.name()
                );
                total_errors += out.io_errors;
            }
            assert!(
                total_errors >= 1,
                "{} on {}: 20% torn-write rate over 6 programs injected nothing visible",
                sched.name(),
                device.name()
            );
        }
    }
}
