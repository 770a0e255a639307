//! Mutation test for the layer auditor: plant the cap-leak bug in the
//! layered arbiter (`LayeredConfig::cap_leak_every` skips every Nth
//! token-bucket charge, so a capped layer admits writes it never pays
//! for) and prove the `LayerAuditor`'s cap-envelope check catches it —
//! then shrink the failing program to a minimal reproducer that still
//! trips the same check. The identical run without the planted bug must
//! stay clean, so the auditor's bound is tight enough to catch leaks
//! without false-positives on honest throttling.

use sim_check::{shrink, ProgramSpec};
use sim_experiments::setup::{DeviceChoice, SchedChoice};
use sim_sweep::check::{run_with, RunOpts};
use split_layered::{parse_layers, LayerSpec};

/// One capped layer over noop: 256 KiB/s, so the auditor's envelope is
/// `262144·t + 262144` bytes. The tree keeps a cap on the (only)
/// default layer — every write in the program is subject to it.
fn capped_tree() -> Vec<LayerSpec> {
    parse_layers("capped:default:cap=262144:noop").unwrap()
}

/// Write-heavy program: 768 KiB of buffered writes then an fsync. An
/// honest 256 KiB/s bucket paces this over ~2 simulated seconds; a
/// leaky bucket admits roughly twice the envelope's rate and crosses
/// the bound within the first second.
fn write_heavy() -> ProgramSpec {
    let mut text = String::from("program shared=1 bytes=1048576\nproc\n");
    for k in 0..96u64 {
        text.push_str(&format!("write s0 {} 8192\n", k * 8192));
    }
    text.push_str("fsync s0\nend\n");
    ProgramSpec::parse(&text).unwrap()
}

/// The cap-envelope violations of one SSD run under the layered arbiter
/// over [`capped_tree`], with the planted cap-leak bug armed.
fn leak_violations(spec: &ProgramSpec) -> Vec<String> {
    let opts = RunOpts {
        layers: Some(capped_tree()),
        cap_leak: Some(2),
        ..Default::default()
    };
    run_with(spec, SchedChoice::Layered, DeviceChoice::Ssd, opts)
        .violations
        .into_iter()
        .filter(|v| v.contains("cap envelope"))
        .collect()
}

#[test]
fn clean_capped_run_passes_the_layer_auditor() {
    let opts = RunOpts {
        layers: Some(capped_tree()),
        ..Default::default()
    };
    let r = run_with(
        &write_heavy(),
        SchedChoice::Layered,
        DeviceChoice::Ssd,
        opts,
    );
    assert_eq!(
        r.violations,
        Vec::<String>::new(),
        "honest throttling must stay inside the auditor's cap envelope"
    );
}

#[test]
fn planted_cap_leak_is_caught_and_shrunk() {
    let spec = write_heavy();
    let caught = leak_violations(&spec);
    assert!(
        !caught.is_empty(),
        "the planted cap leak must trip the layer auditor"
    );
    assert!(
        caught[0].contains("layer 'capped'"),
        "violation names the leaking layer: {}",
        caught[0]
    );

    // Delta-debug the program down while the leak stays visible: the
    // reproducer must be strictly smaller and still trip the auditor.
    let small = shrink(&spec, |p| !leak_violations(p).is_empty());
    assert!(
        small.syscall_count() < spec.syscall_count(),
        "shrinker made no progress ({} syscalls)",
        small.syscall_count()
    );
    assert!(
        !leak_violations(&small).is_empty(),
        "minimized reproducer no longer trips the auditor:\n{small}"
    );
}
