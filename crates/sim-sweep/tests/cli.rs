//! End-to-end tests of the `runner` binary: argument validation (a
//! misspelled target must not silently run nothing and exit 0) and the
//! sweep's on-disk artifacts.

use std::path::Path;
use std::process::Command;

fn runner() -> Command {
    Command::new(env!("CARGO_BIN_EXE_runner"))
}

#[test]
fn unknown_target_is_rejected_with_usage_and_exit_2() {
    let out = runner().arg("fig99").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing must run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target: fig99"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_flag_is_rejected_with_exit_2() {
    let out = runner().arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag: --frobnicate"));
}

#[test]
fn bad_jobs_value_is_rejected_with_exit_2() {
    for bad in [
        &["--jobs", "0"][..],
        &["--jobs", "many"][..],
        &["--jobs"][..],
    ] {
        let out = runner().args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {bad:?}");
    }
}

#[test]
fn single_figure_runs_and_prints_its_table() {
    let out = runner().arg("fig03").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 3"), "{stdout}");
    assert!(stdout.ends_with("\n\n"), "legacy spacing must survive");
}

#[test]
fn profile_rejects_unknown_flags_and_bad_target_counts_with_exit_2() {
    let out = runner()
        .args(["profile", "fig01", "--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --frobnicate"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    // profile needs exactly one figure
    for args in [
        &["profile"][..],
        &["profile", "fig01", "fig03"][..],
        &["profile", "check"][..],
    ] {
        let out = runner().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}

#[test]
fn the_retired_bench_subcommand_and_its_flags_are_unknown() {
    // splitbench (`benchmark/run.sh`) is the only host-cost instrument.
    for (args, needle) in [
        (&["bench"][..], "unknown target: bench"),
        (&["fig01", "--reps", "3"][..], "unknown flag: --reps"),
        (
            &["check", "--baseline", "x"][..],
            "unknown flag: --baseline",
        ),
        (&["check", "--out", "somewhere"][..], "unknown flag: --out"),
        (
            &["check", "--check-programs", "1"][..],
            "unknown flag: --check-programs",
        ),
    ] {
        let out = runner().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "nothing must run for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "args {args:?}: {stderr}");
    }
}

#[test]
fn flags_the_target_does_not_take_are_rejected_not_ignored() {
    let out = runner()
        .args([
            "fig03",
            "--shrink",
            "--seeds",
            "7",
            "--sched",
            "cfq",
            "--programs",
            "9",
            "--replay",
            "/nonexistent",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing must run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shrink does not apply to"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn flags_no_selected_target_takes_are_refused_from_the_figure_table() {
    for (args, flag) in [
        (&["fig03", "--trace"][..], "--trace"),
        (&["fig03", "--csv"][..], "--csv"),
        (&["sweep", "fig01", "--device", "ssd"][..], "--device"),
        (
            &["sweep", "fig01", "fig12", "--sched", "cfq"][..],
            "--sched",
        ),
    ] {
        let out = runner().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "nothing must run for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let needle = format!("{flag} applies to none of the selected targets");
        assert!(stderr.contains(&needle), "args {args:?}: {stderr}");
    }
    // One taker among the selected rows is enough: fig01 takes --csv,
    // fig03 beside it simply has no series to write.
    let tmp = std::env::temp_dir().join(format!("sim-taker-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let out = runner()
        .current_dir(&tmp)
        .args(["fig01", "fig03", "--csv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(tmp.join("results/fig01_write_burst.csv").exists());
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn faults_is_a_row_all_skips_and_it_writes_its_csv() {
    let tmp = std::env::temp_dir().join(format!("sim-faults-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let by_flag = runner().current_dir(&tmp).arg("--faults").output().unwrap();
    let by_name = runner()
        .current_dir(&tmp)
        .args(["faults", "--csv"])
        .output()
        .unwrap();
    assert_eq!(by_flag.status.code(), Some(0));
    assert_eq!(by_name.status.code(), Some(0));
    assert_eq!(by_flag.stdout, by_name.stdout, "--faults names the row");
    let stdout = String::from_utf8_lossy(&by_flag.stdout);
    assert!(stdout.starts_with("Fault sweep:"), "{stdout}");
    assert!(!stdout.contains("Figure"), "only the named row runs");
    let csv = std::fs::read_to_string(tmp.join("results/fault_sweep.csv")).unwrap();
    assert!(csv.starts_with("nth_write,io_errors,"), "{csv}");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn replay_runs_on_the_planes_the_flags_select_and_refuses_generation_flags() {
    let tmp = std::env::temp_dir().join(format!("sim-replay-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let spec = tmp.join("spec.txt");
    std::fs::write(
        &spec,
        "program shared=1 bytes=65536\nproc\nwrite s0 0 8192\nfsync s0\nend\n",
    )
    .unwrap();
    let replay = |extra: &[&str]| {
        runner()
            .args(["check", "--replay"])
            .arg(&spec)
            .args(extra)
            .output()
            .unwrap()
    };
    assert_eq!(replay(&[]).status.code(), Some(0), "the program is clean");
    // The late-schedule probe must reach a replayed program too (it was
    // dropped, so a reproducer minted with it came back clean).
    let late = replay(&["--inject-late"]);
    assert_eq!(late.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&late.stdout).contains("scheduled in the past"));
    // So must the device plane and a custom tree: both still check clean.
    assert_eq!(replay(&["--queue-depth", "8"]).status.code(), Some(0));
    assert_eq!(
        replay(&["--layers", "a:default:share:noop"]).status.code(),
        Some(0)
    );
    for generation in [
        &["--programs", "5"][..],
        &["--jobs", "2"][..],
        &["--root-seed", "3"][..],
    ] {
        let out = replay(generation);
        assert_eq!(out.status.code(), Some(2), "args: {generation:?}");
        assert!(out.stdout.is_empty(), "nothing must run for {generation:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("do not apply to it"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn hostile_replay_files_and_flag_values_are_refused_not_run() {
    // Every row panicked, aborted on an allocation or hung before it was
    // refused: exit 2, one line saying what and where, nothing run.
    let tmp = std::env::temp_dir().join(format!("sim-hostile-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let spec = tmp.join("spec.txt");
    let refused = |args: &[&str], needle: &str| {
        let out = runner().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "nothing must run for {args:?}");
        assert!(stderr.contains(needle), "args {args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("allocation"),
            "args {args:?}: {stderr}"
        );
    };
    for (program, needle) in [
        // a file-ref prefix that is not one byte long
        (
            "shared=1 bytes=65536\nproc\nread \u{e9}1 0 10\nend\n",
            "line 3: bad file reference",
        ),
        // references with nothing behind them
        (
            "shared=1 bytes=65536\nproc\nread s7 0 10\nend\n",
            "proc 0 op 0: `read s7 0 10`",
        ),
        (
            "shared=1 bytes=65536\nproc\nmkdir\nread o3 0 10\nend\n",
            "proc 0 op 1: `read o3 0 10`",
        ),
        (
            "shared=0 bytes=65536\nproc\nfsync s0\nend\n",
            "proc 0 op 0: `fsync s0`",
        ),
        (
            "shared=1 bytes=65536\nproc\ncreat\nunlink o0\nunlink o0\nend\n",
            "proc 0 op 2: `unlink o0`",
        ),
        // a 16 PiB write, a zero-byte file, a billion preallocations
        (
            "shared=1 bytes=65536\nproc\nwrite s0 18446744073709551615 18446744073709551615\nend\n",
            "proc 0 op 0: `write s0 18446744073709551615 18446744073709551615`",
        ),
        ("shared=1 bytes=0\nproc\nend\n", "program header: bytes=0"),
        (
            "shared=1000000000 bytes=65536\nproc\nend\n",
            "program header: shared=1000000000",
        ),
    ] {
        std::fs::write(&spec, format!("program {program}")).unwrap();
        let path = spec.to_str().unwrap();
        refused(&["check", "--replay", path], "bad replay spec: ");
        refused(&["check", "--replay", path], needle);
    }
    for depth in ["4294967295", "100000000", "65537"] {
        refused(
            &["check", "--queue-depth", depth],
            "expected an integer in 1..=65536",
        );
    }
    for secs in ["1e300", "9223372037"] {
        refused(
            &["cluster", "--duration", secs],
            "expected fewer than 2^63 nanoseconds",
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// The runner's flag table restated independently: flag, a valid value
/// if it takes one, and the subcommands that take it (`""` = plain
/// figure targets).
const FLAG_ROWS: &[(&str, Option<&str>, &[&str])] = &[
    ("--paper", None, &["", "sweep", "profile"]),
    ("--csv", None, &["", "cluster"]),
    ("--trace", None, &[""]),
    ("--faults", None, &[""]),
    ("--jobs", Some("2"), &["", "sweep", "check", "cluster"]),
    ("--seeds", Some("2"), &["sweep"]),
    ("--root-seed", Some("5"), &["sweep", "check"]),
    ("--sched", Some("cfq"), &["sweep", "cluster"]),
    ("--device", Some("ssd"), &["sweep"]),
    ("--programs", Some("2"), &["check"]),
    ("--shrink", None, &["check"]),
    ("--queue-depth", Some("4"), &["check"]),
    ("--chaos", None, &["check"]),
    ("--chaos-seed", Some("1"), &["check"]),
    ("--chaos-classes", Some("wb"), &["check"]),
    ("--inject-late", None, &["check"]),
    ("--layers", Some("a:default:share:noop"), &["check"]),
    ("--replay", Some("spec.txt"), &["check"]),
    ("--kernels", Some("3"), &["cluster"]),
    ("--arrival", Some("flash"), &["cluster"]),
    ("--rate", Some("5"), &["cluster"]),
    ("--duration", Some("1"), &["cluster"]),
    ("--seed", Some("1"), &["cluster"]),
];

#[test]
fn every_usage_flag_is_taken_by_its_subcommands_and_refused_by_all_others() {
    let tmp = std::env::temp_dir().join(format!("sim-flags-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    // Each probe names targets its subcommand refuses *after* the flag
    // check, so an accepted flag costs no simulation; plain figure
    // targets have no such combination and run fig12, the one cheap row
    // that takes every artifact flag.
    let probes: [(&str, &[&str]); 5] = [
        ("", &["fig12"]),
        ("sweep", &["sweep", "all"]),
        ("check", &["check", "fig03"]),
        ("profile", &["profile"]),
        ("cluster", &["cluster", "fig03"]),
    ];
    let usage = String::from_utf8(runner().arg("fig99").output().unwrap().stderr).unwrap();
    let mut in_usage: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|w| w.starts_with("--"))
        .collect();
    in_usage.sort_unstable();
    in_usage.dedup();
    let mut rows: Vec<&str> = FLAG_ROWS.iter().map(|r| r.0).collect();
    rows.sort_unstable();
    assert_eq!(
        in_usage, rows,
        "USAGE and the flag rows must name the same flags"
    );

    for &(flag, value, takers) in FLAG_ROWS {
        assert!(!takers.is_empty(), "{flag} applies nowhere");
        for (mode, targets) in probes {
            let out = runner()
                .current_dir(&tmp)
                .args(targets)
                .arg(flag)
                .args(value)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            let refused = stderr.contains(&format!("{flag} does not apply to"));
            assert_eq!(
                refused,
                !takers.contains(&mode),
                "{flag} on {mode:?}: {stderr}"
            );
            if refused {
                assert_eq!(out.status.code(), Some(2), "{flag} on {mode:?}");
                assert!(out.stdout.is_empty(), "{flag} on {mode:?} ran something");
            } else if mode.is_empty() {
                assert_eq!(out.status.code(), Some(0), "{flag} on fig12: {stderr}");
            }
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn profile_prints_the_phase_table_and_matches_an_unprofiled_run() {
    let tmp = std::env::temp_dir().join(format!("sim-prof-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let profiled = runner()
        .current_dir(&tmp)
        .args(["profile", "fig03"])
        .output()
        .unwrap();
    assert_eq!(
        profiled.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&profiled.stderr)
    );
    let stdout = String::from_utf8_lossy(&profiled.stdout);
    assert!(stdout.contains("profile: fig03"), "{stdout}");
    assert!(stdout.contains("event_pop"), "{stdout}");

    // The profiler is host-side only: the figure's simulated output must
    // be byte-identical to a run without it.
    let plain = runner().arg("fig03").output().unwrap();
    let plain_stdout = String::from_utf8_lossy(&plain.stdout);
    let table = stdout.split("profile: fig03").next().unwrap();
    assert_eq!(table, plain_stdout, "profiling must not perturb the sim");

    // Sidecars: JSON parses and carries the phase map; CSV comes from
    // the metrics Registry.
    let json = std::fs::read_to_string(tmp.join("results/profile_fig03.json")).unwrap();
    let doc = sim_trace::json::parse(&json).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("profile-v1")
    );
    assert!(doc.get("phases").and_then(|v| v.get("sched")).is_some());
    let csv = std::fs::read_to_string(tmp.join("results/profile_fig03.csv")).unwrap();
    assert!(csv.contains("prof.sched.calls"), "{csv}");

    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn cluster_flag_validation_exits_2() {
    for args in [
        // cluster-only flags leaking onto other targets
        &["fig01", "--kernels", "4"][..],
        &["check", "--arrival", "poisson"][..],
        &["sweep", "--duration", "2"][..],
        // bad values
        &["cluster", "--kernels", "0"][..],
        &["cluster", "--arrival", "bursty"][..],
        &["cluster", "--rate", "-3"][..],
        &["cluster", "--duration", "zero"][..],
        &["cluster", "--sched", "noop"][..],
        &["cluster", "--sched", "split-token", "--sched", "cfq"][..],
        // cluster stands alone
        &["cluster", "fig01"][..],
        &["cluster", "--paper"][..],
    ] {
        let out = runner().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}

#[test]
fn chaos_flag_validation_exits_2() {
    for args in [
        // chaos flags are check-only
        &["fig01", "--chaos"][..],
        &["bench", "--chaos"][..],
        &["sweep", "--chaos-seed", "1"][..],
        &["cluster", "--chaos-classes", "wb"][..],
        // the sub-flags require --chaos itself
        &["check", "--chaos-seed", "1"][..],
        &["check", "--chaos-classes", "wb"][..],
        // bad values
        &["check", "--chaos", "--chaos-seed", "many"][..],
        &["check", "--chaos", "--chaos-classes", "wb,flux"][..],
        &["check", "--chaos", "--chaos-classes", ""][..],
        &["check", "--chaos", "--chaos-seed"][..],
    ] {
        let out = runner().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
    let out = runner()
        .args(["check", "--chaos", "--chaos-classes", "wb,flux"])
        .output()
        .unwrap();
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown chaos class: flux"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn layers_flag_validation_exits_2() {
    for args in [
        // --layers is check-only
        &["fig01", "--layers", "a:default:share:noop"][..],
        &["bench", "--layers", "a:default:share:noop"][..],
        &["sweep", "--layers", "a:default:share:noop"][..],
        // malformed specs: unknown policy, zero cap, duplicate layer
        // name, unknown rule, unknown child, missing default, no value
        &["check", "--layers", "a:default:turbo:noop"][..],
        &["check", "--layers", "a:default:cap=0:noop"][..],
        &[
            "check",
            "--layers",
            "a:pidmod=2,1:share:noop;a:default:share:cfq",
        ][..],
        &["check", "--layers", "a:vibes=9:share:noop"][..],
        &["check", "--layers", "a:default:share:warp-drive"][..],
        &["check", "--layers", "a:pidmod=2,1:share:noop"][..],
        &["check", "--layers", "a:default:share:layered"][..],
        &["check", "--layers"][..],
    ] {
        let out = runner().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "nothing must run for {args:?}");
    }
    // The error message names what is wrong, not just "bad spec".
    let cases = [
        ("a:default:turbo:noop", "turbo"),
        ("a:default:cap=0:noop", "cap must be > 0"),
        ("a:pidmod=2,1:share:noop;a:default:share:cfq", "duplicate"),
        ("a:default:share:warp-drive", "warp-drive"),
    ];
    for (spec, needle) in cases {
        let out = runner().args(["check", "--layers", spec]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "spec {spec:?}: expected {needle:?} in {stderr}"
        );
    }
}

#[test]
fn check_accepts_a_valid_layer_tree() {
    let out = runner()
        .args([
            "check",
            "--programs",
            "1",
            "--layers",
            "lat:pidmod=2,1:latency:block-deadline;rest:default:share+weight=2:split-token",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn check_under_chaos_runs_clean_and_reports_the_seed() {
    let out = runner()
        .args([
            "check",
            "--programs",
            "2",
            "--chaos",
            "--chaos-seed",
            "9",
            "--chaos-classes",
            "wb,complete",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("chaos seed 9 [wb,complete]"), "{stderr}");
}

#[test]
fn cluster_runs_and_is_byte_identical_across_jobs() {
    let common = [
        "cluster",
        "--kernels",
        "9",
        "--arrival",
        "flash",
        "--rate",
        "15",
        "--duration",
        "1",
        "--seed",
        "3",
    ];
    let seq = runner()
        .args(common)
        .args(["--jobs", "1"])
        .output()
        .unwrap();
    assert_eq!(
        seq.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&seq.stderr)
    );
    let stdout = String::from_utf8_lossy(&seq.stdout);
    assert!(stdout.contains("Cluster SLO"), "{stdout}");
    assert!(stdout.contains("flash arrivals"), "{stdout}");

    let par = runner()
        .args(common)
        .args(["--jobs", "4"])
        .output()
        .unwrap();
    assert_eq!(par.status.code(), Some(0));
    assert_eq!(
        seq.stdout, par.stdout,
        "--jobs must not change simulated output"
    );
}

#[test]
fn cluster_csv_writes_request_samples() {
    let tmp = std::env::temp_dir().join(format!("sim-cluster-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let out = runner()
        .current_dir(&tmp)
        .args(["cluster", "--kernels", "3", "--duration", "1", "--csv"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(tmp.join("results/cluster_samples.csv")).unwrap();
    assert!(
        csv.starts_with("req,shard,kind,arrival_s,done_s,e2e_ms,service_ms,repl_ms\n"),
        "{csv}"
    );
    assert!(csv.lines().count() > 1, "samples must be written");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn sweep_writes_csv_and_json_under_results_sweeps() {
    let tmp = std::env::temp_dir().join(format!("sim-sweep-cli-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let out = runner()
        .current_dir(&tmp)
        .args([
            "sweep",
            "fig03",
            "--seeds",
            "2",
            "--jobs",
            "2",
            "--root-seed",
            "7",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fig03"), "{stdout}");
    assert!(
        stdout.contains("±"),
        "report must show mean ± ci95: {stdout}"
    );

    let csv = std::fs::read_to_string(tmp.join(Path::new("results/sweeps/sweep.csv"))).unwrap();
    assert!(
        csv.starts_with("cell,metric,n,dropped,mean,stddev,ci95\n"),
        "{csv}"
    );
    assert!(csv.contains("fig03,deviation,2,"), "{csv}");
    let json = std::fs::read_to_string(tmp.join(Path::new("results/sweeps/sweep.json"))).unwrap();
    assert!(json.contains("\"cell\": \"fig03\""), "{json}");
    let doc = sim_trace::json::parse(&json).expect("sweep.json parses");
    assert!(doc.as_arr().is_some_and(|rows| !rows.is_empty()));

    std::fs::remove_dir_all(&tmp).ok();
}
