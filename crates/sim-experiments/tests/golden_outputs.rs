//! Golden-output regression tests. The simulation is deterministic, so
//! any diff means a behavior change.
//!
//! * Four figures keep their exact seed-0 stdout under `tests/golden/`
//!   (readable diffs for the most-quoted tables).
//! * *Every* row of the figure table is pinned by
//!   `tests/golden/figure_digests.txt`: a `len:fnv1a64` digest of the
//!   summary, of the ordered `name=value` metric list (`{:?}` of the
//!   `f64`, so every bit counts) and of each `--csv` / `--trace`
//!   artifact, at seed 0 and at one non-zero seed. The file was recorded
//!   before the table replaced the per-figure registry match, so it
//!   holds every row to the bytes of the code it replaced.
//!
//! Intended changes regenerate with
//! `UPDATE_GOLDEN=1 cargo test --release -p sim-experiments --test golden_outputs -- --include-ignored`.

use sim_experiments::registry::{parse, run_cell, CellRequest, Profile, FIGURES};

fn golden(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

fn check(name: &str, file: &str) {
    let fig = parse(name).expect("a row of the table");
    let out = run_cell(&CellRequest::new(fig, Profile::Quick, 0)).summary;
    if updating() {
        std::fs::write(golden(file), &out).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(golden(file))
        .unwrap_or_else(|e| panic!("missing snapshot {} ({e}); run with UPDATE_GOLDEN=1", file));
    assert_eq!(
        out, want,
        "{name} output drifted from its seed-0 snapshot; if the change is \
         intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fig01_output_is_byte_identical_at_seed_0() {
    check("fig01", "fig01_seed0.txt");
}

#[test]
fn fig01_qd_output_is_byte_identical_at_seed_0() {
    check("fig01_qd", "fig01_qd_seed0.txt");
}

#[test]
fn fig12_output_is_byte_identical_at_seed_0() {
    check("fig12", "fig12_seed0.txt");
}

#[test]
fn fig19_output_is_byte_identical_at_seed_0() {
    check("fig19", "fig19_seed0.txt");
}

/// `len:fnv1a64` of a text — pins multi-megabyte traces byte for byte
/// without committing them.
fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{}:{h:016x}", s.len())
}

/// The seeds every target is pinned at: the historical run and one
/// replicate-style seed (so the seed plumbing is pinned too).
const SEEDS: [u64; 2] = [0, 7];

/// Rows too slow for a debug `cargo test`: fig15 (~9 s per seed in
/// release on a 2-vCPU host), fig11 and fig21 (~1 s each). They are
/// pinned by the `#[ignore]`d test (~22 s in release), which the
/// `figures-golden` CI job runs with `--include-ignored`.
const SLOW: [&str; 3] = ["fig11", "fig15", "fig21"];

/// Digest every fast (or every slow) row with all artifact flags on
/// (rows that take neither ignore them) — summary, metrics, then each
/// artifact, per seed — and compare with the lines the pinned file holds
/// for those rows; under `UPDATE_GOLDEN`, replace exactly those lines.
fn pin_rows(slow: bool) {
    let is_mine = |line: &str| SLOW.contains(&line.split('/').next().unwrap_or("")) == slow;
    let mut got = Vec::new();
    for fig in FIGURES.iter().filter(|f| SLOW.contains(&f.name) == slow) {
        for seed in SEEDS {
            let o = run_cell(&CellRequest {
                csv: true,
                trace: true,
                ..CellRequest::new(fig, Profile::Quick, seed)
            });
            assert!(o.failure.is_none(), "{}: {:?}", fig.name, o.failure);
            let metrics: String = o
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v:?}\n"))
                .collect();
            let row = format!("{}/seed{seed}", fig.name);
            got.push(format!("{row}/summary {}", digest(&o.summary)));
            got.push(format!("{row}/metrics {}", digest(&metrics)));
            for a in &o.artifacts {
                got.push(format!("{row}/{} {}", a.name, digest(&a.content)));
            }
        }
    }
    got.sort_unstable();

    // The fast and the slow test share the file; serialize the update.
    static FILE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = FILE.lock().unwrap_or_else(|e| e.into_inner());
    let path = golden("figure_digests.txt");
    let all = std::fs::read_to_string(&path).unwrap_or_default();
    if updating() {
        let mut lines: Vec<&str> = all.lines().filter(|l| !is_mine(l)).collect();
        lines.extend(got.iter().map(String::as_str));
        lines.sort_unstable();
        std::fs::write(&path, lines.join("\n") + "\n").expect("write digests");
        return;
    }
    let want: Vec<&str> = all.lines().filter(|l| is_mine(l)).collect();
    assert_eq!(
        got, want,
        "a row drifted from its pinned digests; if the change is \
         intended, regenerate with UPDATE_GOLDEN=1 and --include-ignored"
    );
}

#[test]
fn every_fast_row_matches_its_pinned_digests() {
    pin_rows(false);
}

#[test]
#[ignore = "fig15 alone is ~18 s in release over both seeds; the figures-golden CI job runs it"]
fn every_slow_row_matches_its_pinned_digests() {
    pin_rows(true);
}
