//! Parallel execution must not change results: the whole point of
//! per-cell seed streams is that a scenario's numbers depend only on
//! its request, never on which worker ran it or in what order.

use sim_experiments::registry::{self, Figure, Profile};
use sim_sweep::{run_figures, run_sweep, SweepSpec};

fn figs(names: &[&str]) -> Vec<&'static Figure> {
    names
        .iter()
        .map(|n| registry::parse(n).expect("a row of the table"))
        .collect()
}

fn concat_summaries(figs: &[&'static Figure], jobs: usize) -> String {
    run_figures(figs, Profile::Quick, 0, jobs, false, false)
        .iter()
        .map(|o| o.summary.as_str())
        .collect()
}

/// A cross-section of the suite cheap enough for tier-1: a plain table
/// (fig03), the fig06 family (sched-axis figures), the tag-memory sweep
/// (fig10), and the three-block ablation summary.
const SUBSET: [&str; 4] = ["fig03", "fig06", "fig10", "ablations"];

#[test]
fn parallel_figures_match_sequential_bytes() {
    let seq = concat_summaries(&figs(&SUBSET), 1);
    let par = concat_summaries(&figs(&SUBSET), 4);
    assert_eq!(seq, par, "jobs=4 must reproduce jobs=1 byte-for-byte");
}

/// The full `runner all` equivalence: every figure simulated twice,
/// ~28 s in release on a 2-vCPU host. CI's `test` job runs it with
/// `--include-ignored`.
#[test]
#[ignore = "every figure twice; the 4-figure subset covers tier-1"]
fn parallel_all_matches_sequential_bytes() {
    let all: Vec<_> = registry::all().collect();
    let seq = concat_summaries(&all, 1);
    let par = concat_summaries(&all, 4);
    assert_eq!(seq, par);
}

#[test]
fn sweep_report_is_independent_of_jobs() {
    let mut spec = SweepSpec::new(figs(&["fig03", "fig06"]));
    spec.replicates = 3;
    spec.root_seed = 42;
    let (seq, n_seq) = run_sweep(&spec, 1);
    let (par, n_par) = run_sweep(&spec, 4);
    assert_eq!(n_seq, n_par);
    assert_eq!(seq.to_csv(), par.to_csv());
    assert_eq!(seq.to_json(), par.to_json());
}

#[test]
fn replicates_actually_vary() {
    // Seed replication is pointless if every seed produces the same
    // numbers; fig06's workload RNG and the fs-layout seed must both
    // feed through.
    let mut spec = SweepSpec::new(figs(&["fig06"]));
    spec.replicates = 3;
    let (report, _) = run_sweep(&spec, 2);
    let row = report
        .rows
        .iter()
        .find(|r| r.metric == "a_mean_mbps")
        .expect("fig06 must report a_mean_mbps");
    assert_eq!(row.summary.n, 3);
    assert!(
        row.summary.stddev > 0.0,
        "three distinct seeds must not produce identical throughput"
    );
}

#[test]
fn zero_seed_cell_reproduces_the_historical_run() {
    // The registry path at seed 0 must match the figure module's own
    // default-config output — the compatibility contract that keeps
    // `runner all` bit-identical to the pre-registry runner.
    let direct = format!(
        "{}\n\n",
        sim_experiments::fig03_cfq_async_unfair::run(
            &sim_experiments::fig03_cfq_async_unfair::Config::at(Profile::Quick, 0)
        )
    );
    let via_registry = run_figures(&figs(&["fig03"]), Profile::Quick, 0, 1, false, false)
        .pop()
        .unwrap()
        .summary;
    assert_eq!(direct, via_registry);
}
