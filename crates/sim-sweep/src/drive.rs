//! Orchestration shared by the `runner` binary and the integration
//! tests: run a list of figures through the executor, or expand a
//! [`SweepSpec`], execute it, and aggregate the replicates.

use sim_core::run_indexed;
use sim_experiments::registry::{run_cell, CellOutput, CellRequest, Figure, Profile};

use crate::aggregate::{aggregate, SweepReport};
use crate::spec::SweepSpec;

/// Run a set of figures (one cell each) at a given width, with the
/// `--csv` / `--trace` artifact flags as given.
///
/// Outputs come back in the order of `figs`, regardless of `jobs`, so
/// concatenating the summaries reproduces the sequential runner's
/// stdout byte-for-byte.
pub fn run_figures(
    figs: &[&'static Figure],
    profile: Profile,
    seed: u64,
    jobs: usize,
    csv: bool,
    trace: bool,
) -> Vec<CellOutput> {
    let reqs: Vec<CellRequest> = figs
        .iter()
        .map(|&fig| CellRequest {
            csv,
            trace,
            ..CellRequest::new(fig, profile, seed)
        })
        .collect();
    run_indexed(reqs, jobs, run_cell)
}

/// Execute a sweep and aggregate it.
///
/// Returns the report plus the executed cell count (for progress
/// messages). The report depends only on the spec — not on `jobs`.
pub fn run_sweep(spec: &SweepSpec, jobs: usize) -> (SweepReport, usize) {
    let cells = spec.cells();
    let n = cells.len();
    let outputs = run_indexed(cells, jobs, |cell| {
        (cell.label.clone(), run_cell(&cell.request).metrics)
    });
    (aggregate(&outputs), n)
}
