//! sim-sweep — deterministic parallel scenario engine.
//!
//! Turns the figure suite into a declarative grid (figure × scheduler ×
//! device × seed replicate), executes it on a bounded work-stealing
//! pool of OS threads, and aggregates seed replicates into mean /
//! stddev / 95% CI per metric. Each scenario runs in its own isolated
//! simulation world with a seed split deterministically from the root
//! seed and the cell's label, so results are independent of execution
//! order, worker count, and grid composition: `--jobs 8` produces the
//! same bytes as `--jobs 1`, and adding a figure to a sweep does not
//! change the numbers of the figures already in it.

mod aggregate;
pub mod check;
mod drive;
mod spec;

pub use aggregate::{MetricRow, SweepReport};
pub use check::{
    check_program, run_check, run_one, run_replay, run_with, CheckConfig, CheckReport, RunOpts,
};
pub use drive::{run_figures, run_sweep};
pub use spec::{Cell, SweepSpec};
