#![warn(missing_docs)]
//! Experiment harness: one module per table/figure of the paper's
//! evaluation, and one row per `runner` target in [`registry::FIGURES`].
//!
//! A figure module states its numbers once: the constants of its
//! scenario, a `Config` holding only what actually varies (built by the
//! single constructor `Config::at(profile, seed)`), a
//! `run(&Config) -> …Result`, the result's `Display` (the rows/series
//! the paper plots) and `metrics()` (the named scalars a sweep
//! aggregates), and `cell(&CellRequest) -> CellOutput`, which the
//! module's row points at. `ablations` has no `Config` (its run lengths
//! are pinned) and `fault_sweep` takes no seed (it is exhaustive).
//! Adding a figure is one such module, its `mod` line below and one row
//! of the table.
//!
//! The absolute numbers differ from the paper's 2015 testbed — the
//! substrate here is a simulator — but the *shapes* (who wins, by what
//! factor, where crossovers fall) are the reproduction target; see
//! EXPERIMENTS.md for the figure-by-figure comparison.

mod ablations;
mod breakdown;
mod fault_sweep;
mod fig01_qd;
pub mod fig01_write_burst;
pub mod fig03_cfq_async_unfair;
mod fig05_latency_dependency;
mod fig06_scs_isolation;
mod fig09_time_overhead;
mod fig10_space_overhead;
mod fig11_afq;
pub mod fig12_fsync_isolation;
mod fig14_token_comparison;
mod fig15_thread_scaling;
mod fig17_metadata;
mod fig18_sqlite;
mod fig19_postgres;
mod fig20_qemu;
mod fig21_hdfs;
mod fig_cluster;
pub mod fig_layers;
pub mod registry;
pub mod setup;
mod table;

pub use setup::{
    build_layered, build_world, build_world_with, default_layer_tree, kernel_config,
    resolve_layer_child, DeviceChoice, SchedChoice, Setup,
};

/// Re-exported units for experiment configs.
pub const KB: u64 = 1024;
/// One mebibyte.
pub const MB: u64 = 1024 * 1024;
/// One gibibyte.
pub const GB: u64 = 1024 * 1024 * 1024;
