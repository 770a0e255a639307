#![warn(missing_docs)]
//! `splitbench`: the repository's benchmark.
//!
//! Six workloads, each run for a fixed amount of simulated work per rep.
//! `--trace 0` reports the end-to-end metrics (host cost a user of the
//! simulator sees) as medians over timed reps; `--trace 1` reports the
//! per-crate layer table from reps run with the self-profiler installed
//! and the counting allocator compiled in, plus stand-alone drives of
//! each crate. See `README.md` for every metric's definition.

pub mod contract;
pub mod drives;
pub mod layers;
pub mod measure;
pub mod report;
pub mod run;
pub mod spans;
pub mod srcloc;
pub mod workloads;
