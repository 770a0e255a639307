//! Cross-layer observability for the simulated storage stack.
//!
//! The split-level scheduling paper's diagnosis is that layers can't
//! *see* across each other: the block scheduler doesn't know which
//! process caused a delegated write, and an application can't tell
//! which layer its fsync latency came from. This crate is the
//! explanation side of that story for the simulator:
//!
//! * [`Tracer`] — a cheap-to-clone handle onto one traced kernel's
//!   trace, written by the kernel's span probe from its event stream. Each
//!   logical I/O (syscall, writeback pass, journal commit, block
//!   queue, device service) opens a timed [`SpanRecord`] tagged with
//!   pid, [`CauseSet`](sim_core::CauseSet), and [`Layer`], linked
//!   parent→child across layers.
//! * [`Registry`] — counters, simulated-clock gauge series, and
//!   fixed-bucket latency [`Histogram`]s.
//! * `chrome` — hand-rolled Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`) and CSV exporters.
//! * [`breakdown`] — per-layer fsync latency decomposition whose
//!   components sum to the end-to-end latency by construction.
//!
//! Everything is timestamped on the simulated clock, so traces and
//! metrics are deterministic outputs of a run, byte-for-byte.

pub mod breakdown;
mod chrome;
pub mod json;
mod metrics;
mod prof_export;
mod span;
mod tracer;

pub use breakdown::{fsync_breakdown, layer_totals, FsyncBreakdown, FSYNC_COMPONENTS};
pub use metrics::{Histogram, Registry};
pub use prof_export::{export_profile, profile_json, render_profile};
pub use span::{slot_name, Layer, SpanId, SpanRecord};
pub use tracer::Tracer;
