#![warn(missing_docs)]
//! Everything that perturbs a run, and the crash-consistency check.
//!
//! The simulator's happy path is infallible and runs under one legal
//! timing per seed. This crate holds the adversaries that break both,
//! behind the one seam the kernel asks:
//!
//! * [`Perturb`] — the kernel's perturbation seam. It holds a stream per
//!   [`ChaosClass`] of a [`ChaosConfig`] and, optionally, a
//!   [`DeviceFaultPlane`], and the kernel calls it at five declared
//!   points (writeback tick, journal timer, CPU slice, physical dispatch,
//!   service start). Empty — the default — it is the identity and draws
//!   nothing, so the stack is bit-identical to an unperturbed build.
//! * [`DeviceFaultPlane`] — a deterministic plan of device-level faults
//!   (transient errors, torn writes, latency spikes), rolled once per
//!   physical dispatch.
//! * [`chaos`] — the chaos plane's classes, seed and legality bounds.
//! * [`DiskImage`] — a recording of one run's write protocol, fed by an
//!   event-stream subscriber as the file system submits and the device
//!   completes writes. [`DiskImage::cut`] models a power cut just before
//!   any completion (in-flight writes lost, or torn to a prefix), replays
//!   the journal exactly as a jbd2-style mount would, and checks the
//!   ordered-mode invariants: acknowledged transactions are durable, no
//!   recovered metadata points at data that never reached the platter and
//!   no checkpoint lands ahead of its commit.
//!
//! Everything here is passive bookkeeping — no clocks, no event queues —
//! and a cut replays a prefix of the recording, so one simulated run is
//! crashed at *every* completion and each outcome checked independently.

pub mod chaos;
mod image;
mod perturb;
mod plane;

pub use chaos::{ChaosClass, ChaosConfig};
pub use image::{ConsistencyViolation, Cut, DiskImage, WriteStep};
pub use perturb::Perturb;
pub use plane::DeviceFaultPlane;
