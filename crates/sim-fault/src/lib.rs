#![warn(missing_docs)]
//! Deterministic fault injection and crash-consistency checking.
//!
//! The simulator's happy path is infallible: a submitted request always
//! completes. That leaves the journal's recovery guarantees — the part of
//! the stack the paper's ordered-mode protocol exists to protect — entirely
//! unexercised. This crate adds the missing adversary:
//!
//! * [`DeviceFaultPlane`] — a deterministic plan of device-level faults
//!   (transient errors, torn writes, latency spikes) the kernel consults at
//!   dispatch time. With no plane installed the stack is bit-identical to
//!   the fault-free build.
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

mod image;
mod plane;

pub use image::{ConsistencyViolation, Cut, DiskImage, WriteStep};
pub use plane::{DeviceFaultPlane, Fault};
