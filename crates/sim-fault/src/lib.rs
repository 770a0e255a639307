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
//! * [`DiskImage`] — a shadow record of every write's durable state, fed by
//!   the crash harness as the file system submits and the "device"
//!   completes I/O. [`DiskImage::crash`] models a power cut (in-flight
//!   writes lost, or torn to a prefix), [`DiskImage::recover`] replays the
//!   journal exactly as a jbd2-style mount would, and [`DiskImage::check`]
//!   asserts the ordered-mode invariants: committed-and-acknowledged
//!   transactions are durable, uncommitted ones are absent, and no
//!   recovered metadata points at data that never reached the platter.
//!
//! Everything here is passive bookkeeping — no clocks, no event queues —
//! so the harness can crash at *every* interesting point of a protocol run
//! and check each outcome independently.

mod image;
mod plane;

pub use image::{ConsistencyViolation, DiskImage, Recovery, WriteStep};
pub use plane::{DeviceFaultPlane, Fault};
