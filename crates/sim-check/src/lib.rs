//! Correctness tooling: generative workload fuzzing plus a cross-layer
//! invariant auditor plane.
//!
//! The paper's claims rest on cross-layer bookkeeping being exact — cause
//! tags conserved from syscall to block dispatch, journal entanglement
//! ordering, token-ledger balance. The hand-written figure scenarios only
//! exercise the paths the figures need; this crate generates syscall
//! programs we did not imagine ([`generate`]), audits every run against
//! the invariants ([`AuditPlane`]), and shrinks any failure to a small
//! replayable reproducer ([`shrink()`]).
//!
//! The plane mirrors sim-fault's design: it is `Option`-installed via the
//! kernel config, and the audit-free path stays byte-identical.

#![warn(missing_docs)]

mod audit;
mod auditors;
mod gen;
mod layer_audit;
mod program;
mod sabotage;
pub mod shrink;

pub use audit::{AuditCheckpoint, AuditEvent, AuditPlane, Auditor, Checkpoints, Violation};
pub use gen::{generate, GenConfig};
pub use layer_audit::LayerAuditor;
pub use program::{FileRef, OpSpec, ProcSpec, ProgramSpec};
pub use sabotage::{Sabotaged, Trigger};
pub use shrink::shrink;
