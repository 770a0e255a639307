#![warn(missing_docs)]
//! The schedulers built on the split framework (§5 of the paper), plus the
//! SCS-Token baseline:
//!
//! * [`Afq`] — Actually Fair Queuing: stride scheduling at the syscall and
//!   block levels with cause-tag accounting (§5.1).
//! * [`SplitDeadline`] — fsync deadlines at the syscall level, read
//!   deadlines at the block level, with dirty-cost estimation and
//!   asynchronous-writeback spreading (§5.2).
//! * [`SplitToken`] — token buckets with prompt memory-level charging and
//!   block-level revision (§5.3).
//! * [`ScsToken`] — the system-call-scheduling baseline of Craciunas et
//!   al., which charges raw bytes at the syscall layer (§2.3.3).

mod afq;
mod scs_token;
mod split_deadline;
mod split_noop;
mod split_token;
#[cfg(test)]
mod stretch_equivalence;
mod tokens;

pub use afq::Afq;
pub use scs_token::ScsToken;
pub use split_deadline::SplitDeadline;
pub use split_noop::SplitNoop;
pub use split_token::SplitToken;
