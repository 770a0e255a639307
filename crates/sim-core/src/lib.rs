#![warn(missing_docs)]
//! Foundation types for the split-level I/O scheduling simulator.
//!
//! This crate provides the deterministic substrate every other crate builds
//! on: a virtual clock ([`SimTime`]), a generic discrete-event queue
//! ([`EventQueue`]), strongly-typed identifiers ([`Pid`], [`FileId`],
//! [`BlockNo`], ...), a seeded random-number wrapper ([`SimRng`]), small
//! statistics helpers used by the experiment harness, and the one
//! work-stealing executor ([`run_indexed`]) that runs independent
//! simulations side by side.
//!
//! Everything here is deliberately free of real I/O and wall-clock time so
//! that a simulation run is a pure function of its configuration and seed.
//! The one sanctioned exception is the self-profiler ([`prof`]) and the
//! feature-gated counting allocator ([`alloc_count`]): both *read*
//! wall-clock time or allocator traffic as a host-side side channel but
//! never feed anything back into simulation state, so results stay a
//! pure function of config and seed with or without them.

pub mod alloc_count;
mod causes;
mod error;
mod event;
mod executor;
mod hash;
mod ids;
pub mod prof;
pub mod rng;
pub mod stats;
mod time;

pub use causes::CauseSet;
pub use error::{IoError, IoErrorKind};
pub use event::{EventQueue, ScheduledEvent};
pub use executor::run_indexed;
pub use hash::{FastMap, FastSet};
pub use ids::{BlockNo, FileId, IdAlloc, KernelId, Pid, RequestId, TxnId};
pub use prof::{Phase, ProfSnapshot, Profiler};
pub use rng::{stream_seed, SimRng};
pub use time::{SimDuration, SimTime};

/// Size of one page / filesystem block in bytes. The simulator uses a single
/// granularity for pages and blocks, matching ext4's common 4 KB setup.
pub const PAGE_SIZE: u64 = 4096;

/// Convert a byte count to the number of pages it occupies (rounding up).
#[inline]
pub fn pages_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// The pages the bytes `[offset, offset + len)` touch. Empty when `len`
/// is 0; a range running past the end of the `u64` byte space ends at
/// its last page instead of overflowing.
#[inline]
pub fn page_span(offset: u64, len: u64) -> std::ops::Range<u64> {
    let first = offset / PAGE_SIZE;
    if len == 0 {
        return first..first;
    }
    first..offset.saturating_add(len - 1) / PAGE_SIZE + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_bytes_rounds_up() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for_bytes(10 * PAGE_SIZE), 10);
    }

    #[test]
    fn page_span_covers_touched_pages_only() {
        assert!(page_span(2 * PAGE_SIZE, 0).is_empty());
        assert_eq!(page_span(0, PAGE_SIZE), 0..1);
        assert_eq!(page_span(PAGE_SIZE - 1, 2), 0..2);
        assert_eq!(page_span(3 * PAGE_SIZE, 2 * PAGE_SIZE + 1), 3..6);
        let last = u64::MAX / PAGE_SIZE;
        assert_eq!(page_span(u64::MAX - 10, 100), last..last + 1);
        assert_eq!(page_span(u64::MAX, 0), last..last);
    }
}
