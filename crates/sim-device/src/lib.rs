#![warn(missing_docs)]
//! Storage-device models.
//!
//! The paper evaluates on a 500 GB Western Digital hard drive and an 80 GB
//! Intel X25-M SSD. This crate provides cost models for both: given a
//! request's direction, start block and length, a [`DiskModel`] returns the
//! simulated service time and updates its internal mechanical state (head
//! position for the HDD).
//!
//! The models are intentionally simple — what the experiments need is the
//! *relative* cost structure (random ≪ sequential on disk, much flatter on
//! flash), not nanosecond fidelity.

mod hdd;
mod queued;
mod ssd;

use sim_core::{BlockNo, SimDuration};

pub use hdd::HddModel;
pub use queued::{QueuedDevice, QueuedDeviceConfig, Started};
pub use ssd::SsdModel;

/// Direction of a device-level transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoDir {
    /// Read from media.
    Read,
    /// Write to media.
    Write,
}

/// The geometry-independent description of one device request.
#[derive(Debug, Clone, Copy)]
pub struct DiskRequestShape {
    /// Transfer direction.
    pub dir: IoDir,
    /// First block of the transfer.
    pub start: BlockNo,
    /// Length in 4 KB blocks (always at least 1).
    pub nblocks: u64,
}

impl DiskRequestShape {
    /// Convenience constructor; clamps zero-length requests to one block.
    pub fn new(dir: IoDir, start: BlockNo, nblocks: u64) -> Self {
        DiskRequestShape {
            dir,
            start,
            nblocks: nblocks.max(1),
        }
    }

    /// Transfer size in bytes. Saturates instead of wrapping: a deep
    /// hardware queue full of absurdly sized requests must degrade to a
    /// pinned counter, not a panic (or a silent wrap in release).
    pub(crate) fn bytes(&self) -> u64 {
        self.nblocks.saturating_mul(sim_core::PAGE_SIZE)
    }

    /// One past the last block touched; saturates at the top of the
    /// address space rather than wrapping back to low blocks.
    pub fn end(&self) -> BlockNo {
        BlockNo(self.start.raw().saturating_add(self.nblocks))
    }
}

/// A device service-time model.
///
/// `service_time` commits the request: it both returns the cost and moves
/// the model's mechanical state (e.g. the disk head). `peek_service_time`
/// answers "what would this cost right now?" without committing — block
/// schedulers use it to pick cheap requests and token schedulers use it to
/// charge normalized costs.
pub trait DiskModel {
    /// Cost of servicing `shape` from the current state, committing the
    /// state change.
    fn service_time(&mut self, shape: &DiskRequestShape) -> SimDuration;

    /// Cost of servicing `shape` from the current state, without changing
    /// state.
    fn peek_service_time(&self, shape: &DiskRequestShape) -> SimDuration;

    /// Sustained sequential bandwidth in bytes/second; the unit cost that
    /// token normalization divides by.
    fn seq_bandwidth(&self) -> f64;

    /// Total capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// Short human-readable name ("hdd" / "ssd").
    fn name(&self) -> &'static str;

    /// Whether seek distance matters (true for HDD). Schedulers use this to
    /// decide if sorting by location is worthwhile.
    fn is_rotational(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = DiskRequestShape::new(IoDir::Read, BlockNo(10), 4);
        assert_eq!(s.bytes(), 16384);
        assert_eq!(s.end(), BlockNo(14));
        let z = DiskRequestShape::new(IoDir::Write, BlockNo(0), 0);
        assert_eq!(z.nblocks, 1);
    }

    #[test]
    fn byte_and_end_arithmetic_saturates_at_the_boundaries() {
        // nblocks * PAGE_SIZE would wrap for anything above u64::MAX/4096.
        let huge = DiskRequestShape::new(IoDir::Write, BlockNo(0), u64::MAX / 2);
        assert_eq!(
            huge.bytes(),
            u64::MAX,
            "byte count pins instead of wrapping"
        );
        // A request ending past the top of the block address space.
        let high = DiskRequestShape::new(IoDir::Read, BlockNo(u64::MAX - 4), 64);
        assert_eq!(high.end(), BlockNo(u64::MAX), "end offset pins at the top");
        assert_eq!(high.bytes(), 64 * sim_core::PAGE_SIZE, "normal sizes exact");
    }
}
