//! A mechanical hard-drive cost model.
//!
//! Modeled loosely on the paper's 500 GB 7200 RPM Western Digital drive:
//! square-root seek curve, half-rotation average rotational latency, and a
//! sustained transfer rate of ~110 MB/s. A request contiguous with the
//! current head position pays neither seek nor rotation, so sequential
//! streams run at full bandwidth while 4 KB random I/O lands near the
//! classic ~100 IOPS.

use sim_core::{BlockNo, SimDuration};

use crate::{DiskModel, DiskRequestShape};

/// Capacity in 4 KB blocks: 500 GB.
const CAPACITY_BLOCKS: u64 = 500 * 1024 * 1024 * 1024 / sim_core::PAGE_SIZE;

/// Shortest (track-to-track) seek.
const MIN_SEEK: SimDuration = SimDuration::from_micros(500);

/// Full-stroke seek.
const MAX_SEEK: SimDuration = SimDuration::from_millis(14);

/// Time for one platter revolution (7200 RPM → 8.33 ms).
const ROTATION: SimDuration = SimDuration::from_micros(8333);

/// Sustained sequential bandwidth in bytes/second.
const BANDWIDTH: f64 = 110.0e6;

/// Seeks shorter than this many blocks count as "near" and pay only the
/// settle cost ([`MIN_SEEK`]), approximating same-cylinder locality.
const NEAR_DISTANCE: u64 = 64;

/// Seek + rotation + transfer hard-disk model with a persistent head
/// position.
#[derive(Debug, Clone)]
pub struct HddModel {
    head: BlockNo,
}

impl HddModel {
    /// A drive with the paper-like geometry above.
    pub fn new() -> Self {
        HddModel { head: BlockNo(0) }
    }

    fn positioning_cost(&self, start: BlockNo) -> SimDuration {
        let dist = start.raw().abs_diff(self.head.raw());
        if dist == 0 {
            // Head is already there: streaming continuation.
            return SimDuration::ZERO;
        }
        if dist <= NEAR_DISTANCE {
            // Same-cylinder neighbourhood: settle only, no full rotation.
            return MIN_SEEK;
        }
        let frac = (dist as f64 / CAPACITY_BLOCKS as f64).min(1.0);
        let span = MAX_SEEK.saturating_sub(MIN_SEEK).as_nanos() as f64;
        let seek = MIN_SEEK + SimDuration::from_nanos((span * frac.sqrt()) as u64);
        // Average rotational latency: half a revolution.
        let rot = ROTATION.div(2);
        seek + rot
    }

    fn transfer_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / BANDWIDTH)
    }
}

impl Default for HddModel {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskModel for HddModel {
    fn service_time(&mut self, shape: &DiskRequestShape) -> SimDuration {
        let t = self.peek_service_time(shape);
        self.head = shape.end();
        t
    }

    fn peek_service_time(&self, shape: &DiskRequestShape) -> SimDuration {
        self.positioning_cost(shape.start) + self.transfer_cost(shape.bytes())
    }

    fn seq_bandwidth(&self) -> f64 {
        BANDWIDTH
    }

    fn capacity_blocks(&self) -> u64 {
        CAPACITY_BLOCKS
    }

    fn name(&self) -> &'static str {
        "hdd"
    }

    fn is_rotational(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoDir;

    fn shape(start: u64, n: u64) -> DiskRequestShape {
        DiskRequestShape::new(IoDir::Read, BlockNo(start), n)
    }

    #[test]
    fn sequential_stream_pays_only_transfer() {
        let mut d = HddModel::new();
        let first = d.service_time(&shape(1_000_000, 256)); // position once
        let second = d.service_time(&shape(1_000_256, 256)); // contiguous
        assert!(first > second, "first access must pay a seek");
        let expected = SimDuration::from_secs_f64(256.0 * 4096.0 / 110.0e6);
        let diff = second.as_nanos().abs_diff(expected.as_nanos());
        assert!(diff < 1_000, "continuation should be pure transfer");
    }

    #[test]
    fn random_4k_is_orders_of_magnitude_costlier_than_sequential_4k() {
        let mut d = HddModel::new();
        d.service_time(&shape(0, 1));
        let seq = d.peek_service_time(&shape(1, 1));
        let far = d.peek_service_time(&shape(50_000_000, 1));
        assert!(
            far.as_nanos() > 50 * seq.as_nanos(),
            "far seek {far:?} should dwarf sequential {seq:?}"
        );
        // Random 4 KB should land in the classic few-to-15 ms window.
        assert!(far >= SimDuration::from_millis(3));
        assert!(far <= SimDuration::from_millis(20));
    }

    #[test]
    fn seek_cost_grows_with_distance() {
        let mut d = HddModel::new();
        d.service_time(&shape(0, 1));
        let near = d.peek_service_time(&shape(10_000, 1));
        let far = d.peek_service_time(&shape(100_000_000, 1));
        assert!(far > near);
    }

    #[test]
    fn near_seeks_pay_settle_only() {
        let mut d = HddModel::new();
        d.service_time(&shape(1000, 1));
        let near = d.peek_service_time(&shape(1010, 1));
        // settle (0.5 ms) + transfer, but no half-rotation (4.2 ms)
        assert!(near < SimDuration::from_millis(1));
    }

    #[test]
    fn peek_does_not_move_head() {
        let mut d = HddModel::new();
        d.service_time(&shape(500, 4));
        let h = d.head;
        d.peek_service_time(&shape(90_000_000, 1));
        assert_eq!(d.head, h);
        d.service_time(&shape(90_000_000, 1));
        assert_eq!(d.head, BlockNo(90_000_001));
    }

    #[test]
    fn sustained_sequential_hits_configured_bandwidth() {
        let mut d = HddModel::new();
        let mut total = SimDuration::ZERO;
        let mut pos = 0u64;
        let blocks_per_req = 1024; // 4 MB requests
        for _ in 0..100 {
            total += d.service_time(&shape(pos, blocks_per_req));
            pos += blocks_per_req;
        }
        let bytes = 100 * blocks_per_req * 4096;
        let mbps = bytes as f64 / 1e6 / total.as_secs_f64();
        assert!((100.0..120.0).contains(&mbps), "got {mbps} MB/s");
    }
}
