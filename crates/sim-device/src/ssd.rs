//! A flash SSD cost model.
//!
//! Modeled loosely on the paper's Intel X25-M: flat per-request latency,
//! high read bandwidth, lower write bandwidth, and a mild penalty for
//! scattered small writes (FTL overhead) — but none of the disk's
//! distance-dependent positioning cost.

use sim_core::{BlockNo, SimDuration};

use crate::{DiskModel, DiskRequestShape, IoDir};

/// Capacity in 4 KB blocks: 80 GB.
const CAPACITY_BLOCKS: u64 = 80 * 1024 * 1024 * 1024 / sim_core::PAGE_SIZE;

/// Fixed per-request read latency.
const READ_LATENCY: SimDuration = SimDuration::from_micros(65);

/// Fixed per-request write latency (program time).
const WRITE_LATENCY: SimDuration = SimDuration::from_micros(85);

/// Sequential read bandwidth (bytes/second).
const READ_BANDWIDTH: f64 = 250.0e6;

/// Sequential write bandwidth (bytes/second).
const WRITE_BANDWIDTH: f64 = 80.0e6;

/// Extra latency applied to non-contiguous small writes (FTL churn).
const RANDOM_WRITE_PENALTY: SimDuration = SimDuration::from_micros(150);

/// Flat-latency flash model with separate read/write channels costs.
#[derive(Debug, Clone)]
pub struct SsdModel {
    last_end: BlockNo,
}

impl SsdModel {
    /// An SSD with the X25-M-like parameters above.
    pub fn new() -> Self {
        SsdModel {
            last_end: BlockNo(0),
        }
    }
}

impl Default for SsdModel {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskModel for SsdModel {
    fn service_time(&mut self, shape: &DiskRequestShape) -> SimDuration {
        let t = self.peek_service_time(shape);
        self.last_end = shape.end();
        t
    }

    fn peek_service_time(&self, shape: &DiskRequestShape) -> SimDuration {
        let bytes = shape.bytes() as f64;
        match shape.dir {
            IoDir::Read => READ_LATENCY + SimDuration::from_secs_f64(bytes / READ_BANDWIDTH),
            IoDir::Write => {
                let contiguous = shape.start == self.last_end;
                let small = shape.nblocks <= 8;
                let penalty = if !contiguous && small {
                    RANDOM_WRITE_PENALTY
                } else {
                    SimDuration::ZERO
                };
                WRITE_LATENCY + penalty + SimDuration::from_secs_f64(bytes / WRITE_BANDWIDTH)
            }
        }
    }

    fn seq_bandwidth(&self) -> f64 {
        // Normalization unit: use the write bandwidth (the scarcer channel),
        // matching how the paper's token experiments cap throughput.
        WRITE_BANDWIDTH
    }

    fn capacity_blocks(&self) -> u64 {
        CAPACITY_BLOCKS
    }

    fn name(&self) -> &'static str {
        "ssd"
    }

    fn is_rotational(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rd(start: u64, n: u64) -> DiskRequestShape {
        DiskRequestShape::new(IoDir::Read, BlockNo(start), n)
    }
    fn wr(start: u64, n: u64) -> DiskRequestShape {
        DiskRequestShape::new(IoDir::Write, BlockNo(start), n)
    }

    #[test]
    fn random_reads_cost_the_same_as_sequential_reads() {
        let mut d = SsdModel::new();
        d.service_time(&rd(0, 1));
        let seq = d.peek_service_time(&rd(1, 1));
        let far = d.peek_service_time(&rd(10_000_000, 1));
        assert_eq!(seq, far, "flash reads are position independent");
    }

    #[test]
    fn random_4k_read_latency_is_tens_of_microseconds() {
        let d = SsdModel::new();
        let t = d.peek_service_time(&rd(12345, 1));
        assert!(t >= SimDuration::from_micros(50));
        assert!(t <= SimDuration::from_micros(200));
    }

    #[test]
    fn writes_are_slower_than_reads() {
        let d = SsdModel::new();
        assert!(d.peek_service_time(&wr(0, 256)) > d.peek_service_time(&rd(0, 256)));
    }

    #[test]
    fn scattered_small_writes_pay_ftl_penalty() {
        let mut d = SsdModel::new();
        d.service_time(&wr(1000, 1));
        let contiguous = d.peek_service_time(&wr(1001, 1));
        let scattered = d.peek_service_time(&wr(5_000_000, 1));
        assert!(scattered > contiguous);
        // Large writes do not pay the penalty regardless of location.
        let big_contig = d.peek_service_time(&wr(1001, 1024));
        let big_far = d.peek_service_time(&wr(5_000_000, 1024));
        assert_eq!(big_contig, big_far);
    }

    #[test]
    fn device_is_far_faster_than_hdd_for_random_io() {
        use crate::HddModel;
        let mut hdd = HddModel::new();
        hdd.service_time(&rd(0, 1));
        let hdd_rand = hdd.peek_service_time(&rd(50_000_000, 1));
        let ssd = SsdModel::new();
        let ssd_rand = ssd.peek_service_time(&rd(10_000_000, 1));
        assert!(hdd_rand.as_nanos() > 20 * ssd_rand.as_nanos());
    }
}
