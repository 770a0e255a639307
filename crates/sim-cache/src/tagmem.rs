//! Live-byte accounting of cause-tag allocations — the measurement behind
//! Figure 10 (the paper instruments `kmalloc`/`kfree`; we count the heap
//! bytes of every live `CauseSet` attached to a dirty buffer).

/// Running tag-memory statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct TagMem {
    live: u64,
    max: u64,
    sample_sum: u64,
    samples: u64,
}

impl TagMem {
    /// Fresh accounting.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A tag of `bytes` heap bytes came alive.
    pub(crate) fn alloc(&mut self, bytes: usize) {
        self.live += bytes as u64;
        self.max = self.max.max(self.live);
    }

    /// A tag of `bytes` heap bytes was released.
    pub(crate) fn free(&mut self, bytes: usize) {
        self.live = self.live.saturating_sub(bytes as u64);
    }

    /// Record the current live value into the average.
    pub(crate) fn sample(&mut self) {
        self.sample_sum += self.live;
        self.samples += 1;
    }

    /// Currently live tag bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live
    }

    /// Peak live tag bytes.
    pub fn max_bytes(&self) -> u64 {
        self.max
    }

    /// Mean of the sampled live values.
    pub fn avg_bytes(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sample_sum as f64 / self.samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_live_max_and_avg() {
        let mut tm = TagMem::new();
        tm.alloc(100);
        tm.sample();
        tm.alloc(200);
        tm.sample();
        assert_eq!(tm.live_bytes(), 300);
        assert_eq!(tm.max_bytes(), 300);
        tm.free(250);
        tm.sample();
        assert_eq!(tm.live_bytes(), 50);
        assert_eq!(tm.max_bytes(), 300);
        assert!((tm.avg_bytes() - (100.0 + 300.0 + 50.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn free_saturates() {
        let mut tm = TagMem::new();
        tm.alloc(10);
        tm.free(100);
        assert_eq!(tm.live_bytes(), 0);
    }
}
