//! A counting global allocator behind the `alloc-count` cargo feature.
//!
//! When the feature is on, every allocation in the process is counted
//! (calls, live bytes, peak live bytes) through relaxed atomics on top
//! of the system allocator; the bench harness reads the counters to put
//! "peak allocations" next to events/sec in `BENCH_*.json`. When the
//! feature is off — the default, and the only configuration tier-1
//! tests build — nothing is registered and [`snapshot`] reports zeros
//! with `enabled = false`, so callers need no `cfg` of their own.
//!
//! Counting changes nothing observable inside the simulation (it is a
//! host-side side channel like [`crate::prof`]), but it does slow every
//! allocation slightly, which is why it is a feature and not a runtime
//! flag: the hot path should not pay even a disabled-check for it.

/// Process-wide allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Whether the `alloc-count` feature (and thus the counting
    /// allocator) is compiled in.
    pub enabled: bool,
    /// Total successful allocations since process start.
    pub allocs: u64,
    /// Total deallocations since process start.
    pub frees: u64,
    /// Bytes currently live.
    pub current_bytes: u64,
    /// Peak live bytes since process start (or the last
    /// [`reset_peak`]).
    pub peak_bytes: u64,
}

#[cfg(feature = "alloc-count")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub(crate) static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub(crate) static FREES: AtomicU64 = AtomicU64::new(0);
    pub(crate) static CURRENT: AtomicU64 = AtomicU64::new(0);
    pub(crate) static PEAK: AtomicU64 = AtomicU64::new(0);

    pub(crate) struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                ALLOCS.fetch_add(1, Relaxed);
                let live = CURRENT.fetch_add(layout.size() as u64, Relaxed) + layout.size() as u64;
                PEAK.fetch_max(live, Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
            unsafe { System.dealloc(p, layout) };
            FREES.fetch_add(1, Relaxed);
            CURRENT.fetch_sub(layout.size() as u64, Relaxed);
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Read the process-wide counters; all-zero with `enabled = false` when
/// the `alloc-count` feature is off.
pub fn snapshot() -> AllocSnapshot {
    #[cfg(feature = "alloc-count")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        AllocSnapshot {
            enabled: true,
            allocs: imp::ALLOCS.load(Relaxed),
            frees: imp::FREES.load(Relaxed),
            current_bytes: imp::CURRENT.load(Relaxed),
            peak_bytes: imp::PEAK.load(Relaxed),
        }
    }
    #[cfg(not(feature = "alloc-count"))]
    AllocSnapshot::default()
}

/// Whether the counting allocator is compiled in.
pub fn enabled() -> bool {
    cfg!(feature = "alloc-count")
}

/// Rebase the peak to the currently-live bytes, so the next
/// [`snapshot`] reports the peak of the interval that follows (the
/// bench harness calls this between repetitions).
pub fn reset_peak() {
    #[cfg(feature = "alloc-count")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        imp::PEAK.store(imp::CURRENT.load(Relaxed), Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_matches_feature_state() {
        let s = snapshot();
        assert_eq!(s.enabled, enabled());
        if !s.enabled {
            assert_eq!(s, AllocSnapshot::default());
        } else {
            // The test harness itself allocates; the counters must move.
            let before = snapshot();
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            let after = snapshot();
            assert!(after.allocs > before.allocs);
            drop(v);
        }
        reset_peak(); // must be callable in both configurations
    }
}
