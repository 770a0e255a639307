//! A coarse CPU model: compute bursts and per-syscall CPU costs are
//! stretched by the ratio of runnable tasks to cores, sampled when the
//! burst starts. This is what makes hundreds of spinning threads slow an
//! I/O-bound process even though they issue no I/O (Figure 15).

use sim_core::SimDuration;

/// Fixed entry/exit cost of any system call.
pub const SYSCALL_BASE: SimDuration = SimDuration::from_micros(2);

/// Cost to copy one 4 KB page between user and kernel space (bounds
/// cached-read throughput).
const PER_PAGE_COPY: SimDuration = SimDuration::from_micros(2);

/// Extra cost a scheduler's syscall-level bookkeeping adds per gated
/// call (SCS pays this on *every* call including reads; split schedulers
/// only on write-like calls). It reflects the paper's observation that
/// SCS's per-call traffic-shaping logic is expensive enough to cost it
/// 2.3x on cached reads (§5.3), and that AFQ's per-write bookkeeping
/// makes it slightly slower than CFQ on in-memory overwrites (Figure 11d).
pub const SCHED_BOOKKEEPING: SimDuration = SimDuration::from_micros(25);

/// CPU cost of a syscall that copies `pages` pages.
pub(crate) fn copy_cost(pages: u64) -> SimDuration {
    SYSCALL_BASE + SimDuration::from_nanos(PER_PAGE_COPY.as_nanos() * pages)
}

/// Runnable-task accounting.
#[derive(Debug, Clone)]
pub(crate) struct CpuModel {
    cores: u32,
    runnable: u32,
}

impl CpuModel {
    /// A machine with `cores` cores.
    pub(crate) fn new(cores: u32) -> Self {
        CpuModel {
            cores: cores.max(1),
            runnable: 0,
        }
    }

    /// A task became runnable.
    pub(crate) fn task_runnable(&mut self) {
        self.runnable += 1;
    }

    /// A task blocked / exited.
    pub(crate) fn task_blocked(&mut self) {
        debug_assert!(self.runnable > 0, "runnable underflow");
        self.runnable = self.runnable.saturating_sub(1);
    }

    /// Contention factor: 1.0 while the machine has spare cores, then the
    /// oversubscription ratio.
    pub(crate) fn contention(&self) -> f64 {
        if self.runnable <= self.cores {
            1.0
        } else {
            self.runnable as f64 / self.cores as f64
        }
    }

    /// Stretch a CPU burst by the current contention.
    pub(crate) fn stretch(&self, d: SimDuration) -> SimDuration {
        d.mul_f64(self.contention())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_contention_below_core_count() {
        let mut c = CpuModel::new(8);
        for _ in 0..8 {
            c.task_runnable();
        }
        assert_eq!(c.contention(), 1.0);
        let d = SimDuration::from_micros(10);
        assert_eq!(c.stretch(d), d);
    }

    #[test]
    fn oversubscription_stretches_time() {
        let mut c = CpuModel::new(4);
        for _ in 0..16 {
            c.task_runnable();
        }
        assert_eq!(c.contention(), 4.0);
        assert_eq!(
            c.stretch(SimDuration::from_micros(10)),
            SimDuration::from_micros(40)
        );
        for _ in 0..12 {
            c.task_blocked();
        }
        assert_eq!(c.contention(), 1.0);
    }

    #[test]
    fn blocked_saturates() {
        let mut c = CpuModel::new(1);
        c.task_runnable();
        c.task_blocked();
        assert_eq!(c.runnable, 0);
    }
}
