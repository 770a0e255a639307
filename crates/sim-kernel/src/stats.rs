//! Measurement plumbing: per-process and per-kernel counters the
//! experiments read after (or during) a run.

use sim_core::stats::TimeSeries;
use sim_core::FastMap;
use sim_core::{Pid, SimDuration, SimTime};

/// Per-process counters.
#[derive(Debug, Default, Clone)]
pub struct ProcStats {
    /// Bytes returned by completed read syscalls.
    pub read_bytes: u64,
    /// Bytes accepted by completed write syscalls.
    pub write_bytes: u64,
    /// Completed read syscalls.
    pub reads: u64,
    /// Completed write syscalls.
    pub writes: u64,
    /// Completed fsyncs with their (completion time, latency).
    pub fsyncs: Vec<(SimTime, SimDuration)>,
    /// Completed creat/mkdir/unlink calls, with completion times.
    pub meta_ops: Vec<SimTime>,
    /// Total time spent parked at the syscall gate.
    pub gated_time: SimDuration,
    /// Syscalls that returned `Outcome::Failed` (fault injection).
    pub io_errors: u64,
}

/// Per-kernel counters.
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Per-process stats.
    pub procs: FastMap<Pid, ProcStats>,
    /// Block requests seen, by submitter best-effort priority level
    /// (Figure 3's right panel).
    pub req_prio_hist: [u64; 8],
    /// Disk busy seconds charged to each pid through request cause tags.
    pub disk_time: FastMap<Pid, f64>,
    /// Total block requests dispatched.
    pub requests_dispatched: u64,
    /// Total bytes moved by the device.
    pub device_bytes: u64,
    /// Optional per-pid throughput time series (read-completion bytes).
    pub read_ts: FastMap<Pid, TimeSeries>,
    /// Block requests failed by the fault plane.
    pub io_errors: u64,
    /// Journal aborts observed (fault injection).
    pub journal_aborts: u64,
}

impl KernelStats {
    /// Stats row for `pid` (creating it if needed).
    pub(crate) fn proc_mut(&mut self, pid: Pid) -> &mut ProcStats {
        self.procs.entry(pid).or_default()
    }

    /// Stats row for `pid`, if it ever did anything.
    pub fn proc(&self, pid: Pid) -> Option<&ProcStats> {
        self.procs.get(&pid)
    }

    /// Read throughput of `pid` in MB/s over `window`.
    pub fn read_mbps(&self, pid: Pid, window: SimDuration) -> f64 {
        let bytes = self.procs.get(&pid).map(|p| p.read_bytes).unwrap_or(0);
        bytes as f64 / 1e6 / window.as_secs_f64()
    }

    /// Write throughput of `pid` in MB/s over `window`.
    pub fn write_mbps(&self, pid: Pid, window: SimDuration) -> f64 {
        let bytes = self.procs.get(&pid).map(|p| p.write_bytes).unwrap_or(0);
        bytes as f64 / 1e6 / window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_helpers() {
        let mut s = KernelStats::default();
        s.proc_mut(Pid(1)).read_bytes = 10_000_000;
        s.proc_mut(Pid(1)).write_bytes = 5_000_000;
        assert!((s.read_mbps(Pid(1), SimDuration::from_secs(2)) - 5.0).abs() < 1e-9);
        assert!((s.write_mbps(Pid(1), SimDuration::from_secs(1)) - 5.0).abs() < 1e-9);
        assert_eq!(s.read_mbps(Pid(9), SimDuration::from_secs(1)), 0.0);
    }
}
