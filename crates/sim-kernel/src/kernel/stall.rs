//! Who waits on whom when a run will not quiesce.
//!
//! A read-only walk of kernel state, made only after a harness gives up
//! waiting (see `sim-sweep`'s check drain cap), so healthy runs pay
//! nothing for it. Every finding is recorded on the installed
//! [`sim_check::AuditPlane`] under the auditor name `stall`, next to the
//! strict-checkpoint findings of the regular auditors — a scheduler's own
//! `audit(true)` already names what *it* is still holding.

use super::{Kernel, PState};
use crate::world::Bus;

impl Kernel {
    /// Diagnose a stall: run the quiesce-strict checkpoint, then report
    /// each process still inside (or between) syscalls and each block
    /// request that never completed. No-op without an audit plane.
    pub(crate) fn audit_stalled(&mut self, bus: &Bus) {
        self.audit_checkpoint(bus, true);
        // Keyed by (kind, id) so the report reads processes first, then
        // requests, each in id order whatever the maps' iteration order.
        let mut report = Vec::new();
        for (pid, proc) in &self.procs {
            let line = match (&proc.cur, proc.state) {
                (_, PState::Exited | PState::ExternalIdle) => continue,
                (None, state) => format!("pid {} is {state:?} outside any syscall", pid.0),
                (Some(cur), state) => {
                    let mut waits: Vec<u64> = cur.pending_io.iter().map(|r| r.raw()).collect();
                    waits.sort_unstable();
                    format!(
                        "pid {} is {state:?} in {:?} entered at {:.6}s, waiting on request(s) {waits:?}",
                        pid.0,
                        cur.kind,
                        cur.entered.as_secs_f64(),
                    )
                }
            };
            report.push((0, u64::from(pid.0), line));
        }
        for (id, meta) in &self.req_meta {
            let at_device = self
                .inflight
                .iter()
                .flatten()
                .find(|(req, _)| req.id == *id);
            // Below the elevator only the bookkeeping is the kernel's:
            // syscall reads name their reader, everything else is a
            // file-system write (data, journal or checkpoint).
            let what = match (at_device, meta.reader) {
                (Some((req, _)), _) => {
                    format!("({:?}, {:?}) is at the device", req.dir, req.causes)
                }
                (None, Some(pid)) => format!("(read for pid {}) is still in the scheduler", pid.0),
                (None, None) => "(file-system write) is still in the scheduler".to_string(),
            };
            report.push((1, id.raw(), format!("request {} {what}", id.raw())));
        }
        report.sort();
        let now = bus.q.now();
        if let Some(plane) = self.audit.as_mut() {
            for (_, _, line) in report {
                plane.report(now, "stall", line);
            }
        }
    }
}
