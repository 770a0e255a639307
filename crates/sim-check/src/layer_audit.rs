//! Per-layer invariants for the hierarchical layer plane
//! (`split-layered`): an [`Auditor`] that replays layer classification
//! from the audit stream and holds the arbiter to its own books.
//!
//! Three invariants:
//!
//! 1. **Exactly-one-layer** — every live syscall maps to exactly one
//!    layer, the mapping is stable for the process's lifetime, and no
//!    process has two syscalls live at once.
//! 2. **Cap bound** — a bandwidth-capped layer's cumulative admitted
//!    write bytes never exceed its token-bucket envelope
//!    `rate · t + burst`: the bucket starts full at one second of burst
//!    and refills at `rate`, so any prefix of admissions is bounded by
//!    the envelope at the time the *last* of them completed. This is a
//!    window bound for every window at once, checked at each syscall
//!    exit. The planted cap-leak mutation (`cap_leak_every`) admits
//!    without charging and must trip this check.
//! 3. **Per-layer conservation** — each layer's dispatched requests all
//!    come back (completed or failed): dispatch and finish counts are
//!    routed identically, never go negative, and agree at quiesce.
//!
//! The auditor replays classification independently of the arbiter, so
//! it only accepts trees whose rules are pid-decidable
//! ([`LayerRule::pid_decidable`]) — admission metadata (names, I/O
//! classes) is not in the audit stream. The default tree and the check
//! harness's trees qualify.

use sim_block::{ReqKind, Request};
use sim_core::{FastMap, Pid, SimTime};
use split_core::SyscallKind;
use split_layered::{classify, LayerPolicy, LayerSpec};

use crate::audit::{AuditCheckpoint, AuditEvent, Auditor, Checkpoints};

/// Float/ordering slack on the cap envelope: charges happen at
/// admission, strictly before the syscall exit where the auditor
/// observes them, so one page absorbs rounding without masking a leak.
const CAP_SLACK_BYTES: f64 = 4096.0;

struct LayerBooks {
    name: String,
    /// `Some(rate)` for bandwidth-capped layers; burst equals rate
    /// (one second), mirroring the arbiter's bucket.
    cap_rate: Option<f64>,
    /// Cumulative write-syscall bytes observed at syscall exit.
    admitted: f64,
    dispatched: u64,
    finished: u64,
}

/// The per-layer invariant checker. Install with
/// [`crate::AuditPlane::push`] when the kernel under audit runs the
/// layered arbiter.
pub struct LayerAuditor {
    specs: Vec<LayerSpec>,
    layers: Vec<LayerBooks>,
    /// Which layers dispatch with latency priority (routing mirror).
    latency_prio: Vec<bool>,
    /// Layer assignment replayed at first syscall; checked stable.
    assign: FastMap<Pid, usize>,
    /// Live syscall per process: (layer, write payload bytes).
    pending: FastMap<Pid, (usize, u64)>,
}

impl LayerAuditor {
    /// Build the auditor for a layer tree. Panics if any rule is not
    /// pid-decidable — such trees cannot be replayed from the audit
    /// stream and must not be paired with this auditor.
    pub fn new(specs: Vec<LayerSpec>) -> Self {
        assert!(
            specs.iter().all(|s| s.rule.pid_decidable()),
            "LayerAuditor requires pid-decidable layer rules"
        );
        let layers = specs
            .iter()
            .map(|s| LayerBooks {
                name: s.name.clone(),
                cap_rate: match s.policy {
                    LayerPolicy::BandwidthCap { bytes_per_sec } => Some(bytes_per_sec as f64),
                    _ => None,
                },
                admitted: 0.0,
                dispatched: 0,
                finished: 0,
            })
            .collect();
        let latency_prio = specs
            .iter()
            .map(|s| s.policy == LayerPolicy::LatencyPrio)
            .collect();
        LayerAuditor {
            specs,
            layers,
            latency_prio,
            assign: FastMap::default(),
            pending: FastMap::default(),
        }
    }

    fn layer_of_pid(&mut self, pid: Pid, out: &mut Vec<String>) -> usize {
        let i = classify(&self.specs, pid, None, None);
        match self.assign.insert(pid, i) {
            Some(prev) if prev != i => out.push(format!(
                "pid {} reclassified from layer '{}' to layer '{}'",
                pid.0, self.layers[prev].name, self.layers[i].name
            )),
            _ => {}
        }
        i
    }

    /// Mirror of the arbiter's request routing: latency inheritance by
    /// cause tag first, then shared journal/metadata traffic to the
    /// default (last) layer, data by its first known cause, then by
    /// submitter. Conservation only needs dispatch and finish routed
    /// identically, which this replay guarantees by construction.
    fn layer_of_req(&self, req: &Request) -> usize {
        for &pid in req.causes.as_slice() {
            if let Some(&i) = self.assign.get(&pid) {
                if self.latency_prio[i] {
                    return i;
                }
            }
        }
        if req.kind != ReqKind::Data {
            return self.layers.len() - 1;
        }
        for &pid in req.causes.as_slice() {
            if let Some(&i) = self.assign.get(&pid) {
                return i;
            }
        }
        if let Some(&i) = self.assign.get(&req.submitter) {
            return i;
        }
        self.layers.len() - 1
    }
}

impl Auditor for LayerAuditor {
    fn name(&self) -> &'static str {
        "layer"
    }

    fn on_event(&mut self, now: SimTime, ev: &AuditEvent<'_>, out: &mut Vec<String>) {
        match ev {
            AuditEvent::SyscallEnter { pid, kind } => {
                let i = self.layer_of_pid(*pid, out);
                let bytes = match kind {
                    SyscallKind::Write { len, .. } => *len,
                    _ => 0,
                };
                if self.pending.insert(*pid, (i, bytes)).is_some() {
                    out.push(format!(
                        "pid {} entered a syscall with one already live",
                        pid.0
                    ));
                }
            }
            AuditEvent::SyscallExit { pid, .. } => {
                let Some((i, bytes)) = self.pending.remove(pid) else {
                    out.push(format!("pid {} exited a syscall that never entered", pid.0));
                    return;
                };
                if bytes == 0 {
                    return;
                }
                let books = &mut self.layers[i];
                let Some(rate) = books.cap_rate else { return };
                books.admitted += bytes as f64;
                // Envelope: full bucket (burst = 1 s of rate) plus refill
                // since t=0. Everything observed here was charged at or
                // before `now`, so a leak-free arbiter cannot exceed it.
                let bound = rate * (now.as_nanos() as f64 / 1e9) + rate + CAP_SLACK_BYTES;
                if books.admitted > bound {
                    out.push(format!(
                        "layer '{}' admitted {} write bytes by {:.6}s, over its cap \
                         envelope of {} (rate {}/s + burst)",
                        books.name,
                        books.admitted as u64,
                        now.as_secs_f64(),
                        bound as u64,
                        rate as u64,
                    ));
                }
            }
            AuditEvent::BlockDispatched { req } => {
                let i = self.layer_of_req(req);
                self.layers[i].dispatched += 1;
            }
            AuditEvent::BlockFinished { req, .. } => {
                let i = self.layer_of_req(req);
                let books = &mut self.layers[i];
                books.finished += 1;
                if books.finished > books.dispatched {
                    out.push(format!(
                        "layer '{}' finished {} request(s) but dispatched only {}",
                        books.name, books.finished, books.dispatched
                    ));
                }
            }
            _ => {}
        }
    }

    fn checkpoints(&self) -> Checkpoints {
        Checkpoints::AtQuiescence
    }

    fn on_checkpoint(&mut self, cp: &AuditCheckpoint<'_>, out: &mut Vec<String>) {
        if !cp.quiesced {
            return;
        }
        for (pid, (i, _)) in &self.pending {
            out.push(format!(
                "pid {} still live in layer '{}' at quiesce",
                pid.0, self.layers[*i].name
            ));
        }
        for books in &self.layers {
            if books.dispatched != books.finished {
                out.push(format!(
                    "layer '{}' dispatched {} request(s) but finished {} at quiesce",
                    books.name, books.dispatched, books.finished
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use split_layered::parse_layers;

    fn tree() -> Vec<LayerSpec> {
        parse_layers("cap:pidmod=2,1:cap=65536:noop;rest:default:share:noop").unwrap()
    }

    #[test]
    fn rejects_undecidable_rules() {
        let specs = parse_layers("named:prefix=db:share:noop;rest:default:share:noop").unwrap();
        assert!(std::panic::catch_unwind(|| LayerAuditor::new(specs)).is_err());
    }

    #[test]
    fn cap_envelope_trips_on_uncharged_admissions() {
        let mut a = LayerAuditor::new(tree());
        let mut out = Vec::new();
        // pid 1 lands in the capped layer (1 % 2 == 1). Admit far more
        // than burst + rate·t with t near zero: the envelope must trip.
        for k in 0..3u64 {
            let kind = SyscallKind::Write {
                file: sim_core::FileId(1),
                offset: k * 65536,
                len: 65536,
            };
            a.on_event(
                SimTime::from_nanos(k),
                &AuditEvent::SyscallEnter {
                    pid: Pid(1),
                    kind: &kind,
                },
                &mut out,
            );
            a.on_event(
                SimTime::from_nanos(k + 1),
                &AuditEvent::SyscallExit {
                    pid: Pid(1),
                    kind: &kind,
                    entered: SimTime::from_nanos(k),
                },
                &mut out,
            );
        }
        assert!(
            out.iter().any(|m| m.contains("over its cap envelope")),
            "expected a cap violation, got {out:?}"
        );
    }

    #[test]
    fn paced_admissions_stay_inside_the_envelope() {
        let mut a = LayerAuditor::new(tree());
        let mut out = Vec::new();
        // 64 KiB/s cap: one 32 KiB write per second stays well inside.
        for k in 0..10u64 {
            let kind = SyscallKind::Write {
                file: sim_core::FileId(1),
                offset: k * 32768,
                len: 32768,
            };
            let t = SimTime::from_nanos(k * 1_000_000_000);
            a.on_event(
                t,
                &AuditEvent::SyscallEnter {
                    pid: Pid(1),
                    kind: &kind,
                },
                &mut out,
            );
            a.on_event(
                t,
                &AuditEvent::SyscallExit {
                    pid: Pid(1),
                    kind: &kind,
                    entered: t,
                },
                &mut out,
            );
        }
        assert_eq!(out, Vec::<String>::new());
    }

    #[test]
    fn quiesce_flags_dangling_syscalls_and_unbalanced_layers() {
        let mut a = LayerAuditor::new(tree());
        let mut out = Vec::new();
        let kind = SyscallKind::Fsync {
            file: sim_core::FileId(1),
        };
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::SyscallEnter {
                pid: Pid(2),
                kind: &kind,
            },
            &mut out,
        );
        assert!(out.is_empty());
        let cp = AuditCheckpoint {
            now: SimTime::from_nanos(5),
            cache_dirty_total: 0,
            cache_dirty_sum: 0,
            sched_errors: &[],
            late_events: 0,
            quiesced: true,
        };
        a.on_checkpoint(&cp, &mut out);
        assert!(
            out.iter().any(|m| m.contains("still live")),
            "dangling syscall not flagged: {out:?}"
        );
    }
}
