//! The standard auditors.
//!
//! Each auditor watches one cross-layer invariant from the paper's
//! bookkeeping story. They build their own model of the run from the
//! event stream — nothing here reaches into kernel internals beyond what
//! [`crate::AuditEvent`] and [`crate::AuditCheckpoint`] carry — so a
//! violation always means the *kernel's* redundant books disagree, not
//! that the auditor lost track.

use sim_core::{FastMap, FastSet, Pid, RequestId, SimTime, TxnId};
use sim_fault::WriteStep;
use sim_fs::FsEvent;

use crate::audit::{AuditCheckpoint, AuditEvent, Auditor};

/// Cause-tag conservation: every cause a block-layer request carries must
/// trace back to a process the syscall layer has actually seen (or one of
/// the kernel's proxy tasks). A phantom pid in a cause set means a tag was
/// corrupted somewhere between the syscall and the device — billing work
/// to a process that never asked for it.
pub(crate) struct CauseTagAuditor {
    seen: FastSet<Pid>,
}

/// The journal task's proxy pid (it submits commits on behalf of the
/// entangled processes).
const JOURNAL_PID: Pid = Pid(1);
/// The background-writeback task's proxy pid.
const WRITEBACK_PID: Pid = Pid(2);

impl CauseTagAuditor {
    /// A fresh auditor; the kernel proxy tasks start pre-registered.
    pub(crate) fn new() -> Self {
        CauseTagAuditor {
            seen: [JOURNAL_PID, WRITEBACK_PID].into_iter().collect(),
        }
    }

    fn check(&self, req: &sim_block::Request, stage: &str, out: &mut Vec<String>) {
        for pid in req.causes.iter() {
            if !self.seen.contains(&pid) {
                out.push(format!(
                    "request {:?} {stage} carries cause {pid:?}, which never entered a syscall",
                    req.id
                ));
            }
        }
    }
}

impl Default for CauseTagAuditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor for CauseTagAuditor {
    fn name(&self) -> &'static str {
        "cause-tag"
    }

    fn on_event(&mut self, _now: SimTime, ev: &AuditEvent<'_>, out: &mut Vec<String>) {
        match ev {
            AuditEvent::SyscallEnter { pid, .. } => {
                self.seen.insert(*pid);
            }
            // Checked at submission *and* dispatch: the scheduler holds the
            // request in between and owns (clones of) it, so a scheduler
            // bug can corrupt tags after submission looked fine.
            AuditEvent::BlockSubmitted { req, .. } => self.check(req, "at submit", out),
            AuditEvent::BlockDispatched { req } => self.check(req, "at dispatch", out),
            _ => {}
        }
    }
}

/// Dirty-page accounting: the cache's incrementally maintained dirty
/// counter must equal the sum over the per-file extent maps at every
/// checkpoint. (Underflow cannot hide: `u64` wrap-around makes the two
/// sides diverge wildly.)
pub(crate) struct DirtyAccountingAuditor {
    _priv: (),
}

impl DirtyAccountingAuditor {
    /// A fresh auditor.
    pub(crate) fn new() -> Self {
        DirtyAccountingAuditor { _priv: () }
    }
}

impl Default for DirtyAccountingAuditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor for DirtyAccountingAuditor {
    fn name(&self) -> &'static str {
        "dirty-accounting"
    }

    fn on_checkpoint(&mut self, cp: &AuditCheckpoint<'_>, out: &mut Vec<String>) {
        // Dirty pages legitimately survive quiescence (writeback below the
        // background threshold never runs), so the only invariant is the
        // counter/extent-sum agreement.
        if cp.cache_dirty_total != cp.cache_dirty_sum {
            out.push(format!(
                "dirty counter {} != per-file extent sum {}",
                cp.cache_dirty_total, cp.cache_dirty_sum
            ));
        }
    }
}

#[derive(Default)]
struct TxnState {
    log_submitted: bool,
    log_ok: bool,
    commit_submitted: bool,
    commit_ok: bool,
    aborted: bool,
}

enum ReqRole {
    JournalData,
    Log(TxnId),
    Commit(TxnId),
}

/// Journal write-ahead ordering, reconstructed purely from the
/// [`WriteStep`] annotations on submitted writes:
///
/// * the commit's own ordered-data flush (submitted by the journal task)
///   completes before the transaction's log body is submitted;
/// * the commit record is submitted only after the log body is durable;
/// * `TxnCommitted` is declared only after the commit record is durable;
/// * committed transaction IDs are strictly monotone;
/// * a transaction commits at most once and never after aborting.
pub(crate) struct JournalOrderAuditor {
    txns: FastMap<TxnId, TxnState>,
    roles: FastMap<RequestId, ReqRole>,
    /// In-flight ordered-data flush writes issued by the journal task.
    inflight_journal_data: FastSet<RequestId>,
    last_committed: Option<TxnId>,
}

impl JournalOrderAuditor {
    /// A fresh auditor.
    pub(crate) fn new() -> Self {
        JournalOrderAuditor {
            txns: FastMap::default(),
            roles: FastMap::default(),
            inflight_journal_data: FastSet::default(),
            last_committed: None,
        }
    }
}

impl Default for JournalOrderAuditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor for JournalOrderAuditor {
    fn name(&self) -> &'static str {
        "journal-order"
    }

    fn on_event(&mut self, _now: SimTime, ev: &AuditEvent<'_>, out: &mut Vec<String>) {
        match ev {
            AuditEvent::BlockSubmitted { req, step, .. } => match step {
                WriteStep::Data { .. } if req.submitter == JOURNAL_PID => {
                    // Part of a commit's ordered-data flush.
                    self.roles.insert(req.id, ReqRole::JournalData);
                    self.inflight_journal_data.insert(req.id);
                }
                WriteStep::JournalLog { txn, ordered } => {
                    if !self.inflight_journal_data.is_empty() {
                        out.push(format!(
                            "log body of txn {txn:?} submitted while {} ordered-data \
                             write(s) of {:?} still in flight",
                            self.inflight_journal_data.len(),
                            ordered,
                        ));
                    }
                    let st = self.txns.entry(*txn).or_default();
                    if st.log_submitted {
                        out.push(format!("txn {txn:?} logged twice"));
                    }
                    st.log_submitted = true;
                    self.roles.insert(req.id, ReqRole::Log(*txn));
                }
                WriteStep::CommitRecord { txn } => {
                    let st = self.txns.entry(*txn).or_default();
                    if !st.log_ok {
                        out.push(format!(
                            "commit record of txn {txn:?} submitted before its log body \
                             was durable"
                        ));
                    }
                    if st.commit_submitted {
                        out.push(format!("txn {txn:?} has two commit records"));
                    }
                    st.commit_submitted = true;
                    self.roles.insert(req.id, ReqRole::Commit(*txn));
                }
                WriteStep::Checkpoint { .. } | WriteStep::Untracked | WriteStep::Data { .. } => {}
            },
            AuditEvent::BlockFinished { req, failed, .. } => match self.roles.remove(&req.id) {
                Some(ReqRole::JournalData) => {
                    self.inflight_journal_data.remove(&req.id);
                }
                Some(ReqRole::Log(txn)) if !*failed => {
                    self.txns.entry(txn).or_default().log_ok = true;
                }
                Some(ReqRole::Commit(txn)) if !*failed => {
                    self.txns.entry(txn).or_default().commit_ok = true;
                }
                Some(ReqRole::Log(_) | ReqRole::Commit(_)) | None => {}
            },
            AuditEvent::Fs(FsEvent::TxnCommitted { txn }) => {
                let st = self.txns.entry(*txn).or_default();
                if !st.commit_ok {
                    out.push(format!(
                        "txn {txn:?} declared durable before its commit record completed"
                    ));
                }
                if st.aborted {
                    out.push(format!("aborted txn {txn:?} declared durable"));
                }
                if let Some(last) = self.last_committed {
                    if *txn <= last {
                        out.push(format!(
                            "txn ids not monotone: {txn:?} committed after {last:?}"
                        ));
                    }
                }
                self.last_committed = Some(*txn);
            }
            AuditEvent::Fs(FsEvent::JournalAborted { txn }) => {
                self.txns.entry(*txn).or_default().aborted = true;
            }
            _ => {}
        }
    }
}

/// Scheduler ledgers: surfaces whatever the scheduler's own
/// [`split_core::IoSched::audit`] reports (Split-Token charge/refund
/// balance, CFQ slice budgets, token-bucket finiteness, the token gate's
/// waiter set).
pub(crate) struct SchedLedgerAuditor {
    _priv: (),
}

impl SchedLedgerAuditor {
    /// A fresh auditor.
    pub(crate) fn new() -> Self {
        SchedLedgerAuditor { _priv: () }
    }
}

impl Default for SchedLedgerAuditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor for SchedLedgerAuditor {
    fn name(&self) -> &'static str {
        "sched-ledger"
    }

    fn on_checkpoint(&mut self, cp: &AuditCheckpoint<'_>, out: &mut Vec<String>) {
        out.extend(cp.sched_errors.iter().cloned());
    }
}

/// Event-queue sanity: nothing is ever scheduled in the past. The queue
/// clamps late events (and asserts in debug builds); this auditor makes
/// the count a first-class violation in release runs too.
pub(crate) struct EventQueueAuditor {
    reported: u64,
}

impl EventQueueAuditor {
    /// A fresh auditor.
    pub(crate) fn new() -> Self {
        EventQueueAuditor { reported: 0 }
    }
}

impl Default for EventQueueAuditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor for EventQueueAuditor {
    fn name(&self) -> &'static str {
        "event-queue"
    }

    fn on_checkpoint(&mut self, cp: &AuditCheckpoint<'_>, out: &mut Vec<String>) {
        if cp.late_events > self.reported {
            out.push(format!(
                "{} event(s) scheduled in the past (clamped to now)",
                cp.late_events - self.reported
            ));
            self.reported = cp.late_events;
        }
    }
}

/// In-flight slot accounting for the device queue (serial or queued
/// plane): every slot acquired is released exactly once, no request
/// holds two slots, no slot holds two requests, occupancy never
/// exceeds the advertised queue depth, and the device's own in-flight
/// counter always agrees with the ledger rebuilt from the event
/// stream. At a quiesced checkpoint the ledger must be empty — a leaked
/// slot means a completion event was lost (or delivered twice and
/// swallowed).
pub(crate) struct InflightAuditor {
    /// Slot held by each in-flight request.
    slot_of: FastMap<RequestId, u32>,
    /// Request holding each occupied slot.
    holder_of: FastMap<u32, RequestId>,
}

impl InflightAuditor {
    /// A fresh auditor.
    pub(crate) fn new() -> Self {
        InflightAuditor {
            slot_of: FastMap::default(),
            holder_of: FastMap::default(),
        }
    }
}

impl Default for InflightAuditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor for InflightAuditor {
    fn name(&self) -> &'static str {
        "inflight"
    }

    fn on_event(&mut self, _now: SimTime, ev: &AuditEvent<'_>, out: &mut Vec<String>) {
        match ev {
            AuditEvent::SlotAcquired {
                req,
                slot,
                in_flight,
                depth,
            } => {
                if *slot >= *depth {
                    out.push(format!(
                        "request {:?} got slot {slot}, outside depth {depth}",
                        req.id
                    ));
                }
                if let Some(prev) = self.slot_of.insert(req.id, *slot) {
                    out.push(format!(
                        "request {:?} acquired slot {slot} while still holding slot {prev}",
                        req.id
                    ));
                }
                if let Some(holder) = self.holder_of.insert(*slot, req.id) {
                    if holder != req.id {
                        out.push(format!(
                            "slot {slot} given to request {:?} while held by {holder:?}",
                            req.id
                        ));
                    }
                }
                if self.slot_of.len() > *depth as usize {
                    out.push(format!(
                        "{} request(s) in flight exceeds queue depth {depth}",
                        self.slot_of.len()
                    ));
                }
                if *in_flight as usize != self.slot_of.len() {
                    out.push(format!(
                        "device reports {in_flight} in flight, slot ledger holds {}",
                        self.slot_of.len()
                    ));
                }
            }
            AuditEvent::SlotReleased {
                req,
                slot,
                in_flight,
                ..
            } => {
                match self.slot_of.remove(&req.id) {
                    None => out.push(format!(
                        "request {:?} released slot {slot} it never acquired \
                         (double completion?)",
                        req.id
                    )),
                    Some(held) if held != *slot => out.push(format!(
                        "request {:?} released slot {slot} but held slot {held}",
                        req.id
                    )),
                    Some(_) => {
                        self.holder_of.remove(slot);
                    }
                }
                if *in_flight as usize != self.slot_of.len() {
                    out.push(format!(
                        "device reports {in_flight} in flight, slot ledger holds {}",
                        self.slot_of.len()
                    ));
                }
            }
            _ => {}
        }
    }

    fn on_checkpoint(&mut self, cp: &AuditCheckpoint<'_>, out: &mut Vec<String>) {
        if cp.quiesced && !self.slot_of.is_empty() {
            let mut leaked: Vec<RequestId> = self.slot_of.keys().copied().collect();
            leaked.sort_by_key(|r| r.raw());
            out.push(format!(
                "{} slot(s) still held at quiescence: {leaked:?}",
                leaked.len()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_block::Request;
    use sim_core::{BlockNo, CauseSet, FileId, SimDuration};
    use sim_device::IoDir;

    fn req(id: u64, causes: CauseSet) -> Request {
        Request {
            id: RequestId(id),
            dir: IoDir::Write,
            start: BlockNo(0),
            nblocks: 1,
            submitter: JOURNAL_PID,
            causes,
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: Default::default(),
        }
    }

    #[test]
    fn phantom_cause_is_flagged_known_cause_is_not() {
        let mut a = CauseTagAuditor::new();
        let mut out = Vec::new();
        let kind = split_core::SyscallKind::Create;
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::SyscallEnter {
                pid: Pid(10),
                kind: &kind,
            },
            &mut out,
        );
        let ok = req(1, CauseSet::of(Pid(10)));
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::BlockDispatched { req: &ok },
            &mut out,
        );
        assert!(out.is_empty());
        let phantom = req(2, CauseSet::of(Pid(999)));
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::BlockDispatched { req: &phantom },
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn commit_record_before_durable_log_is_flagged() {
        let mut a = JournalOrderAuditor::new();
        let mut out = Vec::new();
        let r = req(1, CauseSet::empty());
        let step = WriteStep::CommitRecord { txn: TxnId(1) };
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::BlockSubmitted {
                req: &r,
                step: &step,
                sched_queued: 0,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn proper_protocol_order_is_clean() {
        let mut a = JournalOrderAuditor::new();
        let mut out = Vec::new();
        let t = TxnId(7);
        let data = req(1, CauseSet::empty());
        let dstep = WriteStep::Data { file: FileId(3) };
        let log = req(2, CauseSet::empty());
        let lstep = WriteStep::JournalLog {
            txn: t,
            ordered: vec![FileId(3)],
        };
        let commit = req(3, CauseSet::empty());
        let cstep = WriteStep::CommitRecord { txn: t };
        let ev = |req, step| AuditEvent::BlockSubmitted {
            req,
            step,
            sched_queued: 0,
        };
        a.on_event(SimTime::ZERO, &ev(&data, &dstep), &mut out);
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::BlockFinished {
                req: &data,
                failed: false,
                service: SimDuration::ZERO,
                sched_queued: 0,
            },
            &mut out,
        );
        a.on_event(SimTime::ZERO, &ev(&log, &lstep), &mut out);
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::BlockFinished {
                req: &log,
                failed: false,
                service: SimDuration::ZERO,
                sched_queued: 0,
            },
            &mut out,
        );
        a.on_event(SimTime::ZERO, &ev(&commit, &cstep), &mut out);
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::BlockFinished {
                req: &commit,
                failed: false,
                service: SimDuration::ZERO,
                sched_queued: 0,
            },
            &mut out,
        );
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::Fs(&FsEvent::TxnCommitted { txn: t }),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn inflight_double_completion_mutant_is_caught() {
        // The sabotaged-device scenario: a completion event delivered
        // twice for the same request. The first release balances the
        // books; the second must be flagged.
        let mut a = InflightAuditor::new();
        let mut out = Vec::new();
        let r = req(1, CauseSet::empty());
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::SlotAcquired {
                req: &r,
                slot: 0,
                in_flight: 1,
                depth: 8,
            },
            &mut out,
        );
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::SlotReleased {
                req: &r,
                slot: 0,
                in_flight: 0,
                depth: 8,
            },
            &mut out,
        );
        assert!(out.is_empty(), "balanced acquire/release is clean: {out:?}");
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::SlotReleased {
                req: &r,
                slot: 0,
                in_flight: 0,
                depth: 8,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("double completion"), "{out:?}");
    }

    #[test]
    fn inflight_over_depth_and_slot_collision_are_flagged() {
        let mut a = InflightAuditor::new();
        let mut out = Vec::new();
        let r1 = req(1, CauseSet::empty());
        let r2 = req(2, CauseSet::empty());
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::SlotAcquired {
                req: &r1,
                slot: 0,
                in_flight: 1,
                depth: 1,
            },
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        // Second acquisition of the same slot past depth 1.
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::SlotAcquired {
                req: &r2,
                slot: 0,
                in_flight: 2,
                depth: 1,
            },
            &mut out,
        );
        assert!(
            out.iter().any(|m| m.contains("exceeds queue depth")),
            "{out:?}"
        );
        assert!(out.iter().any(|m| m.contains("while held by")), "{out:?}");
    }

    #[test]
    fn inflight_leak_surfaces_at_quiescence() {
        let mut a = InflightAuditor::new();
        let mut out = Vec::new();
        let r = req(7, CauseSet::empty());
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::SlotAcquired {
                req: &r,
                slot: 3,
                in_flight: 1,
                depth: 8,
            },
            &mut out,
        );
        let cp = AuditCheckpoint {
            now: SimTime::ZERO,
            cache_dirty_total: 0,
            cache_dirty_sum: 0,
            sched_errors: &[],
            late_events: 0,
            quiesced: true,
        };
        a.on_checkpoint(&cp, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("still held at quiescence"), "{out:?}");
    }

    #[test]
    fn txn_ids_must_be_monotone() {
        let mut a = JournalOrderAuditor::new();
        let mut out = Vec::new();
        for t in [TxnId(2), TxnId(1)] {
            a.txns.insert(
                t,
                TxnState {
                    log_submitted: true,
                    log_ok: true,
                    commit_submitted: true,
                    commit_ok: true,
                    aborted: false,
                },
            );
        }
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::Fs(&FsEvent::TxnCommitted { txn: TxnId(2) }),
            &mut out,
        );
        a.on_event(
            SimTime::ZERO,
            &AuditEvent::Fs(&FsEvent::TxnCommitted { txn: TxnId(1) }),
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }
}
