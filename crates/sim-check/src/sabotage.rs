//! A deliberately broken scheduler wrapper for mutation-testing the
//! auditor plane and the chaos plane.
//!
//! [`Sabotaged`] forwards every message to the wrapped scheduler, except
//! that once its [`Trigger`] fires it rewrites each later request's cause
//! set with an off-by-1000 pid — the classic transposed-arithmetic slip in
//! tag bookkeeping. The corruption happens *inside* the scheduler, after
//! the kernel's submit-time bookkeeping saw a healthy request, so it is
//! only catchable by auditing again at dispatch.
//!
//! Two triggers model two classes of bug:
//!
//! * [`Trigger::AfterAdds`] corrupts unconditionally from the N-th block
//!   add — any batch that submits enough requests trips it. The mutation
//!   check in sim-sweep asserts the cause-tag auditor catches it and that
//!   shrinking reduces the trigger to a handful of syscalls.
//! * [`Trigger::Dwell`] models a latency assumption tuned to the happy
//!   path. The wrapper keeps a cause-tag handoff side table keyed by
//!   request, sized on the belief that no request ever dwells in the
//!   device longer than a fixed horizon; entries past the horizon are
//!   (fictionally) evicted early. The wrapper timestamps every data
//!   request it dispatches, and when one *completes* after dwelling past
//!   the horizon, the eviction has already wrecked the handoff.
//!
//!   With the chaos plane off this bug is unreachable by construction:
//!   device service times are pure functions of the request and the
//!   device model, so plain `runner check` batches — serial or queued —
//!   see a fixed, bounded dwell distribution that stays under any horizon
//!   calibrated above it. Only adversarial timing that *stretches*
//!   service beyond its deterministic value pushes a request past the
//!   horizon — which is exactly what the chaos plane's completion class
//!   does, and queue depth compounds it, since requests also wait behind
//!   their stretched neighbours. The chaos mutation test in sim-sweep
//!   asserts the plain batches miss this bug and a chaos batch catches
//!   and shrinks it.

use sim_block::{Dispatch, ReqKind};
use sim_core::{CauseSet, Pid, RequestId, SimDuration, SimTime};
use split_core::{Hook, IoSched, SchedCtx};

/// How far the sabotage shifts every cause pid.
const PID_SHIFT: u32 = 1000;

/// When a [`Sabotaged`] wrapper starts corrupting cause tags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// From the N-th block add onward (`AfterAdds(0)` corrupts from the
    /// first).
    AfterAdds(u64),
    /// After any data request completes having dwelt in the device longer
    /// than this horizon.
    Dwell(SimDuration),
}

/// A scheduler wrapper that corrupts cause tags once its trigger fires.
pub struct Sabotaged {
    inner: Box<dyn IoSched>,
    trigger: Trigger,
    /// Block adds seen so far.
    adds: u64,
    /// Data requests dispatched but not yet completed, with dispatch
    /// instants (tracked under [`Trigger::Dwell`] only).
    in_device: Vec<(RequestId, SimTime)>,
    /// Latched once the trigger fires; corrupts all later adds.
    poisoned: bool,
}

impl Sabotaged {
    /// Wrap `inner`, corrupting every request added after `trigger` fires.
    pub fn new(inner: Box<dyn IoSched>, trigger: Trigger) -> Self {
        Sabotaged {
            inner,
            trigger,
            adds: 0,
            in_device: Vec::new(),
            poisoned: false,
        }
    }

    /// Drop `id` from the in-device table, returning its dispatch instant.
    fn forget(&mut self, id: RequestId) -> Option<SimTime> {
        let i = self.in_device.iter().position(|(r, _)| *r == id)?;
        Some(self.in_device.swap_remove(i).1)
    }
}

impl IoSched for Sabotaged {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on(&mut self, hook: Hook<'_>, ctx: &mut SchedCtx<'_>) {
        match hook {
            Hook::BlockAdd(mut req) => {
                self.adds += 1;
                if let Trigger::AfterAdds(after) = self.trigger {
                    self.poisoned |= self.adds > after;
                }
                if self.poisoned && !req.causes.is_empty() {
                    req.causes =
                        CauseSet::from_pids(req.causes.iter().map(|p| Pid(p.raw() + PID_SHIFT)));
                }
                self.inner.on(Hook::BlockAdd(req), ctx)
            }
            Hook::BlockDispatch(d) => {
                self.inner.on(Hook::BlockDispatch(&mut *d), ctx);
                if let (Trigger::Dwell(_), Dispatch::Issue(req)) = (self.trigger, &*d) {
                    if req.kind == ReqKind::Data {
                        self.in_device.push((req.id, ctx.now));
                    }
                }
            }
            Hook::BlockCompleted(req) => {
                if let (Some(at), Trigger::Dwell(dwell)) = (self.forget(req.id), self.trigger) {
                    self.poisoned |= ctx.now.since(at) > dwell;
                }
                self.inner.on(Hook::BlockCompleted(req), ctx)
            }
            Hook::BlockFailed { req, error } => {
                self.forget(req.id);
                self.inner.on(Hook::BlockFailed { req, error }, ctx)
            }
            other => self.inner.on(other, ctx),
        }
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn audit(&self, quiesced: bool) -> Vec<String> {
        self.inner.audit(quiesced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_block::{Noop, Request};
    use sim_core::{BlockNo, FileId};
    use sim_device::{HddModel, IoDir};
    use split_core::BlockOnly;

    fn req(id: u64, kind: ReqKind) -> Request {
        Request {
            id: RequestId(id),
            dir: IoDir::Write,
            start: BlockNo(id),
            nblocks: 1,
            submitter: Pid(10),
            causes: CauseSet::of(Pid(10)),
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: Some(FileId(1)),
            kind,
        }
    }

    fn noop(trigger: Trigger) -> Sabotaged {
        Sabotaged::new(Box::new(BlockOnly::new(Noop::new())), trigger)
    }

    fn issue(s: &mut Sabotaged, ctx: &mut SchedCtx<'_>) -> Request {
        let mut d = Dispatch::Idle;
        s.on(Hook::BlockDispatch(&mut d), ctx);
        match d {
            Dispatch::Issue(r) => r,
            other => panic!("expected an issue, got {other:?}"),
        }
    }

    #[test]
    fn corrupts_causes_only_after_threshold() {
        let dev = HddModel::new();
        let mut s = noop(Trigger::AfterAdds(1));
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.on(Hook::BlockAdd(req(1, ReqKind::Data)), &mut ctx);
        s.on(Hook::BlockAdd(req(2, ReqKind::Data)), &mut ctx);
        let first = issue(&mut s, &mut ctx);
        let second = issue(&mut s, &mut ctx);
        assert!(first.causes.contains(Pid(10)), "first add untouched");
        assert!(
            second.causes.contains(Pid(10 + PID_SHIFT)),
            "second add corrupted"
        );
    }

    #[test]
    fn a_data_request_outliving_the_horizon_poisons_later_adds() {
        let dev = HddModel::new();
        let dwell = SimDuration::from_millis(1);
        let mut s = noop(Trigger::Dwell(dwell));

        // Dispatch a data request at t=0.
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.on(Hook::BlockAdd(req(1, ReqKind::Data)), &mut ctx);
        let data = issue(&mut s, &mut ctx);

        // It completes past the dwell horizon: the handoff table has
        // already lost its entry, the race fires.
        let late = SimTime::ZERO + SimDuration::from_millis(5);
        let mut ctx = SchedCtx::new(late, &dev);
        s.on(Hook::BlockCompleted(&data), &mut ctx);
        assert!(s.poisoned, "race observed");

        // Every add from now on carries shifted cause tags.
        s.on(Hook::BlockAdd(req(2, ReqKind::Data)), &mut ctx);
        let corrupted = issue(&mut s, &mut ctx);
        assert!(corrupted.causes.contains(Pid(10 + PID_SHIFT)));
    }

    #[test]
    fn dwell_under_the_horizon_stays_healthy() {
        let dev = HddModel::new();
        let dwell = SimDuration::from_millis(1);
        let mut s = noop(Trigger::Dwell(dwell));

        // Data completes inside the horizon — no poison, even when a
        // journal commit runs right after it.
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.on(Hook::BlockAdd(req(1, ReqKind::Data)), &mut ctx);
        let data = issue(&mut s, &mut ctx);
        let soon = SimTime::ZERO + SimDuration::from_micros(10);
        let mut ctx = SchedCtx::new(soon, &dev);
        s.on(Hook::BlockCompleted(&data), &mut ctx);
        s.on(Hook::BlockAdd(req(2, ReqKind::Journal)), &mut ctx);
        let commit = issue(&mut s, &mut ctx);
        let mut ctx = SchedCtx::new(soon + SimDuration::from_secs(1), &dev);
        s.on(Hook::BlockCompleted(&commit), &mut ctx);
        assert!(!s.poisoned, "dwell under the horizon");

        // Journal requests are not in the handoff table: a slow commit
        // does not trip the bug either.
        s.on(Hook::BlockAdd(req(3, ReqKind::Data)), &mut ctx);
        let clean = issue(&mut s, &mut ctx);
        assert!(clean.causes.contains(Pid(10)), "tags untouched");
    }
}
