//! A deliberately broken scheduler wrapper for mutation-testing the
//! auditor plane.
//!
//! [`Sabotaged`] delegates every hook to the wrapped scheduler, except
//! that from the N-th block-layer add onward it rewrites each request's
//! cause set with an off-by-1000 pid — the classic transposed-arithmetic
//! slip in tag bookkeeping. The corruption happens *inside* the scheduler,
//! after the kernel's submit-time bookkeeping saw a healthy request, so it
//! is only catchable by auditing again at dispatch. The mutation check in
//! sim-sweep asserts the cause-tag auditor catches it and that shrinking
//! reduces the trigger to a handful of syscalls.

use sim_block::{Dispatch, Request};
use sim_core::{CauseSet, IoError, Pid};
use split_core::{BufferDirtied, BufferFreed, Gate, IoSched, SchedAttr, SchedCtx, SyscallInfo};

/// How far the sabotage shifts every cause pid.
pub(crate) const PID_SHIFT: u32 = 1000;

/// A scheduler wrapper that corrupts cause tags after `after` adds.
pub struct Sabotaged<S> {
    inner: S,
    after: u64,
    adds: u64,
}

impl<S> Sabotaged<S> {
    /// Corrupt every request from the `after`-th block add onward
    /// (`after == 0` corrupts from the first).
    pub fn new(inner: S, after: u64) -> Self {
        Sabotaged {
            inner,
            after,
            adds: 0,
        }
    }
}

impl<S: IoSched> IoSched for Sabotaged<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn configure(&mut self, pid: Pid, attr: SchedAttr) {
        self.inner.configure(pid, attr);
    }

    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        self.inner.syscall_enter(sc, ctx)
    }

    fn syscall_exit(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) {
        self.inner.syscall_exit(sc, ctx)
    }

    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) {
        self.inner.buffer_dirtied(ev, ctx)
    }

    fn buffer_freed(&mut self, ev: &BufferFreed, ctx: &mut SchedCtx<'_>) {
        self.inner.buffer_freed(ev, ctx)
    }

    fn block_add(&mut self, mut req: Request, ctx: &mut SchedCtx<'_>) {
        self.adds += 1;
        if self.adds > self.after && !req.causes.is_empty() {
            req.causes = CauseSet::from_pids(req.causes.iter().map(|p| Pid(p.raw() + PID_SHIFT)));
        }
        self.inner.block_add(req, ctx)
    }

    fn block_dispatch(&mut self, ctx: &mut SchedCtx<'_>) -> Dispatch {
        self.inner.block_dispatch(ctx)
    }

    fn block_completed(&mut self, req: &Request, ctx: &mut SchedCtx<'_>) {
        self.inner.block_completed(req, ctx)
    }

    fn block_failed(&mut self, req: &Request, error: IoError, ctx: &mut SchedCtx<'_>) {
        self.inner.block_failed(req, error, ctx)
    }

    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        self.inner.timer_fired(ctx)
    }

    fn pick_dirty_waiter(&mut self, waiters: &[Pid]) -> usize {
        self.inner.pick_dirty_waiter(waiters)
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
    use sim_block::Noop;
    use sim_core::{BlockNo, FileId, RequestId, SimTime};
    use sim_device::{HddModel, IoDir};
    use split_core::BlockOnly;

    #[test]
    fn corrupts_causes_only_after_threshold() {
        let dev = HddModel::new();
        let mut s = Sabotaged::new(BlockOnly::new(Noop::new()), 1);
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        let req = |id: u64| Request {
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
            kind: Default::default(),
        };
        s.block_add(req(1), &mut ctx);
        s.block_add(req(2), &mut ctx);
        let dispatched: Vec<Request> = std::iter::from_fn(|| match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(r) => Some(r),
            _ => None,
        })
        .collect();
        assert_eq!(dispatched.len(), 2);
        assert!(
            dispatched[0].causes.contains(Pid(10)),
            "first add untouched"
        );
        assert!(
            dispatched[1].causes.contains(Pid(10 + PID_SHIFT)),
            "second add corrupted"
        );
    }
}
