//! Adapter running a classic block-level elevator inside the split
//! framework (Figure 2a inside Figure 2c, so to speak).
//!
//! `BlockOnly` ignores the syscall- and memory-level hooks and per-pid
//! attributes — exactly the information a block-only scheduler does not
//! have (it keys on what each request carries: submitter prio, deadline)
//! — and forwards the block hooks to the wrapped [`Elevator`]. This is how
//! CFQ, Block-Deadline and Noop run in every experiment.

use sim_block::{Dispatch, Elevator, Request};

use crate::hooks::{SchedCtx, Scheduler};

/// A classic elevator adapted to the [`Scheduler`] interface.
pub struct BlockOnly<E: Elevator> {
    inner: E,
}

impl<E: Elevator> BlockOnly<E> {
    /// Wrap an elevator.
    pub fn new(inner: E) -> Self {
        BlockOnly { inner }
    }
}

impl<E: Elevator> Scheduler for BlockOnly<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        self.inner.add(req, ctx.now);
        ctx.kick_dispatch();
    }

    fn block_dispatch(&mut self, ctx: &mut SchedCtx<'_>) -> Dispatch {
        self.inner.dispatch(ctx.now, ctx.device)
    }

    fn block_completed(&mut self, req: &Request, ctx: &mut SchedCtx<'_>) {
        self.inner.completed(req, ctx.now);
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
    use crate::hooks::{Gate, SyscallInfo, SyscallKind};
    use sim_block::Noop;
    use sim_core::{BlockNo, CauseSet, FileId, Pid, RequestId, SimTime};
    use sim_device::{HddModel, IoDir};

    fn req(id: u64) -> Request {
        Request {
            id: RequestId(id),
            dir: IoDir::Read,
            start: BlockNo(id * 10),
            nblocks: 1,
            submitter: Pid(1),
            causes: CauseSet::empty(),
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: Default::default(),
        }
    }

    #[test]
    fn forwards_block_hooks_and_ignores_syscalls() {
        let dev = HddModel::new();
        let mut s = BlockOnly::new(Noop::new());
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);

        // Syscall hooks: default no-op, always Proceed.
        let sc = SyscallInfo {
            pid: Pid(1),
            kind: SyscallKind::Fsync { file: FileId(1) },
            ioprio: Default::default(),
            cached: None,
        };
        assert_eq!(s.syscall_enter(&sc, &mut ctx), Gate::Proceed);

        s.block_add(req(1), &mut ctx);
        s.block_add(req(2), &mut ctx);
        assert_eq!(s.queued(), 2);
        match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(r) => assert_eq!(r.id, RequestId(1)),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.name(), "noop");
    }
}
