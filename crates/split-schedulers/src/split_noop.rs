//! A no-op scheduler implemented *in the split framework*: every hook is
//! wired up and does its bookkeeping, but all I/O is issued immediately in
//! FIFO order. Comparing it against the block-level no-op isolates the
//! framework's own overhead (Figure 9 / §4.3).

use std::collections::VecDeque;

use sim_block::{Dispatch, Request};
use split_core::{BufferDirtied, BufferFreed, Gate, SchedCtx, Scheduler, SyscallInfo};

/// Split-framework no-op scheduler.
#[derive(Debug, Default)]
pub struct SplitNoop {
    fifo: VecDeque<Request>,
    /// Hook invocations observed, by level (syscall, memory, block).
    pub hook_counts: [u64; 3],
}

impl SplitNoop {
    /// A fresh instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for SplitNoop {
    fn name(&self) -> &'static str {
        "split-noop"
    }

    fn syscall_enter(&mut self, _sc: &SyscallInfo, _ctx: &mut SchedCtx<'_>) -> Gate {
        self.hook_counts[0] += 1;
        Gate::Proceed
    }

    fn syscall_exit(&mut self, _sc: &SyscallInfo, _ctx: &mut SchedCtx<'_>) {
        self.hook_counts[0] += 1;
    }

    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, _ctx: &mut SchedCtx<'_>) -> u64 {
        self.hook_counts[1] += ev.len;
        ev.len
    }

    fn buffer_freed(&mut self, _ev: &BufferFreed, _ctx: &mut SchedCtx<'_>) {
        self.hook_counts[1] += 1;
    }

    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        self.hook_counts[2] += 1;
        self.fifo.push_back(req);
        ctx.kick_dispatch();
    }

    fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
        match self.fifo.pop_front() {
            Some(r) => Dispatch::Issue(r),
            None => Dispatch::Idle,
        }
    }

    fn block_completed(&mut self, _req: &Request, _failed: bool, _ctx: &mut SchedCtx<'_>) {
        self.hook_counts[2] += 1;
    }

    fn queued(&self) -> usize {
        self.fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{BlockNo, CauseSet, Pid, RequestId, SimTime};
    use sim_device::{HddModel, IoDir};

    #[test]
    fn counts_hooks_and_issues_fifo() {
        let dev = HddModel::new();
        let mut s = SplitNoop::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        for id in 1..=3u64 {
            s.block_add(
                Request {
                    id: RequestId(id),
                    dir: IoDir::Read,
                    start: BlockNo(1000 - id),
                    nblocks: 1,
                    submitter: Pid(1),
                    causes: CauseSet::empty(),
                    sync: true,
                    ioprio: Default::default(),
                    deadline: None,
                    submitted_at: SimTime::ZERO,
                    file: None,
                    kind: Default::default(),
                },
                &mut ctx,
            );
        }
        assert_eq!(s.hook_counts[2], 3);
        match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(r) => assert_eq!(r.id, RequestId(1)),
            other => panic!("{other:?}"),
        }
    }
}
