//! SCS-Token: the system-call-scheduling token bucket of Craciunas et al.
//! (§2.3.3), the baseline Split-Token is compared against.
//!
//! All accounting and enforcement happens at the syscall layer:
//!
//! * writes are charged their raw byte count at entry — no knowledge of
//!   overwrites (so re-dirtying cached buffers is billed again and again)
//!   and no knowledge of amplification or randomness (so 4 KB random
//!   writes are billed like 4 KB sequential ones);
//! * reads are charged bytes at exit, and only when they missed the cache
//!   (the paper notes SCS needed a file-system modification for this);
//!   random reads are thus billed like sequential reads — far below their
//!   device cost, which is why isolation fails (Figure 6);
//! * metadata calls are billed a fixed guess, because their real cost is
//!   invisible above the file system (§3.3).
//!
//! The block level is a plain FIFO: SCS does no scheduling there. Run it
//! with `KernelConfig::gate_reads = true` so reads pass through the gate
//! (and pay the per-call bookkeeping cost on every read).

use sim_block::{Dispatch, Request};
use sim_core::{Pid, SimDuration, SimTime};
use split_core::{Gate, SchedAttr, SchedCtx, Scheduler, SyscallInfo, SyscallKind};

use crate::tokens::TokenBuckets;

/// Bytes billed for a metadata call (a guess; SCS cannot know).
const META_GUESS_BYTES: f64 = 4096.0;

/// The SCS-Token scheduler.
pub struct ScsToken {
    buckets: TokenBuckets,
    fifo: std::collections::VecDeque<Request>,
    timer_armed: bool,
    tick: SimDuration,
}

impl ScsToken {
    /// A fresh SCS-Token instance.
    pub fn new() -> Self {
        ScsToken {
            buckets: TokenBuckets::new(),
            fifo: std::collections::VecDeque::new(),
            timer_armed: false,
            tick: SimDuration::from_millis(10),
        }
    }

    fn maintenance(&mut self, ctx: &mut SchedCtx<'_>) {
        self.buckets.release_ready(ctx.now, |pid| ctx.wake(pid));
        if self.buckets.any_held() && !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(ctx.now + self.tick);
        }
    }
}

impl Default for ScsToken {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for ScsToken {
    fn name(&self) -> &'static str {
        "scs-token"
    }

    fn configure(&mut self, pid: Pid, attr: SchedAttr, _ctx: &mut SchedCtx<'_>) {
        let now = SimTime::ZERO;
        match attr {
            SchedAttr::TokenRate(rate) => self.buckets.set_rate(pid, rate, now),
            SchedAttr::TokenCap(cap) => self.buckets.set_cap(pid, cap, now),
            SchedAttr::TokenGroup(g) => self.buckets.join_group(pid, g),
            SchedAttr::Unthrottled => self.buckets.unthrottle(pid),
            _ => {}
        }
    }

    fn syscall_enter(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) -> Gate {
        // Charge what SCS can see: bytes.
        match sc.kind {
            SyscallKind::Write { len, .. } => {
                self.buckets.charge(sc.pid, len as f64, ctx.now);
            }
            SyscallKind::Create | SyscallKind::Mkdir | SyscallKind::Unlink { .. } => {
                self.buckets.charge(sc.pid, META_GUESS_BYTES, ctx.now);
            }
            // Reads are charged at exit (cache-hit knowledge); fsync is
            // billed nothing — SCS cannot estimate its cost.
            SyscallKind::Read { .. } | SyscallKind::Fsync { .. } => {}
        }
        self.buckets.sample(ctx.tracer(), ctx.now);
        if self.buckets.may_proceed(sc.pid, ctx.now) {
            return Gate::Proceed;
        }
        self.buckets.hold(sc.pid);
        if let Some(at) = self.buckets.ready_at(sc.pid, ctx.now) {
            if at < SimTime::MAX {
                ctx.set_timer(at);
            }
        }
        Gate::Hold
    }

    fn syscall_exit(&mut self, sc: &SyscallInfo, ctx: &mut SchedCtx<'_>) {
        if let SyscallKind::Read { len, .. } = sc.kind {
            if sc.cached == Some(false) {
                self.buckets.charge(sc.pid, len as f64, ctx.now);
            }
        }
    }

    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        self.fifo.push_back(req);
        ctx.kick_dispatch();
    }

    fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
        match self.fifo.pop_front() {
            Some(r) => Dispatch::Issue(r),
            None => Dispatch::Idle,
        }
    }

    fn block_completed(&mut self, _req: &Request, ctx: &mut SchedCtx<'_>) {
        self.maintenance(ctx);
    }

    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        self.timer_armed = false;
        self.maintenance(ctx);
        ctx.kick_dispatch();
    }

    fn queued(&self) -> usize {
        self.fifo.len()
    }

    fn audit(&self, quiesced: bool) -> Vec<String> {
        let mut bad = self.buckets.audit();
        if quiesced && !self.fifo.is_empty() {
            bad.push(format!(
                "scs-token: {} request(s) queued at quiescence",
                self.fifo.len()
            ));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::FileId;
    use sim_device::HddModel;

    fn info(pid: u32, kind: SyscallKind, cached: Option<bool>) -> SyscallInfo {
        SyscallInfo {
            pid: Pid(pid),
            kind,
            ioprio: Default::default(),
            cached,
        }
    }

    #[test]
    fn writes_charged_raw_bytes_even_for_overwrites() {
        let dev = HddModel::new();
        let mut s = ScsToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1_000_000), &mut ctx);
        let w = SyscallKind::Write {
            file: FileId(1),
            offset: 0,
            len: 1_000_000,
        };
        // Same offset repeatedly — SCS cannot tell it is an overwrite.
        assert_eq!(s.syscall_enter(&info(1, w, None), &mut ctx), Gate::Proceed);
        assert_eq!(
            s.syscall_enter(&info(1, w, None), &mut ctx),
            Gate::Hold,
            "second 1 MB write exceeds the 1 MB/s budget"
        );
    }

    #[test]
    fn audit_surfaces_the_waiter_set_check() {
        let dev = HddModel::new();
        let mut s = ScsToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1000), &mut ctx);
        let w = SyscallKind::Write {
            file: FileId(1),
            offset: 0,
            len: 1_000_000,
        };
        assert_eq!(s.syscall_enter(&info(1, w, None), &mut ctx), Gate::Hold);
        assert_eq!(s.audit(false), Vec::<String>::new());
        // Parking a pid that is already parked breaks the set.
        s.buckets.hold(Pid(1));
        assert_eq!(s.audit(false), ["tokens: Pid(1) is held twice"]);
    }

    #[test]
    fn cached_reads_are_not_charged() {
        let dev = HddModel::new();
        let mut s = ScsToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1000), &mut ctx);
        let r = SyscallKind::Read {
            file: FileId(1),
            offset: 0,
            len: 1_000_000,
        };
        for _ in 0..100 {
            s.syscall_exit(&info(1, r, Some(true)), &mut ctx);
        }
        assert!(s.buckets.may_proceed(Pid(1), SimTime::ZERO));
        // A missed read is charged.
        s.syscall_exit(&info(1, r, Some(false)), &mut ctx);
        assert!(!s.buckets.may_proceed(Pid(1), SimTime::ZERO));
    }

    #[test]
    fn fsync_costs_nothing_at_the_gate() {
        let dev = HddModel::new();
        let mut s = ScsToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1000), &mut ctx);
        let f = SyscallKind::Fsync { file: FileId(1) };
        assert_eq!(s.syscall_enter(&info(1, f, None), &mut ctx), Gate::Proceed);
        assert!(s.buckets.may_proceed(Pid(1), SimTime::ZERO));
    }

    #[test]
    fn block_level_is_fifo() {
        use sim_core::{BlockNo, CauseSet, RequestId};
        let dev = HddModel::new();
        let mut s = ScsToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        for (id, start) in [(1u64, 900u64), (2, 10)] {
            s.block_add(
                Request {
                    id: RequestId(id),
                    dir: sim_device::IoDir::Read,
                    start: BlockNo(start),
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
        match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(r) => assert_eq!(r.id, RequestId(1)),
            other => panic!("{other:?}"),
        }
    }
}
