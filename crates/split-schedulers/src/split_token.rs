//! Split-Token (§5.3): token-bucket throttling with two-phase accounting.
//!
//! * **Prompt charge** — the buffer-dirty hook charges a preliminary,
//!   offset-randomness-based estimate the moment data is dirtied, so a
//!   process cannot flood the write buffer for free (the Figure 1 failure).
//!   Overwrites of already-dirty buffers cost nothing — the flush work is
//!   unchanged (what SCS-Token gets wrong by 837×).
//! * **Revision** — when the file system flushes the data with real disk
//!   locations, the block-level hook replaces the estimate with the true
//!   normalized cost (charging more for fragmentation, refunding
//!   sequentiality).
//! * **Enforcement** — write-like syscalls and block-level *reads* of an
//!   indebted process are held; syscall reads are never gated (cache hits
//!   stay free) and block writes are never gated (journal entanglement,
//!   §3.3).

use std::collections::HashMap;
use std::fmt;

use sim_block::sorted::SortedQueue;
use sim_block::{Dispatch, ReqKind, Request};
use sim_core::{BlockNo, FileId, IoError, Pid, RequestId, SimDuration, SimTime};
use sim_device::IoDir;
use split_core::{BufferDirtied, BufferFreed, Gate, SchedAttr, SchedCtx, Scheduler, SyscallInfo};

use crate::tokens::TokenBuckets;

/// Typed failure from the two-phase token account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccountError {
    /// A reversal hit an account with no outstanding pages: the prompt
    /// charge it would reverse was never made (a duplicate free, or a
    /// revision racing a buffer drop). Dividing through the page count
    /// here used to produce 0/0 = NaN, which poisons every balance it is
    /// added to; the caller must refund nothing instead.
    ZeroPageAccount {
        /// File whose account was empty.
        file: FileId,
        /// Pages the caller tried to reverse.
        pages: u64,
    },
}

impl fmt::Display for AccountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccountError::ZeroPageAccount { file, pages } => write!(
                f,
                "reversal of {pages} page(s) against empty token account for file {}",
                file.0
            ),
        }
    }
}

impl std::error::Error for AccountError {}

/// Maintenance tick while calls are held.
const TICK: SimDuration = SimDuration::from_millis(10);

/// Reads served between write batches at the block level.
const READ_BATCH: u32 = 16;

#[derive(Debug, Default, Clone, Copy)]
struct PrelimOutstanding {
    norm_bytes: f64,
    pages: u64,
}

impl PrelimOutstanding {
    /// Reverse `pages` pages of outstanding prompt charge, returning the
    /// normalized bytes to hand back. An empty account cannot price a
    /// page, so the reversal is a typed error rather than a 0/0 division.
    fn reverse(&mut self, file: FileId, pages: u64) -> Result<f64, AccountError> {
        if pages == 0 {
            return Ok(0.0);
        }
        if self.pages == 0 {
            return Err(AccountError::ZeroPageAccount { file, pages });
        }
        let per_page = self.norm_bytes / self.pages as f64;
        let r = per_page * pages as f64;
        self.norm_bytes = (self.norm_bytes - r).max(0.0);
        self.pages = self.pages.saturating_sub(pages);
        Ok(r)
    }
}

/// The Split-Token scheduler.
pub struct SplitToken {
    buckets: TokenBuckets,
    /// Per-file last write offset (randomness guess).
    last_offset: HashMap<FileId, u64>,
    /// Outstanding preliminary charges per file, reversed at revision.
    prelim: HashMap<FileId, PrelimOutstanding>,
    /// Net tokens charged per in-flight request, reversed if it fails.
    charged: HashMap<RequestId, f64>,
    /// Account errors observed (reversals against empty accounts that
    /// would previously have produced NaN balances).
    account_errors: Vec<AccountError>,
    // Block level: per-pid read queues (throttled pids are skipped),
    // one write queue (never throttled).
    reads: HashMap<Pid, (SortedQueue, BlockNo)>,
    writes: SortedQueue,
    write_pos: BlockNo,
    reads_in_batch: u32,
    rr_readers: Vec<Pid>,
    timer_armed: bool,
}

impl SplitToken {
    /// Split-Token with the stock tunables above.
    pub fn new() -> Self {
        SplitToken {
            buckets: TokenBuckets::new(),
            last_offset: HashMap::new(),
            prelim: HashMap::new(),
            charged: HashMap::new(),
            account_errors: Vec::new(),
            reads: HashMap::new(),
            writes: SortedQueue::new(),
            write_pos: BlockNo(0),
            reads_in_batch: 0,
            rr_readers: Vec::new(),
            timer_armed: false,
        }
    }

    fn charge_causes(&mut self, req: &Request, norm: f64, now: SimTime) {
        let causes = if req.causes.is_empty() {
            // Untagged I/O (XFS log task): nobody is charged — exactly the
            // partial-integration gap of §6.
            return;
        } else {
            req.causes.clone()
        };
        for (pid, share) in causes.shares(norm) {
            self.buckets.charge(pid, share, now);
        }
    }

    fn arm_timer(&mut self, ctx: &mut SchedCtx<'_>) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(ctx.now + TICK);
        }
    }

    fn maintenance(&mut self, ctx: &mut SchedCtx<'_>) {
        self.buckets.release_ready(ctx.now, |pid| ctx.wake(pid));
        if self.buckets.any_held() {
            self.arm_timer(ctx);
        }
        ctx.kick_dispatch();
    }
}

impl Default for SplitToken {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for SplitToken {
    fn name(&self) -> &'static str {
        "split-token"
    }

    fn configure(&mut self, pid: Pid, attr: SchedAttr, _ctx: &mut SchedCtx<'_>) {
        // Timers/wakes run via the maintenance pass after configure.
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
        if !sc.kind.is_write_like() {
            return Gate::Proceed; // reads are never gated (cache hits free)
        }
        if self.buckets.may_proceed(sc.pid, ctx.now) {
            return Gate::Proceed;
        }
        self.buckets.hold(sc.pid);
        if let Some(at) = self.buckets.ready_at(sc.pid, ctx.now) {
            if at < SimTime::MAX {
                ctx.set_timer(at);
            }
        }
        self.arm_timer(ctx);
        Gate::Hold
    }

    fn buffer_dirtied(&mut self, ev: &BufferDirtied<'_>, ctx: &mut SchedCtx<'_>) -> u64 {
        if ev.new_bytes == 0 {
            return ev.len; // overwrites: no new flush work, no charge
        }
        // Each page's `f64` charge is part of the result: charge per page.
        ev.each_page(ctx, |ev, ctx| {
            let offset = ev.page * sim_core::PAGE_SIZE;
            let sequential = self.last_offset.get(&ev.file) == Some(&offset);
            self.last_offset.insert(ev.file, offset + ev.new_bytes);
            let seek_equiv = if ctx.device.is_rotational() {
                0.008 * ctx.device.seq_bandwidth()
            } else {
                0.0002 * ctx.device.seq_bandwidth()
            };
            let norm = if sequential {
                ev.new_bytes as f64
            } else {
                ev.new_bytes as f64 + seek_equiv
            };
            for (pid, share) in ev.causes.shares(norm) {
                self.buckets.charge(pid, share, ctx.now);
            }
            self.buckets.sample(ctx.tracer(), ctx.now);
            let p = self.prelim.entry(ev.file).or_default();
            p.norm_bytes += norm;
            p.pages += 1;
        })
    }

    fn buffer_freed(&mut self, ev: &BufferFreed, ctx: &mut SchedCtx<'_>) {
        // The write work evaporated: refund the preliminary charge.
        let pages = ev.bytes / sim_core::PAGE_SIZE;
        let refund = match self.prelim.get_mut(&ev.file) {
            Some(p) => match p.reverse(ev.file, pages) {
                Ok(r) => r,
                Err(e) => {
                    self.account_errors.push(e);
                    0.0
                }
            },
            None => 0.0,
        };
        if refund > 0.0 {
            for (pid, share) in ev.causes.shares(refund) {
                self.buckets.refund(pid, share, ctx.now);
            }
        }
    }

    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        match req.dir {
            IoDir::Read => {
                let pid = req.submitter;
                let q = self
                    .reads
                    .entry(pid)
                    .or_insert_with(|| (SortedQueue::new(), BlockNo(0)));
                q.0.insert(req);
                if !self.rr_readers.contains(&pid) {
                    self.rr_readers.push(pid);
                }
            }
            IoDir::Write => self.writes.insert(req),
        }
        ctx.kick_dispatch();
    }

    fn block_dispatch(&mut self, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let now = ctx.now;
        // Reads first (they block callers), round-robin over pids whose
        // bucket allows it.
        if self.reads_in_batch < READ_BATCH || self.writes.is_empty() {
            let n = self.rr_readers.len();
            for _ in 0..n {
                let pid = self.rr_readers.remove(0);
                let has_work = self
                    .reads
                    .get(&pid)
                    .map(|q| !q.0.is_empty())
                    .unwrap_or(false);
                if !has_work {
                    continue; // drops out; re-added on next request
                }
                self.rr_readers.push(pid);
                if !self.buckets.may_proceed(pid, now) {
                    continue; // throttled at the block level (§5.3)
                }
                // Deep hardware queue: cap any one tenant to half the
                // hardware queue while a competitor has reads waiting, so
                // a burst cannot seize every NCQ slot. The in-flight
                // analogue of the token throttle; a no-op at depth 1 and
                // on a virtual disk (no occupancy view).
                if let Some(occ) = ctx.occupancy() {
                    let cap = (occ.depth / 2).max(1);
                    if occ.depth > 1
                        && occ.of(pid) >= cap
                        && self.reads.iter().any(|(&p, q)| p != pid && !q.0.is_empty())
                    {
                        continue;
                    }
                }
                let q = self.reads.get_mut(&pid).expect("has work");
                let req = q.0.pop_cscan(q.1).expect("non-empty");
                q.1 = req.shape().end();
                let norm = ctx.device.peek_service_time(&req.shape()).as_secs_f64()
                    * ctx.device.seq_bandwidth();
                self.charge_causes(&req, norm, now);
                if !req.causes.is_empty() && norm != 0.0 {
                    self.charged.insert(req.id, norm);
                }
                self.reads_in_batch += 1;
                return Dispatch::Issue(req);
            }
        }
        // Writes are never throttled below the journal.
        self.reads_in_batch = 0;
        if let Some(req) = self.writes.pop_cscan(self.write_pos) {
            self.write_pos = req.shape().end();
            let real = ctx.device.peek_service_time(&req.shape()).as_secs_f64()
                * ctx.device.seq_bandwidth();
            let revised = if req.kind == ReqKind::Data {
                // Replace the preliminary estimate with the real cost.
                let reversal = match req.file {
                    Some(f) => match self.prelim.get_mut(&f).map(|p| p.reverse(f, req.nblocks)) {
                        Some(Ok(r)) => r,
                        Some(Err(e)) => {
                            self.account_errors.push(e);
                            0.0
                        }
                        None => 0.0,
                    },
                    None => 0.0,
                };
                real - reversal
            } else {
                // Journal / checkpoint: no estimate existed; charge fully.
                real
            };
            if revised >= 0.0 {
                self.charge_causes(&req, revised, now);
            } else if !req.causes.is_empty() {
                for (pid, share) in req.causes.shares(-revised) {
                    self.buckets.refund(pid, share, now);
                }
            }
            if !req.causes.is_empty() && revised != 0.0 {
                self.charged.insert(req.id, revised);
            }
            return Dispatch::Issue(req);
        }
        // Everything left is throttled reads: wait for the earliest refill.
        let mut earliest: Option<SimTime> = None;
        for (&pid, q) in &self.reads {
            if q.0.is_empty() {
                continue;
            }
            if let Some(at) = self.buckets.ready_at(pid, now) {
                if at < SimTime::MAX {
                    earliest = Some(earliest.map_or(at, |e| e.min(at)));
                }
            }
        }
        match earliest {
            Some(at) => Dispatch::WaitUntil(at),
            None => Dispatch::Idle,
        }
    }

    fn block_completed(&mut self, req: &Request, ctx: &mut SchedCtx<'_>) {
        self.charged.remove(&req.id);
        self.maintenance(ctx);
    }

    fn block_failed(&mut self, req: &Request, _error: IoError, ctx: &mut SchedCtx<'_>) {
        // The device never did the work: reverse whatever dispatch-time
        // accounting charged (or re-collect a dispatch-time refund), so a
        // failing workload is not also billed for it.
        if let Some(net) = self.charged.remove(&req.id) {
            if net > 0.0 {
                for (pid, share) in req.causes.shares(net) {
                    self.buckets.refund(pid, share, ctx.now);
                }
            } else {
                for (pid, share) in req.causes.shares(-net) {
                    self.buckets.charge(pid, share, ctx.now);
                }
            }
        }
        self.maintenance(ctx);
    }

    fn timer_fired(&mut self, ctx: &mut SchedCtx<'_>) {
        self.timer_armed = false;
        self.maintenance(ctx);
    }

    fn queued(&self) -> usize {
        self.writes.len() + self.reads.values().map(|q| q.0.len()).sum::<usize>()
    }

    fn audit(&self, quiesced: bool) -> Vec<String> {
        let mut bad = self.buckets.audit();
        let mut files: Vec<&FileId> = self.prelim.keys().collect();
        files.sort();
        for f in files {
            let p = &self.prelim[f];
            if !p.norm_bytes.is_finite() || p.norm_bytes < 0.0 {
                bad.push(format!(
                    "split-token: prelim account {f:?} holds {} normalized bytes",
                    p.norm_bytes
                ));
            }
            // An account with no pages left cannot carry a material charge:
            // its entire balance was priced per page.
            if p.pages == 0 && p.norm_bytes > 1e-6 {
                bad.push(format!(
                    "split-token: prelim account {f:?} has 0 pages but {} normalized bytes",
                    p.norm_bytes
                ));
            }
        }
        let mut ids: Vec<&RequestId> = self.charged.keys().collect();
        ids.sort();
        for id in ids {
            let net = self.charged[id];
            if !net.is_finite() {
                bad.push(format!("split-token: request {id:?} carries charge {net}"));
            }
        }
        // At quiescence every dispatch-time charge must have been settled
        // by block_completed or refunded by block_failed — a leftover entry
        // means charges minus refunds no longer equals dispatched cost.
        if quiesced && !self.charged.is_empty() {
            bad.push(format!(
                "split-token: {} unsettled dispatch charge(s) at quiescence",
                self.charged.len()
            ));
        }
        // `account_errors` are deliberately NOT violations: an empty-account
        // reversal is answered with a zero refund and recorded — the ledger
        // stays consistent, which is exactly what the checks above verify.
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{CauseSet, FileId, RequestId};
    use sim_device::HddModel;
    use split_core::SyscallKind;

    fn write_info(pid: u32) -> SyscallInfo {
        SyscallInfo {
            pid: Pid(pid),
            kind: SyscallKind::Write {
                file: FileId(1),
                offset: 0,
                len: 4096,
            },
            ioprio: Default::default(),
            cached: None,
        }
    }

    fn dirty(file: u64, page: u64, causes: &CauseSet, new_bytes: u64) -> BufferDirtied<'_> {
        BufferDirtied {
            file: FileId(file),
            page,
            len: 1,
            causes,
            prev: (new_bytes == 0).then_some(causes),
            block: None,
            new_bytes,
        }
    }

    #[test]
    fn unthrottled_pids_never_hold() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        assert_eq!(s.syscall_enter(&write_info(1), &mut ctx), Gate::Proceed);
    }

    #[test]
    fn prompt_charge_gates_the_next_write() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1_000_000), &mut ctx); // 1 MB/s
                                                                        // A random page costs ~8 ms × 110 MB/s ≈ 880 KB normalized.
                                                                        // Dirty several: debt.
        for i in 0..4 {
            s.buffer_dirtied(&dirty(1, i * 1000, &CauseSet::of(Pid(1)), 4096), &mut ctx);
        }
        assert_eq!(s.syscall_enter(&write_info(1), &mut ctx), Gate::Hold);
    }

    #[test]
    fn audit_surfaces_the_waiter_set_check() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1_000_000), &mut ctx);
        s.buckets.charge(Pid(1), 5e6, SimTime::ZERO);
        assert_eq!(s.syscall_enter(&write_info(1), &mut ctx), Gate::Hold);
        assert_eq!(s.audit(false), Vec::<String>::new());
        // Parking a pid that is already parked breaks the set.
        s.buckets.hold(Pid(1));
        assert_eq!(s.audit(false), ["tokens: Pid(1) is held twice"]);
    }

    #[test]
    fn overwrites_are_free() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1_000_000), &mut ctx);
        for _ in 0..10_000 {
            s.buffer_dirtied(&dirty(1, 0, &CauseSet::of(Pid(1)), 0), &mut ctx);
        }
        assert_eq!(
            s.syscall_enter(&write_info(1), &mut ctx),
            Gate::Proceed,
            "re-dirtying the same buffer must not be charged"
        );
    }

    #[test]
    fn buffer_free_refunds() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1_000_000), &mut ctx);
        // Two scattered pages: ~1.7 MB normalized against a 1 MB bucket.
        s.buffer_dirtied(&dirty(1, 5000, &CauseSet::of(Pid(1)), 4096), &mut ctx);
        s.buffer_dirtied(&dirty(1, 9000, &CauseSet::of(Pid(1)), 4096), &mut ctx);
        let before = s.buckets.balance(Pid(1), SimTime::ZERO).unwrap();
        assert!(before < 0.0);
        s.buffer_freed(
            &BufferFreed {
                file: FileId(1),
                page: 5000,
                causes: CauseSet::of(Pid(1)),
                bytes: 4096,
            },
            &mut ctx,
        );
        let after = s.buckets.balance(Pid(1), SimTime::ZERO).unwrap();
        assert!(after > before, "deleted buffers refund tokens");
    }

    #[test]
    fn throttled_reads_skipped_at_block_level_but_writes_flow() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1000), &mut ctx);
        // Deep debt.
        s.buckets.charge(Pid(1), 1e9, SimTime::ZERO);
        let r = Request {
            id: RequestId(1),
            dir: IoDir::Read,
            start: BlockNo(100),
            nblocks: 1,
            submitter: Pid(1),
            causes: CauseSet::of(Pid(1)),
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: ReqKind::Data,
        };
        let w = Request {
            id: RequestId(2),
            dir: IoDir::Write,
            causes: CauseSet::of(Pid(1)),
            sync: false,
            ..r.clone()
        };
        s.block_add(r, &mut ctx);
        s.block_add(w, &mut ctx);
        // The write goes out despite the debt; the read waits.
        match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(req) => assert_eq!(req.id, RequestId(2)),
            other => panic!("{other:?}"),
        }
        match s.block_dispatch(&mut ctx) {
            Dispatch::WaitUntil(_) => {}
            other => panic!("read should wait for refill: {other:?}"),
        }
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn zero_page_account_reversal_is_a_typed_error_not_nan() {
        let mut p = PrelimOutstanding::default();
        assert_eq!(
            p.reverse(FileId(7), 3),
            Err(AccountError::ZeroPageAccount {
                file: FileId(7),
                pages: 3
            })
        );
        // Reversing zero pages is a legitimate no-op even when empty.
        assert_eq!(p.reverse(FileId(7), 0), Ok(0.0));
        // And a populated account divides cleanly.
        p.norm_bytes = 8192.0;
        p.pages = 2;
        assert_eq!(p.reverse(FileId(7), 1), Ok(4096.0));
        assert_eq!(p.pages, 1);
    }

    #[test]
    fn freeing_never_charged_buffers_records_error_and_refunds_nothing() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1_000_000), &mut ctx);
        // Dirty one page of file 1, then free *two* pages: the account
        // empties on the first and the second reversal hits zero pages.
        s.buffer_dirtied(&dirty(1, 5000, &CauseSet::of(Pid(1)), 4096), &mut ctx);
        let before = s.buckets.balance(Pid(1), SimTime::ZERO).unwrap();
        for _ in 0..2 {
            s.buffer_freed(
                &BufferFreed {
                    file: FileId(1),
                    page: 5000,
                    causes: CauseSet::of(Pid(1)),
                    bytes: 4096,
                },
                &mut ctx,
            );
        }
        let after = s.buckets.balance(Pid(1), SimTime::ZERO).unwrap();
        assert!(after.is_finite(), "NaN must never reach the bucket");
        assert!(after >= before, "the one real page was refunded");
        assert_eq!(s.account_errors.len(), 1);
        assert!(matches!(
            s.account_errors[0],
            AccountError::ZeroPageAccount {
                file: FileId(1),
                pages: 1
            }
        ));
    }

    #[test]
    fn failed_requests_refund_the_dispatch_charge() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1_000_000), &mut ctx);
        let r = Request {
            id: RequestId(1),
            dir: IoDir::Read,
            start: BlockNo(100),
            nblocks: 8,
            submitter: Pid(1),
            causes: CauseSet::of(Pid(1)),
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: ReqKind::Data,
        };
        s.block_add(r, &mut ctx);
        let req = match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(req) => req,
            other => panic!("{other:?}"),
        };
        let charged = s.buckets.balance(Pid(1), SimTime::ZERO).unwrap();
        s.block_failed(
            &req,
            sim_core::IoError::new(sim_core::IoErrorKind::TransientDevice),
            &mut ctx,
        );
        let refunded = s.buckets.balance(Pid(1), SimTime::ZERO).unwrap();
        assert!(
            refunded > charged,
            "failed I/O must hand the tokens back: {charged} -> {refunded}"
        );
    }

    #[test]
    fn occupancy_cap_skips_a_reader_holding_half_the_queue() {
        use split_core::QueueOccupancy;
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let rd = |id: u64, pid: u32, start: u64| Request {
            id: RequestId(id),
            dir: IoDir::Read,
            start: BlockNo(start),
            nblocks: 8,
            submitter: Pid(pid),
            causes: CauseSet::of(Pid(pid)),
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: ReqKind::Data,
        };
        // Pid 1 already holds half an 8-deep queue; pid 2 holds nothing
        // and has a read waiting, so pid 1 must be skipped.
        let occ = QueueOccupancy {
            depth: 8,
            in_flight: 4,
            per_pid: vec![(Pid(1), 4)],
        };
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev).with_occupancy(&occ);
        s.block_add(rd(1, 1, 100), &mut ctx);
        s.block_add(rd(2, 2, 900), &mut ctx);
        match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(req) => assert_eq!(req.submitter, Pid(2), "capped pid skipped"),
            other => panic!("{other:?}"),
        }
        // With the competitor served, pid 1's turn comes even while it
        // holds its slots (no competitor with queued reads → no cap).
        match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(req) => assert_eq!(req.submitter, Pid(1)),
            other => panic!("{other:?}"),
        }
        // Depth 1 never caps (that plane is byte-identical to serial).
        let shallow = QueueOccupancy {
            depth: 1,
            in_flight: 1,
            per_pid: vec![(Pid(1), 1)],
        };
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev).with_occupancy(&shallow);
        s.block_add(rd(3, 1, 200), &mut ctx);
        s.block_add(rd(4, 2, 1000), &mut ctx);
        let issued = match s.block_dispatch(&mut ctx) {
            Dispatch::Issue(req) => req,
            other => panic!("{other:?}"),
        };
        assert_eq!(issued.dir, IoDir::Read);
    }

    #[test]
    fn untagged_journal_io_charges_nobody() {
        let dev = HddModel::new();
        let mut s = SplitToken::new();
        let mut ctx = SchedCtx::new(SimTime::ZERO, &dev);
        s.configure(Pid(1), SchedAttr::TokenRate(1_000_000), &mut ctx);
        let w = Request {
            id: RequestId(1),
            dir: IoDir::Write,
            start: BlockNo(9999),
            nblocks: 64,
            submitter: Pid(50),
            causes: CauseSet::empty(), // XFS partial integration
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: ReqKind::Journal,
        };
        s.block_add(w, &mut ctx);
        let _ = s.block_dispatch(&mut ctx);
        assert!(
            s.buckets.balance(Pid(1), SimTime::ZERO).unwrap() >= 0.0,
            "no one was charged for untagged log I/O"
        );
    }
}
