//! Crash-consistency property sweep: power-cut the ordered-mode journal
//! at *every* protocol step of a multi-transaction workload and assert
//! that replay restores a consistent image each time.
//!
//! The harness mirrors every write the file system submits into a
//! [`DiskImage`] shadow; cutting power marks in-flight writes lost (or
//! torn), replay recovers committed transactions in order, and the
//! checker enforces the paper's ordered-mode guarantees: acknowledged
//! transactions durable, no metadata pointing at stale data, nothing
//! recovered from a torn log.

use std::collections::VecDeque;

use sim_cache::{CacheConfig, PageCache};
use sim_core::{CauseSet, FileId, Pid, SimDuration, SimTime, TxnId};
use sim_device::IoDir;
use sim_fault::{ConsistencyViolation, DiskImage};
use sim_fs::{FileSystem, FsEvent, FsOutput, IoReq, JournaledFs};

const JPID: Pid = Pid(1000);
const WBPID: Pid = Pid(1001);
const A: Pid = Pid(1);
const B: Pid = Pid(2);
const PAGE: u64 = sim_core::PAGE_SIZE;

/// Which journaled fs flavour to sweep.
#[derive(Clone, Copy)]
enum Flavour {
    Ext4,
    Xfs,
}

/// A miniature kernel with a shadow disk: completes the file system's
/// I/O in FIFO order while recording every write's durable state.
struct CrashHarness {
    fs: JournaledFs,
    cache: PageCache,
    pending: VecDeque<IoReq>,
    events: Vec<FsEvent>,
    image: DiskImage,
    /// Transactions whose `TxnCommitted` the stack reported (durability
    /// promises made before the crash).
    acked: Vec<TxnId>,
    now: SimTime,
    fa: FileId,
    fb: FileId,
    phase: u8,
}

impl CrashHarness {
    fn new(flavour: Flavour) -> Self {
        let fs = match flavour {
            Flavour::Ext4 => JournaledFs::new_ext4(1 << 27, JPID, WBPID),
            Flavour::Xfs => JournaledFs::new_xfs(1 << 27, JPID, WBPID),
        };
        let mut h = CrashHarness {
            fs,
            cache: PageCache::new(CacheConfig::default()),
            pending: VecDeque::new(),
            events: Vec::new(),
            image: DiskImage::new(),
            acked: Vec::new(),
            now: SimTime::ZERO,
            fa: FileId(0),
            fb: FileId(0),
            phase: 0,
        };
        let (fa, out) = h.fs.create_file(A, h.now);
        h.absorb(out);
        let (fb, out) = h.fs.create_file(B, h.now);
        h.absorb(out);
        h.fa = fa;
        h.fb = fb;
        h
    }

    fn absorb(&mut self, out: FsOutput) {
        for io in &out.ios {
            if io.dir == IoDir::Write {
                self.image.submit(io.token.0, io.step.clone(), io.nblocks);
            }
        }
        for ev in &out.events {
            if let FsEvent::TxnCommitted { txn } = ev {
                self.acked.push(*txn);
            }
        }
        self.pending.extend(out.ios);
        self.events.extend(out.events);
    }

    fn write(&mut self, file: FileId, pid: Pid, offset: u64, len: u64) {
        let causes = CauseSet::of(pid);
        for p in offset / PAGE..=(offset + len - 1) / PAGE {
            self.cache.dirty_page(file, p, &causes, self.now);
        }
        self.fs.note_write(file, &causes, offset, len, self.now);
    }

    fn fsync(&mut self, file: FileId, pid: Pid) {
        let out = self.fs.fsync(file, pid, &mut self.cache, self.now);
        self.absorb(out);
    }

    fn fsync_done_for(&self, pid: Pid) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FsEvent::FsyncDone { waiter, .. } if *waiter == pid))
    }

    /// Issue the next workload step once its precondition holds. Three
    /// transactions, entangled the way Figure 4 describes: txn 1 carries
    /// A's metadata plus B's ordered data, then B and A sync again.
    fn advance_workload(&mut self) {
        match self.phase {
            0 => {
                self.phase = 1;
                self.write(self.fa, A, 0, 2 * PAGE);
                self.write(self.fb, B, 0, 8 * PAGE);
                self.fsync(self.fa, A);
            }
            1 if self.fsync_done_for(A) => {
                self.phase = 2;
                self.write(self.fb, B, 8 * PAGE, 4 * PAGE);
                self.fsync(self.fb, B);
            }
            2 if self.fsync_done_for(B) => {
                self.phase = 3;
                self.write(self.fa, A, 0, PAGE);
                self.fsync(self.fa, A);
            }
            _ => {}
        }
    }

    /// Complete one pending I/O in FIFO order; false when drained.
    fn complete_one(&mut self) -> bool {
        let Some(io) = self.pending.pop_front() else {
            return false;
        };
        self.now += SimDuration::from_micros(100);
        if io.dir == IoDir::Write {
            self.image.complete(io.token.0);
        }
        let out = self.fs.io_completed(io.token, &mut self.cache, self.now);
        self.absorb(out);
        true
    }

    /// Run the workload, completing at most `stop_after` I/Os (None =
    /// drain everything). Returns the number of completions performed.
    fn run(&mut self, stop_after: Option<usize>) -> usize {
        let mut done = 0;
        loop {
            self.advance_workload();
            if Some(done) == stop_after {
                return done;
            }
            if !self.complete_one() {
                return done;
            }
            done += 1;
        }
    }

    fn crash_and_check(&mut self, torn_prefix: Option<u64>) -> Vec<ConsistencyViolation> {
        self.image.crash(torn_prefix);
        self.image.check(&self.acked)
    }
}

/// The crash-point count of a reference (uninterrupted) run.
fn reference_completions(flavour: Flavour) -> usize {
    let mut h = CrashHarness::new(flavour);
    let n = h.run(None);
    assert!(h.phase == 3, "workload must finish all three transactions");
    assert!(h.acked.len() >= 3, "three commits acked, got {:?}", h.acked);
    n
}

fn sweep(flavour: Flavour, torn_prefix: Option<u64>) {
    let total = reference_completions(flavour);
    assert!(
        total >= 10,
        "sweep needs protocol steps to cut, got {total}"
    );
    let mut saw_empty_recovery = false;
    let mut saw_full_recovery = false;
    for k in 0..=total {
        let mut h = CrashHarness::new(flavour);
        h.run(Some(k));
        let recovered = {
            h.image.crash(torn_prefix);
            h.image.recover().recovered.len()
        };
        saw_empty_recovery |= recovered == 0;
        saw_full_recovery |= recovered >= 3;
        let violations = h.image.check(&h.acked);
        assert!(
            violations.is_empty(),
            "crash after {k}/{total} completions (torn={torn_prefix:?}) broke \
             ordered-mode guarantees: {violations:?}"
        );
    }
    assert!(
        saw_empty_recovery,
        "early crash points must recover nothing"
    );
    assert!(
        saw_full_recovery,
        "the final crash point must recover every transaction"
    );
}

#[test]
fn ext4_survives_power_cut_at_every_protocol_step() {
    sweep(Flavour::Ext4, None);
}

#[test]
fn ext4_survives_torn_in_flight_writes_at_every_step() {
    // Tear every in-flight write down to one durable block: multi-block
    // log bodies become torn (must not replay), while the single-block
    // commit record stays atomic, exactly as on real media.
    sweep(Flavour::Ext4, Some(1));
}

#[test]
fn xfs_survives_power_cut_at_every_protocol_step() {
    sweep(Flavour::Xfs, None);
}

#[test]
fn acked_transactions_survive_an_immediate_crash() {
    let mut h = CrashHarness::new(Flavour::Ext4);
    h.run(None);
    let acked = h.acked.clone();
    assert!(!acked.is_empty());
    let violations = h.crash_and_check(None);
    assert!(violations.is_empty(), "{violations:?}");
    let recovery = h.image.recover();
    for txn in acked {
        assert!(recovery.contains(txn), "acked {txn:?} must replay");
    }
}
