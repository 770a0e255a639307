//! The crash-protocol driver: a miniature kernel with a shadow disk that
//! runs a fixed three-transaction workload through the ordered-mode
//! journal, so a caller can cut power after any completed write.
//!
//! Every write the file system submits is mirrored into a [`DiskImage`];
//! cutting power (`image.crash`) marks in-flight writes lost or torn,
//! replay recovers committed transactions in order, and `image.check`
//! enforces the paper's ordered-mode guarantees against the transactions
//! the stack acknowledged. The crash-consistency tests and the
//! `runner --faults` sweep both drive this one harness.

use std::collections::VecDeque;

use sim_cache::{CacheConfig, PageCache};
use sim_core::{CauseSet, FileId, Pid, SimDuration, SimTime, TxnId, PAGE_SIZE};
use sim_device::IoDir;
use sim_fault::DiskImage;

use crate::{FsEvent, FsOutput, IoReq, JournaledFs};

const JPID: Pid = Pid(1000);
const WBPID: Pid = Pid(1001);
const A: Pid = Pid(1);
const B: Pid = Pid(2);

/// Completes the file system's I/O in FIFO order while recording every
/// write's durable state in a shadow image.
pub struct CrashHarness {
    fs: JournaledFs,
    cache: PageCache,
    pending: VecDeque<IoReq>,
    events: Vec<FsEvent>,
    /// The shadow disk: every submitted write and whether it landed.
    pub image: DiskImage,
    /// Transactions whose `TxnCommitted` the stack reported (durability
    /// promises made before the crash).
    pub acked: Vec<TxnId>,
    now: SimTime,
    fa: FileId,
    fb: FileId,
    phase: u8,
}

impl CrashHarness {
    /// The workload on ext4 (tagged physical journal).
    pub fn ext4() -> Self {
        Self::on(JournaledFs::new_ext4(1 << 27, JPID, WBPID))
    }

    /// The workload on XFS (untagged logical journal).
    pub fn xfs() -> Self {
        Self::on(JournaledFs::new_xfs(1 << 27, JPID, WBPID))
    }

    fn on(fs: JournaledFs) -> Self {
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
        for p in offset / PAGE_SIZE..=(offset + len - 1) / PAGE_SIZE {
            self.cache.dirty_page(file, p, &causes, self.now);
        }
        self.fs.note_write(file, &causes, offset, len, self.now);
    }

    fn fsync(&mut self, file: FileId, pid: Pid) {
        let out = self.fs.fsync(file, pid, &mut self.cache, self.now);
        self.absorb(out);
    }

    fn fsync_done_for(&self, pid: Pid) -> bool {
        self.events.iter().any(
            |e| matches!(e, FsEvent::FsyncDone { waiter, result: Ok(()), .. } if *waiter == pid),
        )
    }

    /// Issue the next workload step once its precondition holds. Three
    /// transactions, entangled the way Figure 4 describes: txn 1 carries
    /// A's metadata plus B's ordered data, then B and A sync again.
    fn advance_workload(&mut self) {
        match self.phase {
            0 => {
                self.phase = 1;
                self.write(self.fa, A, 0, 2 * PAGE_SIZE);
                self.write(self.fb, B, 0, 8 * PAGE_SIZE);
                self.fsync(self.fa, A);
            }
            1 if self.fsync_done_for(A) => {
                self.phase = 2;
                self.write(self.fb, B, 8 * PAGE_SIZE, 4 * PAGE_SIZE);
                self.fsync(self.fb, B);
            }
            2 if self.fsync_done_for(B) => {
                self.phase = 3;
                self.write(self.fa, A, 0, PAGE_SIZE);
                self.fsync(self.fa, A);
            }
            _ => {}
        }
    }

    /// Whether all three transactions' fsyncs were issued.
    pub fn workload_issued(&self) -> bool {
        self.phase == 3
    }

    /// Run the workload, completing at most `stop_after` I/Os (`None` =
    /// drain everything). Returns the number of completions performed.
    pub fn run(&mut self, stop_after: Option<usize>) -> usize {
        let mut done = 0;
        loop {
            self.advance_workload();
            if Some(done) == stop_after {
                return done;
            }
            let Some(io) = self.pending.pop_front() else {
                return done;
            };
            self.now += SimDuration::from_micros(100);
            if io.dir == IoDir::Write {
                self.image.complete(io.token.0);
            }
            let out = self.fs.io_done(io.token, None, &mut self.cache, self.now);
            self.absorb(out);
            done += 1;
        }
    }
}
