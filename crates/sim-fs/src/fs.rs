//! `JournaledFs` — the concrete file system: inodes + extents, delayed
//! allocation, ordered-mode journaling, writeback, fsync.
//!
//! Two presets:
//!
//! * ext4 ([`JournaledFs::new_ext4`]) — physical journal, journal and
//!   writeback tasks fully proxy tagged ("full integration", §6 part
//!   a+b).
//! * XFS ([`JournaledFs::new_xfs`]) — logical journal (smaller log
//!   writes) written by a log task that is **not** tagged ("partial
//!   integration", part a only): data
//!   I/O carries buffer tags, but journal and checkpoint I/O carries no
//!   causes — so metadata-heavy workloads escape split schedulers, exactly
//!   the Figure 17 result.

use sim_block::ReqKind;
use sim_cache::PageCache;
use sim_core::{
    BlockNo, CauseSet, FastMap, FastSet, FileId, IdAlloc, IoError, IoErrorKind, Pid, SimDuration,
    SimRng, SimTime, TxnId,
};
use sim_device::IoDir;
use sim_fault::WriteStep;
use split_core::ProxyRegistry;

use crate::alloc::{Allocator, Extent, ExtentMap};
use crate::journal::{CommitTxn, Journal, JournalConfig, MetaKey};
use crate::{FsEvent, FsOutput, IoReq, IoToken};

/// File-system configuration.
#[derive(Debug, Clone, Copy)]
pub struct FsConfig {
    /// Whether journal/checkpoint I/O carries cause tags (full
    /// integration). Data I/O is always tagged (buffer heads are generic).
    pub tag_journal: bool,
    /// Log blocks per metadata block (1.0 physical, <1 logical).
    pub blocks_per_meta: f64,
    /// Periodic commit interval.
    pub commit_interval: SimDuration,
    /// Device size in blocks.
    pub device_blocks: u64,
    /// Per-file allocator reservation, in blocks.
    pub reservation_blocks: u64,
    /// Extent size used when preallocating fragmented files.
    pub scatter_chunk: u64,
    /// RNG seed (layout decisions).
    pub seed: u64,
}

impl FsConfig {
    /// ext4-like defaults for a device of `device_blocks`.
    pub fn ext4(device_blocks: u64) -> Self {
        FsConfig {
            tag_journal: true,
            blocks_per_meta: 1.0,
            commit_interval: SimDuration::from_secs(5),
            device_blocks,
            reservation_blocks: 2048, // 8 MB
            scatter_chunk: 64,
            seed: 0x5eed,
        }
    }

    /// XFS-like defaults (partial split integration).
    pub fn xfs(device_blocks: u64) -> Self {
        FsConfig {
            tag_journal: false,
            blocks_per_meta: 0.25,
            ..Self::ext4(device_blocks)
        }
    }
}

#[derive(Debug, Default)]
struct Inode {
    size: u64,
    extents: ExtentMap,
}

/// The flush a data token belongs to: `file`'s pages, on behalf of
/// writeback pass `wb_pass` or, with none, of an fsync or the ordered
/// flush ahead of a commit.
#[derive(Debug, Clone, Copy)]
struct DataOwner {
    file: FileId,
    wb_pass: Option<u64>,
}

/// Who owns an outstanding I/O token.
#[derive(Debug, Clone)]
enum TokenOwner {
    /// File data (fsync flush, writeback, or ordered flush).
    Data(DataOwner),
    /// The journal log body of the in-flight commit.
    JournalLog,
    /// The commit record of the in-flight commit.
    CommitRecord,
    /// Checkpoint (in-place metadata) writes; fire-and-forget.
    Checkpoint,
}

#[derive(Debug)]
struct FsyncState {
    waiter: Pid,
    pending_data: FastSet<IoToken>,
    wait_txn: Option<TxnId>,
}

/// Which fsyncs [`JournaledFs::finish_fsyncs`] ends, and with what result.
#[derive(Clone, Copy)]
enum FsyncEnd {
    /// Those whose data is flushed and whose transaction is durable succeed.
    Durable,
    /// Those waiting on a failed data write fail with its error.
    WaitingOn(IoToken, IoError),
    /// All fail: the journal aborted.
    All(IoError),
}

#[derive(Debug, PartialEq)]
enum CommitPhase {
    FlushingData,
    WritingLog,
    WritingCommitRecord,
}

#[derive(Debug)]
struct Commit {
    txn: CommitTxn,
    phase: CommitPhase,
    pending: FastSet<IoToken>,
}

#[derive(Debug)]
struct WbPass {
    pending: FastSet<IoToken>,
    pages: u64,
}

/// The journaling file system.
pub struct JournaledFs {
    cfg: FsConfig,
    inodes: FastMap<FileId, Inode>,
    file_ids: IdAlloc,
    allocator: Allocator,
    journal: Journal,
    commit: Option<Commit>,
    /// Data tokens in flight per file — a commit must wait for these for
    /// its ordered files (data-before-metadata).
    inflight_data: FastMap<FileId, FastSet<IoToken>>,
    tokens: IdAlloc,
    owners: FastMap<IoToken, TokenOwner>,
    fsyncs: FastMap<u64, FsyncState>,
    fsync_ids: IdAlloc,
    wb_passes: FastMap<u64, WbPass>,
    wb_ids: IdAlloc,
    proxies: ProxyRegistry,
    journal_pid: Pid,
    writeback_pid: Pid,
    meta_zone_rng: SimRng,
    /// Set when a journal write failed; the file system then refuses to
    /// start commits and fails every fsync, as ext4 does after a jbd2
    /// abort. `None` on the (infallible) happy path.
    aborted: Option<IoError>,
    /// Reusable extent buffer for the flush hot loop.
    extent_scratch: Vec<Extent>,
    /// The last output handed back, emptied: the next call's buffers.
    spare: FsOutput,
}

impl JournaledFs {
    /// Build a file system. `journal_pid`/`writeback_pid` are the kernel
    /// task ids for the journal and writeback daemons.
    pub fn new(cfg: FsConfig, journal_pid: Pid, writeback_pid: Pid) -> Self {
        // Log area in the middle of the device, data from the front.
        let log_blocks = 32 * 1024;
        let log_start = cfg.device_blocks / 2;
        let journal = Journal::new(JournalConfig {
            commit_interval: cfg.commit_interval,
            area_start: BlockNo(log_start),
            area_blocks: log_blocks,
            blocks_per_meta: cfg.blocks_per_meta,
            max_txn_meta: 8192,
        });
        JournaledFs {
            allocator: Allocator::new(256, log_start, cfg.reservation_blocks, cfg.seed),
            journal,
            cfg,
            inodes: FastMap::default(),
            file_ids: IdAlloc::new(),
            commit: None,
            inflight_data: FastMap::default(),
            tokens: IdAlloc::new(),
            owners: FastMap::default(),
            fsyncs: FastMap::default(),
            fsync_ids: IdAlloc::new(),
            wb_passes: FastMap::default(),
            wb_ids: IdAlloc::new(),
            proxies: ProxyRegistry::new(),
            journal_pid,
            writeback_pid,
            meta_zone_rng: SimRng::seed_from_u64(cfg.seed ^ 0x6d65_7461),
            aborted: None,
            extent_scratch: Vec::new(),
            spare: FsOutput::default(),
        }
    }

    /// Take back an absorbed output, so the next call fills its buffers
    /// instead of allocating new ones.
    pub fn recycle(&mut self, mut out: FsOutput) {
        out.ios.clear();
        out.events.clear();
        self.spare = out;
    }

    /// ext4 with full split integration.
    pub fn new_ext4(device_blocks: u64, journal_pid: Pid, writeback_pid: Pid) -> Self {
        Self::new(FsConfig::ext4(device_blocks), journal_pid, writeback_pid)
    }

    /// XFS with partial split integration.
    pub fn new_xfs(device_blocks: u64, journal_pid: Pid, writeback_pid: Pid) -> Self {
        Self::new(FsConfig::xfs(device_blocks), journal_pid, writeback_pid)
    }

    fn token(&mut self, owner: TokenOwner) -> IoToken {
        let t = IoToken(self.tokens.next());
        self.owners.insert(t, owner);
        t
    }

    /// Flush `owner.file`'s dirty pages: allocate (delayed allocation
    /// happens here) and emit data I/O owned by `owner`. Returns the
    /// tokens created.
    fn flush_file_data(
        &mut self,
        owner: DataOwner,
        max_pages: u64,
        submitter: Pid,
        cache: &mut PageCache,
        now: SimTime,
        out: &mut FsOutput,
    ) -> Vec<IoToken> {
        let file = owner.file;
        // Someone waits on an fsync or ordered flush; writeback is async.
        let sync = owner.wb_pass.is_none();
        let ranges = cache.take_dirty_ranges(file, max_pages);
        out.events.push(FsEvent::DataFlushed {
            file,
            pages: ranges.iter().map(|r| r.len).sum(),
        });
        let mut tokens = Vec::new();
        // Reused across ranges (and calls) so the flush loop stays off the
        // allocator; taken out of `self` to free the borrow.
        let mut extents = std::mem::take(&mut self.extent_scratch);
        self.inodes.entry(file).or_default();
        for range in ranges {
            // Delayed allocation: give the range's holes blocks now.
            // Allocation dirties shared metadata (bitmap + inode), joining
            // the running transaction on behalf of the range's causes.
            let holes: Vec<(u64, u64)> = self.inodes[&file]
                .extents
                .holes(range.start_page, range.len)
                .collect();
            if !holes.is_empty() {
                let inode = self.inodes.get_mut(&file).expect("inode exists");
                for (mut page, run) in holes {
                    for (start, len) in self.allocator.alloc(file, run) {
                        inode.extents.insert(page, start, len);
                        page += len;
                    }
                }
                self.journal.join(MetaKey::Inode(file), &range.causes, now);
                self.journal.join(
                    MetaKey::Bitmap((file.raw() % 16) as u32),
                    &range.causes,
                    now,
                );
            }
            // Emit one I/O per physical extent backing the range, capped
            // at 256 blocks (1 MB) per request as Linux caps bio sizes —
            // also what keeps admission control fine-grained.
            const MAX_REQ_BLOCKS: u64 = 256;
            self.inodes[&file]
                .extents
                .extents_for_into(range.start_page, range.len, &mut extents);
            for e in &extents {
                let mut off = 0;
                while off < e.len {
                    let chunk = (e.len - off).min(MAX_REQ_BLOCKS);
                    let tok = self.token(TokenOwner::Data(owner));
                    self.inflight_data.entry(file).or_default().insert(tok);
                    tokens.push(tok);
                    out.ios.push(IoReq {
                        token: tok,
                        dir: IoDir::Write,
                        start: sim_core::BlockNo(e.start.raw() + off),
                        nblocks: chunk,
                        submitter,
                        causes: range.causes.clone(),
                        sync,
                        file: Some(file),
                        kind: ReqKind::Data,
                        step: WriteStep::Data { file },
                    });
                    off += chunk;
                }
            }
        }
        self.extent_scratch = extents;
        tokens
    }

    /// Start a commit if one is wanted and none is in flight.
    fn maybe_start_commit(&mut self, cache: &mut PageCache, now: SimTime, out: &mut FsOutput) {
        if self.aborted.is_some() || self.commit.is_some() || !self.journal.wants_commit(now) {
            return;
        }
        let txn = self.journal.seal();
        // The journal task acts as a proxy for everyone in the txn.
        self.proxies.mark(self.journal_pid, &txn.causes);
        // The commit belongs to the journal task but carries the
        // entangled causes — that is the Figure 4/5 story in one event.
        out.events.push(FsEvent::CommitStarted {
            txn: txn.id,
            task: self.journal_pid,
            causes: txn.causes.clone(),
        });
        let mut pending: FastSet<IoToken> = FastSet::default();
        // Ordered mode: flush dirty data of every file in the transaction,
        // and also wait for that data's already-in-flight writes.
        for file in &txn.ordered {
            if let Some(inflight) = self.inflight_data.get(file) {
                pending.extend(inflight.iter().copied());
            }
        }
        for &file in &txn.ordered {
            let owner = DataOwner {
                file,
                wb_pass: None,
            };
            let toks = self.flush_file_data(owner, u64::MAX, self.journal_pid, cache, now, out);
            pending.extend(toks);
        }
        let flushed = pending.is_empty();
        self.commit = Some(Commit {
            txn,
            phase: CommitPhase::FlushingData,
            pending,
        });
        if flushed {
            self.write_log(out);
        }
    }

    /// Phase 2: write the log body.
    fn write_log(&mut self, out: &mut FsOutput) {
        // Tolerate a vanished commit (journal abort races a completion).
        let Some(commit) = self.commit.as_mut() else {
            return;
        };
        commit.phase = CommitPhase::WritingLog;
        let txn = commit.txn.id;
        let ordered = commit.txn.ordered.clone();
        let meta_blocks = commit.txn.meta_blocks;
        let nblocks = self.journal.log_blocks_for(meta_blocks);
        let start = self.journal.reserve_log(nblocks);
        let causes = if self.cfg.tag_journal {
            self.proxies.resolve(self.journal_pid)
        } else {
            CauseSet::empty()
        };
        let tok = self.token(TokenOwner::JournalLog);
        self.commit
            .as_mut()
            .expect("checked above")
            .pending
            .insert(tok);
        out.ios.push(IoReq {
            token: tok,
            dir: IoDir::Write,
            start,
            nblocks,
            submitter: self.journal_pid,
            causes,
            sync: true,
            file: None,
            kind: ReqKind::Journal,
            step: WriteStep::JournalLog { txn, ordered },
        });
    }

    /// Phase 3: the commit record (ordered after the log body).
    fn write_commit_record(&mut self, out: &mut FsOutput) {
        let nblocks = 1;
        let start = self.journal.reserve_log(nblocks);
        let causes = if self.cfg.tag_journal {
            self.proxies.resolve(self.journal_pid)
        } else {
            CauseSet::empty()
        };
        let tok = self.token(TokenOwner::CommitRecord);
        let Some(commit) = self.commit.as_mut() else {
            return;
        };
        commit.phase = CommitPhase::WritingCommitRecord;
        commit.pending.insert(tok);
        let txn = commit.txn.id;
        out.ios.push(IoReq {
            token: tok,
            dir: IoDir::Write,
            start,
            nblocks,
            submitter: self.journal_pid,
            causes,
            sync: true,
            file: None,
            kind: ReqKind::Journal,
            step: WriteStep::CommitRecord { txn },
        });
    }

    /// The commit record hit the platter: the transaction is durable.
    fn finish_commit(&mut self, cache: &mut PageCache, now: SimTime, out: &mut FsOutput) {
        let commit = self.commit.take().expect("commit in flight");
        self.journal.mark_committed(commit.txn.id);
        self.proxies.clear(self.journal_pid);
        out.events
            .push(FsEvent::TxnCommitted { txn: commit.txn.id });
        // Checkpoint: write the metadata in place, lazily (async). One
        // scattered write per transaction, sized by its metadata.
        if commit.txn.meta_blocks > 0 {
            let zone = (self.cfg.device_blocks / 20).max(1);
            let start = BlockNo(self.meta_zone_rng.gen_range(zone));
            let causes = if self.cfg.tag_journal {
                commit.txn.causes.clone()
            } else {
                CauseSet::empty()
            };
            let tok = self.token(TokenOwner::Checkpoint);
            out.ios.push(IoReq {
                token: tok,
                dir: IoDir::Write,
                start,
                nblocks: commit.txn.meta_blocks,
                submitter: self.journal_pid,
                causes,
                sync: false,
                file: None,
                kind: ReqKind::Metadata,
                step: WriteStep::Checkpoint { txn: commit.txn.id },
            });
        }
        // Wake fsyncs that were waiting on this transaction.
        self.finish_fsyncs(FsyncEnd::Durable, out);
        // Chain the next commit if someone already asked for it.
        self.maybe_start_commit(cache, now, out);
    }

    /// If the journal has aborted, the reason.
    pub fn journal_aborted(&self) -> Option<IoError> {
        self.aborted
    }

    /// A journal write (log body or commit record) failed: abort. The
    /// in-flight commit is dropped, every outstanding fsync fails, and
    /// [`JournaledFs::maybe_start_commit`] refuses new commits from here
    /// on — modeled on jbd2's abort semantics.
    fn abort_journal(&mut self, cause: IoError, out: &mut FsOutput) {
        if self.aborted.is_some() {
            return;
        }
        let error = IoError {
            kind: IoErrorKind::JournalAborted,
            req: cause.req,
        };
        self.aborted = Some(error);
        if let Some(commit) = self.commit.take() {
            out.events
                .push(FsEvent::JournalAborted { txn: commit.txn.id });
        }
        self.proxies.clear(self.journal_pid);
        self.finish_fsyncs(FsyncEnd::All(error), out);
    }

    /// Remove every fsync `end` picks, in id order, firing `FsyncDone`
    /// with `end`'s result.
    fn finish_fsyncs(&mut self, end: FsyncEnd, out: &mut FsOutput) {
        let result = match end {
            FsyncEnd::Durable => Ok(()),
            FsyncEnd::WaitingOn(_, error) | FsyncEnd::All(error) => Err(error),
        };
        let mut ids: Vec<u64> = self
            .fsyncs
            .iter()
            .filter(|(_, st)| match end {
                FsyncEnd::Durable => {
                    st.pending_data.is_empty()
                        && st.wait_txn.is_none_or(|t| self.journal.is_committed(t))
                }
                FsyncEnd::WaitingOn(token, _) => st.pending_data.contains(&token),
                FsyncEnd::All(_) => true,
            })
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let st = self.fsyncs.remove(&id).expect("present");
            out.events.push(FsEvent::FsyncDone {
                waiter: st.waiter,
                fsync: id,
                result,
            });
        }
    }

    /// Create a file (the `creat` syscall): allocates an inode and joins
    /// the running transaction with the (shared) directory block.
    pub fn create_file(&mut self, pid: Pid, now: SimTime) -> (FileId, FsOutput) {
        let id = FileId(self.file_ids.next());
        self.inodes.insert(id, Inode::default());
        let causes = CauseSet::of(pid);
        // A creat dirties the shared directory block and the new inode.
        self.journal.join(MetaKey::DirBlock(0), &causes, now);
        self.journal.join(MetaKey::Inode(id), &causes, now);
        (id, FsOutput::default())
    }

    /// Create a directory (the `mkdir` syscall).
    pub fn mkdir(&mut self, pid: Pid, now: SimTime) -> FsOutput {
        let causes = CauseSet::of(pid);
        self.journal.join(MetaKey::DirBlock(0), &causes, now);
        let id = FileId(self.file_ids.next());
        self.journal.join(MetaKey::Inode(id), &causes, now);
        FsOutput::default()
    }

    /// Remove a file: drops its pages and joins the transaction.
    pub fn unlink(
        &mut self,
        file: FileId,
        pid: Pid,
        cache: &mut PageCache,
        now: SimTime,
    ) -> FsOutput {
        let mut out = std::mem::take(&mut self.spare);
        let causes = CauseSet::of(pid);
        self.journal.join(MetaKey::DirBlock(0), &causes, now);
        self.journal.join(MetaKey::Inode(file), &causes, now);
        out.events.push(FsEvent::Unlinked {
            file,
            dirty: cache.free_file(file),
        });
        self.inodes.remove(&file);
        out
    }

    /// Set up a file with `bytes` of existing, allocated content — test
    /// and experiment fixture; generates no journal activity.
    /// `contiguous` controls layout (false = aged/fragmented).
    pub fn prealloc_file(&mut self, bytes: u64, contiguous: bool) -> FileId {
        let id = FileId(self.file_ids.next());
        let npages = sim_core::pages_for_bytes(bytes);
        let extents = if contiguous {
            ExtentMap::from_runs([(self.allocator.alloc_contiguous(npages), npages)])
        } else {
            ExtentMap::from_runs(
                self.allocator
                    .alloc_scattered(npages, self.cfg.scatter_chunk),
            )
        };
        self.inodes.insert(
            id,
            Inode {
                size: bytes,
                extents,
            },
        );
        id
    }

    /// Note a buffered write (the data pages are dirtied by the kernel in
    /// the page cache; this records the metadata consequences: inode
    /// update joins the running transaction, file becomes "ordered").
    pub fn note_write(
        &mut self,
        file: FileId,
        causes: &CauseSet,
        offset: u64,
        len: u64,
        now: SimTime,
    ) {
        let inode = self.inodes.entry(file).or_default();
        inode.size = inode.size.max(offset + len);
        // Every write updates the inode (size/mtime) — this is what drags
        // unrelated files into the same transaction (Figure 4/5).
        self.journal.join(MetaKey::Inode(file), causes, now);
        self.journal.mark_ordered(file);
    }

    /// Begin an `fsync` by `pid`: flush the file's dirty data and force
    /// the transaction holding its metadata. `FsEvent::FsyncDone` fires
    /// when everything is durable (possibly immediately).
    pub fn fsync(
        &mut self,
        file: FileId,
        pid: Pid,
        cache: &mut PageCache,
        now: SimTime,
    ) -> FsOutput {
        let mut out = std::mem::take(&mut self.spare);
        let id = self.fsync_ids.next();
        // After a journal abort no durability can be promised; fail fast,
        // as ext4 does once jbd2 is aborted.
        if let Some(error) = self.aborted {
            out.events.push(FsEvent::FsyncDone {
                waiter: pid,
                fsync: id,
                result: Err(error),
            });
            return out;
        }
        // fsync must wait for data writes already in flight (e.g. an
        // earlier writeback pass) as well as the ones it issues itself.
        let mut pending: FastSet<IoToken> = self
            .inflight_data
            .get(&file)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let tokens = self.flush_file_data(
            DataOwner {
                file,
                wb_pass: None,
            },
            u64::MAX,
            pid,
            cache,
            now,
            &mut out,
        );
        pending.extend(tokens);
        // Which transaction must commit before this fsync returns?
        let wait_txn = self.journal.txn_of(file).or_else(|| match &self.commit {
            Some(c) if c.txn.ordered.contains(&file) || c.txn.causes.contains(pid) => {
                Some(c.txn.id)
            }
            _ => None,
        });
        if wait_txn == Some(self.journal.running_id()) {
            self.journal.request_commit();
        }
        out.events.push(FsEvent::FsyncStarted {
            fsync: id,
            pid,
            data: !pending.is_empty(),
            txn: wait_txn,
        });
        self.fsyncs.insert(
            id,
            FsyncState {
                waiter: pid,
                pending_data: pending,
                wait_txn,
            },
        );
        self.maybe_start_commit(cache, now, &mut out);
        self.finish_fsyncs(FsyncEnd::Durable, &mut out);
        out
    }

    /// Write back dirty data: of `file`, or of the oldest files if `None`.
    /// Runs in `proxy` context (the writeback task). Asynchronous: creates
    /// no synchronization point.
    pub fn writeback(
        &mut self,
        file: Option<FileId>,
        max_pages: u64,
        proxy: Pid,
        cache: &mut PageCache,
        now: SimTime,
    ) -> FsOutput {
        let mut out = std::mem::take(&mut self.spare);
        let pass = self.wb_ids.next();
        let files: Vec<FileId> = match file {
            Some(f) => vec![f],
            None => cache.dirty_files_oldest_first(),
        };
        let mut budget = max_pages;
        let mut tokens = Vec::new();
        let mut pages = 0;
        for f in files {
            if budget == 0 {
                break;
            }
            let before = cache.dirty_pages_of(f);
            if before == 0 {
                continue;
            }
            // Mark the writeback task as a proxy for the pages' causes —
            // resolved inside flush via the range tags; the registry entry
            // demonstrates delegation for assertions/overhead accounting.
            let take = before.min(budget);
            let toks = self.flush_file_data(
                DataOwner {
                    file: f,
                    wb_pass: Some(pass),
                },
                take,
                proxy,
                cache,
                now,
                &mut out,
            );
            let taken = before - cache.dirty_pages_of(f);
            pages += taken;
            budget = budget.saturating_sub(taken);
            tokens.extend(toks);
        }
        for io in &out.ios {
            self.proxies.mark(proxy, &io.causes);
        }
        if tokens.is_empty() {
            self.proxies.clear(proxy);
            out.events.push(FsEvent::WritebackDone { pass, pages: 0 });
        } else {
            // The pass carries the flushed pages' causes (the proxy
            // registry already resolved them) — delegation made visible.
            out.events.push(FsEvent::WritebackStarted {
                pass,
                task: proxy,
                causes: self.proxies.resolve(proxy),
                pages,
            });
            self.wb_passes.insert(
                pass,
                WbPass {
                    pending: tokens.into_iter().collect(),
                    pages,
                },
            );
        }
        out
    }

    /// A previously submitted [`IoReq`] finished at the device, or failed
    /// there with `error`. A failed data write fails every fsync waiting
    /// on it — fsync(2) returning EIO — but still drains its writeback
    /// pass and ordered flush: the pages are no longer dirty (their
    /// content is simply lost), and ordered mode reports data errors
    /// through fsync, not by corrupting the journal. A failed journal
    /// write aborts the journal ([`FsEvent::JournalAborted`]). Never
    /// panics — this is also the error-propagation path.
    pub fn io_done(
        &mut self,
        token: IoToken,
        error: Option<IoError>,
        cache: &mut PageCache,
        now: SimTime,
    ) -> FsOutput {
        let mut out = std::mem::take(&mut self.spare);
        let Some(owner) = self.owners.remove(&token) else {
            return out;
        };
        match (owner, error) {
            (TokenOwner::Data(DataOwner { file, wb_pass }), error) => {
                if let Some(set) = self.inflight_data.get_mut(&file) {
                    set.remove(&token);
                    if set.is_empty() {
                        self.inflight_data.remove(&file);
                    }
                }
                // Any fsync may be waiting on this token (its own flush or
                // a pre-existing in-flight write of the same file).
                if let Some(error) = error {
                    self.finish_fsyncs(FsyncEnd::WaitingOn(token, error), &mut out);
                } else {
                    for (&fsync, st) in self.fsyncs.iter_mut() {
                        if st.pending_data.remove(&token) && st.pending_data.is_empty() {
                            out.events.push(FsEvent::FsyncDataDrained { fsync });
                        }
                    }
                }
                if let Some(pass) = wb_pass {
                    let done = if let Some(wb) = self.wb_passes.get_mut(&pass) {
                        wb.pending.remove(&token);
                        wb.pending.is_empty()
                    } else {
                        false
                    };
                    if done {
                        let wb = self.wb_passes.remove(&pass).expect("present");
                        self.proxies.clear(self.writeback_pid);
                        out.events.push(FsEvent::WritebackDone {
                            pass,
                            pages: wb.pages,
                        });
                    }
                }
                // A commit in FlushingData may be waiting on this token.
                if let Some(c) = self.commit.as_mut() {
                    if c.phase == CommitPhase::FlushingData {
                        c.pending.remove(&token);
                        if c.pending.is_empty() {
                            self.write_log(&mut out);
                        }
                    }
                }
                self.finish_fsyncs(FsyncEnd::Durable, &mut out);
            }
            (TokenOwner::JournalLog | TokenOwner::CommitRecord, Some(error)) => {
                self.abort_journal(error, &mut out);
            }
            (TokenOwner::JournalLog, None) => {
                if let Some(c) = self.commit.as_mut() {
                    c.pending.remove(&token);
                    if c.pending.is_empty() {
                        self.write_commit_record(&mut out);
                    }
                }
            }
            (TokenOwner::CommitRecord, None) => {
                let finished = self
                    .commit
                    .as_mut()
                    .map(|c| {
                        c.pending.remove(&token);
                        c.pending.is_empty()
                    })
                    .unwrap_or(false);
                if finished {
                    self.finish_commit(cache, now, &mut out);
                }
            }
            // Checkpoints are fire-and-forget: replay redoes them from the
            // durable log, so a lost checkpoint costs nothing.
            (TokenOwner::Checkpoint, _) => {}
        }
        out
    }

    /// Periodic tick (journal commit interval).
    pub fn timer(&mut self, cache: &mut PageCache, now: SimTime) -> FsOutput {
        let mut out = std::mem::take(&mut self.spare);
        self.maybe_start_commit(cache, now, &mut out);
        self.finish_fsyncs(FsyncEnd::Durable, &mut out);
        out
    }

    /// When the next periodic tick is due.
    pub fn next_timer(&self, now: SimTime) -> SimTime {
        now + self.journal.config().commit_interval.div(4)
    }

    /// Disk extents backing `[page, page+len)` of `file` for reads, into a
    /// caller-owned buffer (cleared first) so the kernel's read and write
    /// hot paths can reuse one allocation. Holes (never-written,
    /// never-allocated pages) are omitted — under delayed allocation a
    /// freshly written page is one, which is why the buffer-dirty hook's
    /// `block` (read from these extents) may be `None`.
    pub fn blocks_for_read_into(&self, file: FileId, page: u64, len: u64, out: &mut Vec<Extent>) {
        match self.inodes.get(&file) {
            Some(i) => i.extents.extents_for_into(page, len, out),
            None => out.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::CacheConfig;
    use std::collections::VecDeque;

    const JPID: Pid = Pid(1000);
    const WBPID: Pid = Pid(1001);

    /// A miniature "kernel": holds the fs + cache, completes submitted I/O
    /// in FIFO order on demand, and records everything.
    struct Harness {
        fs: JournaledFs,
        cache: PageCache,
        pending: VecDeque<IoReq>,
        completed: Vec<IoReq>,
        events: Vec<FsEvent>,
        now: SimTime,
    }

    /// Disk extents backing `[page, page+len)` of `file`.
    fn extents(fs: &JournaledFs, file: FileId, page: u64, len: u64) -> Vec<Extent> {
        let mut out = Vec::new();
        fs.blocks_for_read_into(file, page, len, &mut out);
        out
    }

    impl Harness {
        fn ext4() -> Self {
            Self::with_fs(JournaledFs::new_ext4(1 << 27, JPID, WBPID))
        }

        fn xfs() -> Self {
            Self::with_fs(JournaledFs::new_xfs(1 << 27, JPID, WBPID))
        }

        fn with_fs(fs: JournaledFs) -> Self {
            Harness {
                fs,
                cache: PageCache::new(CacheConfig::default()),
                pending: VecDeque::new(),
                completed: Vec::new(),
                events: Vec::new(),
                now: SimTime::ZERO,
            }
        }

        fn absorb(&mut self, out: FsOutput) {
            self.pending.extend(out.ios);
            self.events.extend(out.events);
        }

        fn write(&mut self, file: FileId, pid: Pid, offset: u64, len: u64) {
            let causes = CauseSet::of(pid);
            let first = offset / sim_core::PAGE_SIZE;
            let last = (offset + len - 1) / sim_core::PAGE_SIZE;
            for p in first..=last {
                self.cache.dirty_page(file, p, &causes, self.now);
            }
            self.fs.note_write(file, &causes, offset, len, self.now);
        }

        fn fsync(&mut self, file: FileId, pid: Pid) {
            let out = self.fs.fsync(file, pid, &mut self.cache, self.now);
            self.absorb(out);
        }

        /// Fail the next pending I/O with a transient device error.
        fn fail_next(&mut self) -> Option<IoReq> {
            let io = self.pending.pop_front()?;
            self.now += SimDuration::from_micros(100);
            let err = IoError::new(IoErrorKind::TransientDevice);
            let out = self
                .fs
                .io_done(io.token, Some(err), &mut self.cache, self.now);
            self.absorb(out);
            self.completed.push(io.clone());
            Some(io)
        }

        /// Complete one pending I/O (FIFO).
        fn complete_one(&mut self) -> Option<IoReq> {
            let io = self.pending.pop_front()?;
            self.now += SimDuration::from_micros(100);
            let out = self.fs.io_done(io.token, None, &mut self.cache, self.now);
            self.absorb(out);
            self.completed.push(io.clone());
            Some(io)
        }

        fn run_to_quiescence(&mut self) {
            while self.complete_one().is_some() {}
        }

        fn fsync_done_for(&self, pid: Pid) -> bool {
            self.events.iter().any(
                |e| matches!(e, FsEvent::FsyncDone { waiter, result: Ok(()), .. } if *waiter == pid),
            )
        }
    }

    #[test]
    fn fsync_runs_the_full_commit_protocol() {
        let mut h = Harness::ext4();
        let (f, out) = h.fs.create_file(Pid(1), h.now);
        h.absorb(out);
        h.write(f, Pid(1), 0, 4 * sim_core::PAGE_SIZE);
        h.fsync(f, Pid(1));
        assert!(!h.fsync_done_for(Pid(1)));
        h.run_to_quiescence();
        assert!(h.fsync_done_for(Pid(1)));
        // Protocol order: data writes, then journal log, then commit
        // record, then checkpoint.
        let kinds: Vec<ReqKind> = h.completed.iter().map(|io| io.kind).collect();
        let first_journal = kinds.iter().position(|k| *k == ReqKind::Journal).unwrap();
        assert!(kinds[..first_journal].iter().all(|k| *k == ReqKind::Data));
        let journal_count = kinds.iter().filter(|k| **k == ReqKind::Journal).count();
        assert_eq!(journal_count, 2, "log body + commit record");
        assert_eq!(*kinds.last().unwrap(), ReqKind::Metadata, "checkpoint last");
        assert!(h
            .events
            .iter()
            .any(|e| matches!(e, FsEvent::TxnCommitted { .. })));
    }

    #[test]
    fn fsync_with_nothing_dirty_completes_immediately() {
        let mut h = Harness::ext4();
        let f = h.fs.prealloc_file(1 << 20, true);
        h.fsync(f, Pid(1));
        assert!(h.fsync_done_for(Pid(1)));
        assert!(h.pending.is_empty());
    }

    #[test]
    fn journal_entanglement_flushes_other_files_data() {
        // Figure 4: A's fsync depends on B's data, because B's metadata is
        // in the same transaction.
        let mut h = Harness::ext4();
        let (fa, _) = h.fs.create_file(Pid(1), h.now);
        let (fb, _) = h.fs.create_file(Pid(2), h.now);
        h.write(fa, Pid(1), 0, sim_core::PAGE_SIZE); // A: one block
        h.write(fb, Pid(2), 0, 256 * sim_core::PAGE_SIZE); // B: 1 MB dirty
        h.fsync(fa, Pid(1));
        h.run_to_quiescence();
        // The commit must have flushed B's data before A's fsync returned.
        let b_data_bytes: u64 = h
            .completed
            .iter()
            .filter(|io| io.file == Some(fb) && io.kind == ReqKind::Data)
            .map(|io| io.nblocks * sim_core::PAGE_SIZE)
            .sum();
        assert_eq!(b_data_bytes, 256 * sim_core::PAGE_SIZE);
        assert!(h.fsync_done_for(Pid(1)));
        // And B's flushed data still carries B's causes (via buffer tags),
        // even though the journal task submitted it.
        let b_io = h
            .completed
            .iter()
            .find(|io| io.file == Some(fb) && io.kind == ReqKind::Data)
            .unwrap();
        assert_eq!(b_io.submitter, JPID, "journal task is the submitter");
        assert!(b_io.causes.contains(Pid(2)), "causes point at B");
        assert!(!b_io.causes.contains(JPID), "the proxy is not a cause");
    }

    #[test]
    fn commit_waits_for_ordered_data_already_in_flight() {
        // B's data is on its way to disk when A's fsync seals the
        // transaction B's allocation joined: the log must wait for it.
        let mut h = Harness::ext4();
        let (fb, out) = h.fs.create_file(Pid(2), h.now);
        h.absorb(out);
        h.write(fb, Pid(2), 0, 4 * sim_core::PAGE_SIZE);
        let out = h.fs.writeback(Some(fb), 1024, WBPID, &mut h.cache, h.now);
        h.absorb(out);
        assert!(h.pending.iter().all(|io| io.file == Some(fb)));
        let (fa, out) = h.fs.create_file(Pid(1), h.now);
        h.absorb(out);
        h.fsync(fa, Pid(1));
        let log_pending = |h: &Harness| {
            h.pending
                .iter()
                .any(|io| matches!(io.step, WriteStep::JournalLog { .. }))
        };
        assert!(
            !log_pending(&h),
            "log submitted over in-flight ordered data"
        );
        let b_write = h.complete_one().expect("B's writeback is pending");
        assert_eq!(b_write.file, Some(fb));
        assert!(log_pending(&h), "the log goes out once B's data landed");
    }

    #[test]
    fn ext4_tags_journal_io_but_xfs_does_not() {
        for (mk, tagged) in [
            (Harness::ext4 as fn() -> Harness, true),
            (Harness::xfs, false),
        ] {
            let mut h = mk();
            let (f, _) = h.fs.create_file(Pid(7), h.now);
            h.write(f, Pid(7), 0, sim_core::PAGE_SIZE);
            h.fsync(f, Pid(7));
            h.run_to_quiescence();
            let journal_ios: Vec<&IoReq> = h
                .completed
                .iter()
                .filter(|io| io.kind == ReqKind::Journal)
                .collect();
            assert!(!journal_ios.is_empty());
            for io in journal_ios {
                assert_eq!(
                    io.causes.contains(Pid(7)),
                    tagged,
                    "{}: journal tagging mismatch",
                    if tagged { "ext4" } else { "xfs" }
                );
            }
        }
    }

    #[test]
    fn writeback_performs_delayed_allocation_with_proxy_tags() {
        let mut h = Harness::ext4();
        let (f, _) = h.fs.create_file(Pid(3), h.now);
        h.write(f, Pid(3), 0, 64 * sim_core::PAGE_SIZE);
        // Under delayed allocation nothing is allocated yet.
        assert!(extents(&h.fs, f, 0, 1).is_empty());
        let out = h.fs.writeback(None, 1024, WBPID, &mut h.cache, h.now);
        h.absorb(out);
        assert_eq!(
            extents(&h.fs, f, 0, 64).iter().map(|e| e.len).sum::<u64>(),
            64,
            "allocated at writeback"
        );
        // Writeback I/O: submitted by the writeback task, caused by Pid 3.
        assert!(!h.pending.is_empty());
        for io in &h.pending {
            assert_eq!(io.submitter, WBPID);
            assert!(io.causes.contains(Pid(3)));
            assert!(!io.sync);
        }
        // The writeback task is a marked proxy while the pass is in flight.
        assert!(h.fs.proxies.is_proxy(WBPID));
        h.run_to_quiescence();
        assert!(!h.fs.proxies.is_proxy(WBPID));
        assert!(h
            .events
            .iter()
            .any(|e| matches!(e, FsEvent::WritebackDone { pages: 64, .. })));
    }

    #[test]
    fn appends_get_contiguous_blocks() {
        let mut h = Harness::ext4();
        let (f, _) = h.fs.create_file(Pid(1), h.now);
        h.write(f, Pid(1), 0, 4 * sim_core::PAGE_SIZE);
        let out = h.fs.writeback(Some(f), 1024, WBPID, &mut h.cache, h.now);
        h.absorb(out);
        h.run_to_quiescence();
        h.write(f, Pid(1), 4 * sim_core::PAGE_SIZE, 4 * sim_core::PAGE_SIZE);
        let out = h.fs.writeback(Some(f), 1024, WBPID, &mut h.cache, h.now);
        h.absorb(out);
        let block = |page| extents(&h.fs, f, page, 1)[0].start.raw();
        assert_eq!(block(4), block(0) + 4, "append continues the reservation");
    }

    #[test]
    fn shared_directory_block_merges_creat_causes() {
        let mut h = Harness::ext4();
        let (_, _) = h.fs.create_file(Pid(1), h.now);
        let (_, _) = h.fs.create_file(Pid(2), h.now);
        // Both creats joined the same running txn; force a commit through a
        // third party's fsync.
        let (f3, _) = h.fs.create_file(Pid(3), h.now);
        h.write(f3, Pid(3), 0, sim_core::PAGE_SIZE);
        h.fsync(f3, Pid(3));
        h.run_to_quiescence();
        let log = h
            .completed
            .iter()
            .find(|io| io.kind == ReqKind::Journal)
            .unwrap();
        assert!(log.causes.contains(Pid(1)));
        assert!(log.causes.contains(Pid(2)));
        assert!(log.causes.contains(Pid(3)));
    }

    #[test]
    fn unlink_frees_dirty_buffers() {
        let mut h = Harness::ext4();
        let (f, _) = h.fs.create_file(Pid(1), h.now);
        h.write(f, Pid(1), 0, 8 * sim_core::PAGE_SIZE);
        let out = h.fs.unlink(f, Pid(1), &mut h.cache, h.now);
        h.absorb(out);
        let freed_pages: u64 = h
            .events
            .iter()
            .filter_map(|e| match e {
                FsEvent::Unlinked { file, dirty } if *file == f => {
                    Some(dirty.iter().map(|r| r.len).sum::<u64>())
                }
                _ => None,
            })
            .sum();
        assert_eq!(freed_pages, 8);
        assert_eq!(h.cache.dirty_total(), 0);
    }

    #[test]
    fn prealloc_layouts() {
        let mut h = Harness::ext4();
        let contig = h.fs.prealloc_file(1 << 20, true);
        let frag = h.fs.prealloc_file(1 << 20, false);
        let ec = extents(&h.fs, contig, 0, 256);
        let ef = extents(&h.fs, frag, 0, 256);
        assert_eq!(ec.len(), 1, "contiguous file is one extent");
        assert!(
            ef.len() > 2,
            "aged file is fragmented: {} extents",
            ef.len()
        );
        assert_eq!(h.fs.inodes[&contig].size, 1 << 20);
    }

    #[test]
    fn back_to_back_fsyncs_chain_commits() {
        let mut h = Harness::ext4();
        let (f, _) = h.fs.create_file(Pid(1), h.now);
        // First fsync in flight…
        h.write(f, Pid(1), 0, sim_core::PAGE_SIZE);
        h.fsync(f, Pid(1));
        // …second write + fsync arrives before the first commit finishes.
        h.write(f, Pid(1), sim_core::PAGE_SIZE, sim_core::PAGE_SIZE);
        h.fsync(f, Pid(1));
        h.run_to_quiescence();
        let commits = h
            .events
            .iter()
            .filter(|e| matches!(e, FsEvent::TxnCommitted { .. }))
            .count();
        assert_eq!(commits, 2, "two transactions committed in order");
        let fsyncs = h
            .events
            .iter()
            .filter(|e| matches!(e, FsEvent::FsyncDone { result: Ok(()), .. }))
            .count();
        assert_eq!(fsyncs, 2);
    }

    #[test]
    fn failed_data_write_fails_the_fsync_but_not_the_journal() {
        let mut h = Harness::ext4();
        let (f, _) = h.fs.create_file(Pid(1), h.now);
        h.write(f, Pid(1), 0, 4 * sim_core::PAGE_SIZE);
        h.fsync(f, Pid(1));
        h.fail_next().expect("the data write");
        h.run_to_quiescence();
        assert!(!h.fsync_done_for(Pid(1)));
        assert!(h.events.iter().any(|e| matches!(
            e,
            FsEvent::FsyncDone { waiter, result: Err(error), .. }
                if *waiter == Pid(1) && error.kind == IoErrorKind::TransientDevice
        )));
        // Ordered mode: a data error surfaces via fsync, the journal
        // itself stays healthy and the commit still lands.
        assert!(h.fs.journal_aborted().is_none());
        assert!(h
            .events
            .iter()
            .any(|e| matches!(e, FsEvent::TxnCommitted { .. })));
    }

    #[test]
    fn failed_journal_write_aborts_and_fails_future_fsyncs() {
        let mut h = Harness::ext4();
        let (f, _) = h.fs.create_file(Pid(1), h.now);
        h.write(f, Pid(1), 0, sim_core::PAGE_SIZE);
        h.fsync(f, Pid(1));
        // Drain up to the journal log write, then fail it.
        while let Some(io) = h.pending.front() {
            if io.kind == ReqKind::Journal {
                break;
            }
            h.complete_one();
        }
        let failed = h.fail_next().expect("the journal log write");
        assert_eq!(failed.kind, ReqKind::Journal);
        h.run_to_quiescence();
        assert!(h
            .events
            .iter()
            .any(|e| matches!(e, FsEvent::JournalAborted { .. })));
        assert!(h.events.iter().any(|e| matches!(
            e,
            FsEvent::FsyncDone { waiter, result: Err(error), .. }
                if *waiter == Pid(1) && error.kind == IoErrorKind::JournalAborted
        )));
        assert!(h.fs.journal_aborted().is_some());
        assert!(!h.fsync_done_for(Pid(1)));
        // Once aborted, every later fsync fails immediately.
        h.write(f, Pid(2), 0, sim_core::PAGE_SIZE);
        h.fsync(f, Pid(2));
        assert!(h.events.iter().any(|e| matches!(
            e,
            FsEvent::FsyncDone { waiter, result: Err(_), .. } if *waiter == Pid(2)
        )));
    }

    #[test]
    fn io_reqs_carry_protocol_steps() {
        let mut h = Harness::ext4();
        let (f, _) = h.fs.create_file(Pid(1), h.now);
        h.write(f, Pid(1), 0, sim_core::PAGE_SIZE);
        h.fsync(f, Pid(1));
        h.run_to_quiescence();
        let steps: Vec<&WriteStep> = h.completed.iter().map(|io| &io.step).collect();
        assert!(matches!(steps[0], WriteStep::Data { file } if *file == f));
        assert!(matches!(&steps[1], WriteStep::JournalLog { ordered, .. } if ordered.contains(&f)));
        assert!(matches!(steps[2], WriteStep::CommitRecord { .. }));
        assert!(matches!(steps[3], WriteStep::Checkpoint { .. }));
    }

    #[test]
    fn timer_commits_stale_transactions() {
        let mut h = Harness::ext4();
        let (f, _) = h.fs.create_file(Pid(1), h.now);
        h.write(f, Pid(1), 0, sim_core::PAGE_SIZE);
        // No fsync; jump past the commit interval and tick.
        h.now = SimTime::ZERO + SimDuration::from_secs(6);
        let out = h.fs.timer(&mut h.cache, h.now);
        h.absorb(out);
        h.run_to_quiescence();
        assert!(h
            .events
            .iter()
            .any(|e| matches!(e, FsEvent::TxnCommitted { .. })));
    }
}
