#![warn(missing_docs)]
//! File systems for the simulator: a journaling, delayed-allocation file
//! system in the mold of ext4 (ordered mode), plus an XFS-like variant
//! with a logical journal written by an *untagged* log task — the
//! "partial integration" configuration of §6.
//!
//! The file system is a passive state machine: every entry point returns an
//! [`FsOutput`] describing block I/O to submit and events that became true
//! (an fsync finished, a transaction committed). The kernel routes the I/O
//! through the scheduler and calls [`FileSystem::io_completed`] as the
//! device finishes requests. This inversion keeps the file system free of
//! event-loop plumbing while still letting fsyncs span simulated time.
//!
//! The behaviours the paper's experiments rest on all live here:
//!
//! * **write delegation** — writeback and journal tasks submit I/O caused
//!   by other processes, with cause tags resolved through a
//!   [`split_core::ProxyRegistry`];
//! * **journal entanglement** — one running transaction; committing it
//!   flushes the *ordered data of every file that joined it* before the
//!   log and commit record go out (Figure 4);
//! * **delayed allocation** — dirty pages have no disk location until
//!   writeback or fsync forces allocation.

pub mod alloc;
mod fs;
pub mod journal;

use sim_block::ReqKind;
use sim_core::{BlockNo, CauseSet, FileId, IoError, Pid, SimTime, TxnId};
use sim_device::IoDir;

pub use alloc::{Allocator, Extent};
pub use fs::{Ext4, FsConfig, JournaledFs, Xfs};
pub use journal::{Journal, JournalConfig};
pub use sim_fault::WriteStep;

/// Correlation token for I/O the file system submits; handed back in
/// [`FileSystem::io_completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IoToken(pub u64);

/// A block I/O the file system wants submitted. The kernel turns this into
/// a `sim_block::Request` (assigning the request id) and runs it through
/// the scheduler hooks.
#[derive(Debug, Clone)]
pub struct IoReq {
    /// Correlation token; completions come back with it.
    pub token: IoToken,
    /// Direction.
    pub dir: IoDir,
    /// Start block.
    pub start: BlockNo,
    /// Length in blocks.
    pub nblocks: u64,
    /// Submitting task (caller, writeback task, or journal task).
    pub submitter: Pid,
    /// Resolved causes (through proxies). Empty when the file system does
    /// not tag this path (XFS partial integration).
    pub causes: CauseSet,
    /// Whether someone synchronously waits on it.
    pub sync: bool,
    /// Owning file, if meaningful.
    pub file: Option<FileId>,
    /// Data / journal / metadata.
    pub kind: ReqKind,
    /// Journal-protocol role of this write; lets the crash harness replay
    /// recovery without parsing on-disk state. `Untracked` for reads.
    pub step: WriteStep,
}

/// Something that became true during a file-system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsEvent {
    /// An `fsync` previously started by `waiter` on `file` is durable.
    FsyncDone {
        /// File synced.
        file: FileId,
        /// Process to wake.
        waiter: Pid,
    },
    /// A writeback pass finished (all its I/O completed).
    WritebackDone {
        /// Pages written.
        pages: u64,
    },
    /// A journal transaction became durable.
    TxnCommitted {
        /// The transaction.
        txn: TxnId,
    },
    /// An `fsync` previously started by `waiter` on `file` failed: some
    /// write it depended on was lost. Mirrors `fsync(2)` returning `EIO`.
    FsyncFailed {
        /// File whose sync failed.
        file: FileId,
        /// Process to wake (with an error).
        waiter: Pid,
        /// Why.
        error: IoError,
    },
    /// A journal write (log body or commit record) failed; the journal is
    /// aborted and every subsequent synchronizing operation fails, as
    /// after a jbd2 abort.
    JournalAborted {
        /// The transaction whose commit failed.
        txn: TxnId,
        /// The underlying device error.
        error: IoError,
    },
}

/// Result of a file-system entry point.
#[derive(Debug, Default)]
pub struct FsOutput {
    /// Block I/O to submit, in order.
    pub ios: Vec<IoReq>,
    /// Events that became true.
    pub events: Vec<FsEvent>,
    /// Dirty buffers dropped without writeback (unlink/truncate) — the
    /// kernel fires buffer-free hooks for these.
    pub freed: Vec<(FileId, sim_cache::PageRange)>,
}

impl FsOutput {
    /// Empty output.
    pub(crate) fn none() -> Self {
        Self::default()
    }
}

/// The interface the kernel drives.
pub trait FileSystem {
    /// File-system name ("ext4" / "xfs").
    fn name(&self) -> &'static str;

    /// Create a file (the `creat` syscall): allocates an inode and joins
    /// the running transaction with the (shared) directory block.
    fn create_file(&mut self, pid: Pid, now: SimTime) -> (FileId, FsOutput);

    /// Create a directory (the `mkdir` syscall).
    fn mkdir(&mut self, pid: Pid, now: SimTime) -> FsOutput;

    /// Remove a file: drops its pages and joins the transaction.
    fn unlink(
        &mut self,
        file: FileId,
        pid: Pid,
        cache: &mut sim_cache::PageCache,
        now: SimTime,
    ) -> FsOutput;

    /// Set up a file with `bytes` of existing, allocated content — test
    /// and experiment fixture; generates no journal activity.
    /// `contiguous` controls layout (false = aged/fragmented).
    fn prealloc_file(&mut self, bytes: u64, contiguous: bool) -> FileId;

    /// Note a buffered write (the data pages are dirtied by the kernel in
    /// the page cache; this records the metadata consequences: inode
    /// update joins the running transaction, file becomes "ordered").
    fn note_write(&mut self, file: FileId, causes: &CauseSet, offset: u64, len: u64, now: SimTime);

    /// Begin an `fsync` by `pid`: flush the file's dirty data and force
    /// the transaction holding its metadata. `FsEvent::FsyncDone` fires
    /// when everything is durable (possibly immediately).
    fn fsync(
        &mut self,
        file: FileId,
        pid: Pid,
        cache: &mut sim_cache::PageCache,
        now: SimTime,
    ) -> FsOutput;

    /// Write back dirty data: of `file`, or of the oldest files if `None`.
    /// Runs in `proxy` context (the writeback task). Asynchronous: creates
    /// no synchronization point.
    fn writeback(
        &mut self,
        file: Option<FileId>,
        max_pages: u64,
        proxy: Pid,
        cache: &mut sim_cache::PageCache,
        now: SimTime,
    ) -> FsOutput;

    /// A previously submitted [`IoReq`] completed.
    fn io_completed(
        &mut self,
        token: IoToken,
        cache: &mut sim_cache::PageCache,
        now: SimTime,
    ) -> FsOutput;

    /// A previously submitted [`IoReq`] failed at the device. Dependent
    /// fsyncs fail ([`FsEvent::FsyncFailed`]) instead of completing; a
    /// failed journal write aborts the journal
    /// ([`FsEvent::JournalAborted`]). Never panics — this is the
    /// error-propagation path.
    fn io_failed(
        &mut self,
        token: IoToken,
        error: IoError,
        cache: &mut sim_cache::PageCache,
        now: SimTime,
    ) -> FsOutput;

    /// Periodic tick (journal commit interval). Returns I/O plus the next
    /// time a tick is wanted.
    fn timer(&mut self, cache: &mut sim_cache::PageCache, now: SimTime) -> FsOutput;

    /// When the next periodic tick is due.
    fn next_timer(&self, now: SimTime) -> SimTime;

    /// Disk extents backing `[page, page+len)` of `file` for reads. Holes
    /// (never-written, never-allocated pages) are omitted — under delayed
    /// allocation a freshly written page is one, which is why the
    /// buffer-dirty hook's `block` (read from these extents) may be `None`.
    fn blocks_for_read(&self, file: FileId, page: u64, len: u64) -> Vec<Extent>;

    /// [`Self::blocks_for_read`] into a caller-owned buffer (cleared
    /// first), so the kernel's read and write hot paths can reuse one
    /// allocation.
    fn blocks_for_read_into(&self, file: FileId, page: u64, len: u64, out: &mut Vec<Extent>) {
        out.clear();
        out.extend(self.blocks_for_read(file, page, len));
    }

    /// The file's size in bytes.
    fn file_size(&self, file: FileId) -> u64;

    /// Dirty metadata currently queued in the running transaction, in
    /// pages (cost estimation).
    fn running_txn_meta_pages(&self) -> u64;

    /// The pid of the journal/log task (for experiment assertions).
    fn journal_task(&self) -> Pid;

    /// The pid the writeback daemon should use.
    fn writeback_task(&self) -> Pid;
}
