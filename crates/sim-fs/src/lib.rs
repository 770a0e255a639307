#![warn(missing_docs)]
//! File systems for the simulator: a journaling, delayed-allocation file
//! system in the mold of ext4 (ordered mode), plus an XFS-like variant
//! with a logical journal written by an *untagged* log task — the
//! "partial integration" configuration of §6.
//!
//! The file system is a passive state machine: every entry point returns an
//! [`FsOutput`] describing block I/O to submit and events that became true
//! (an fsync finished, a transaction committed, a commit or writeback pass
//! started). The kernel routes the I/O through the scheduler and calls
//! [`JournaledFs::io_done`] as the device finishes (or fails) requests.
//! This inversion keeps the file system free of event-loop plumbing while
//! still letting fsyncs span simulated time. Every event is also an
//! observation: the kernel reports a call's events, in order, to its
//! subscribers before it submits the call's I/O, which is how commits,
//! fsync phases and writeback passes reach the span tracer and the
//! auditors without the file system holding either.
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
use sim_cache::PageRange;
use sim_core::{BlockNo, CauseSet, FileId, IoError, Pid, TxnId};
use sim_device::IoDir;

pub use alloc::{Allocator, Extent};
pub use fs::{FsConfig, JournaledFs};
pub use journal::{Journal, JournalConfig};
pub use sim_fault::WriteStep;

/// Correlation token for I/O the file system submits; handed back in
/// [`JournaledFs::io_done`].
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
    /// Journal-protocol role of this write; the kernel reports it with the
    /// request (`BlockSubmitted`), so a subscriber's shadow disk can replay
    /// recovery without parsing on-disk state. `Untracked` for reads.
    pub step: WriteStep,
}

/// Something that became true during a file-system call, in the order it
/// happened. Commits are keyed by transaction, fsyncs by the file system's
/// own fsync id and writeback passes by pass id, so an observer can pair
/// each start with its end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsEvent {
    /// The journal task sealed a transaction and began committing it.
    CommitStarted {
        /// The transaction.
        txn: TxnId,
        /// The committing task.
        task: Pid,
        /// Everyone whose metadata or ordered data the commit carries.
        causes: CauseSet,
    },
    /// `pid` began an fsync.
    FsyncStarted {
        /// The fsync.
        fsync: u64,
        /// The calling process.
        pid: Pid,
        /// Whether it waits for data writes (its own flush or ones in
        /// flight).
        data: bool,
        /// The transaction it waits to see committed, if any.
        txn: Option<TxnId>,
    },
    /// The data writes an fsync waited for all completed.
    FsyncDataDrained {
        /// The fsync.
        fsync: u64,
    },
    /// An fsync previously started by `waiter` finished: its file is
    /// durable, or some write it depended on was lost and the fsync fails
    /// with the error, as `fsync(2)` returns `EIO`.
    FsyncDone {
        /// Process to wake.
        waiter: Pid,
        /// The fsync.
        fsync: u64,
        /// Durable, or why not.
        result: Result<(), IoError>,
    },
    /// A flush took `pages` dirty pages of `file` to write them out.
    DataFlushed {
        /// The file.
        file: FileId,
        /// Pages taken from the page cache.
        pages: u64,
    },
    /// A writeback pass submitted its writes.
    WritebackStarted {
        /// The pass.
        pass: u64,
        /// The writeback task.
        task: Pid,
        /// The flushed pages' causes.
        causes: CauseSet,
        /// Pages submitted.
        pages: u64,
    },
    /// A writeback pass finished (all its I/O completed), or found
    /// nothing to write.
    WritebackDone {
        /// The pass.
        pass: u64,
        /// Pages written.
        pages: u64,
    },
    /// A journal transaction became durable; its commit is over.
    TxnCommitted {
        /// The transaction.
        txn: TxnId,
    },
    /// A journal write (log body or commit record) failed; the journal is
    /// aborted, the commit is over, and every subsequent synchronizing
    /// operation fails, as after a jbd2 abort.
    JournalAborted {
        /// The transaction whose commit failed.
        txn: TxnId,
    },
    /// A file was removed; its dirty buffers were dropped without
    /// writeback (the kernel fires buffer-free hooks for them).
    Unlinked {
        /// The file.
        file: FileId,
        /// The dirty ranges dropped.
        dirty: Vec<PageRange>,
    },
}

/// Result of a file-system entry point. Hand it back with
/// [`JournaledFs::recycle`] once absorbed, and the next call reuses its
/// buffers.
#[derive(Debug, Default)]
pub struct FsOutput {
    /// Block I/O to submit, in order.
    pub ios: Vec<IoReq>,
    /// Events that became true, in order.
    pub events: Vec<FsEvent>,
}
