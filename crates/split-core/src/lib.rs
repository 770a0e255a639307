#![warn(missing_docs)]
//! The split-level scheduling framework — the paper's primary
//! contribution (§3, §4).
//!
//! A split scheduler is one object implementing [`Scheduler`], with hooks
//! at three layers of the storage stack (Table 2 of the paper):
//!
//! | Level | Hooks | Origin |
//! |---|---|---|
//! | system call | `syscall_enter` / `syscall_exit` for `write`, `fsync`, `creat`, `mkdir`, `unlink` | SCS |
//! | memory | `buffer_dirtied` / `buffer_freed` | **new** |
//! | block | `block_add` / `block_dispatch` / `block_completed` | block |
//!
//! The kernel sends each hook as one [`Hook`] message through
//! [`IoSched::on`], the one entry point it knows; `Scheduler`'s blanket
//! impl turns the message back into the hook call, and a wrapper matches
//! only the messages it changes. The scheduler responds either by
//! answering in the message's reply slot (gating a syscall, issuing a
//! request) or by queuing commands on
//! the [`SchedCtx`] (waking a parked task, arming a timer, kicking
//! writeback). Cross-layer *cause tags* ([`CauseSet`], re-exported from
//! `sim-core`) flow from the dirtying syscall through the page cache and
//! the file system's proxy tasks down to block requests, so a scheduler at
//! any layer can map I/O back to the processes responsible.
//!
//! Classic single-level schedulers plug into the same interface through
//! [`BlockOnly`], which is how the baselines run in the
//! experiments.

mod adapter;
mod hooks;
mod proxy;

pub use adapter::BlockOnly;
pub use hooks::{
    BufferDirtied, BufferFreed, Gate, Hook, IoSched, SchedAttr, SchedCmd, SchedCtx, SchedObserver,
    Scheduler, SyscallInfo, SyscallKind,
};
pub use proxy::ProxyRegistry;

// The occupancy view hooks receive on a physical disk; defined in
// sim-block next to the hardware-queue census that maintains it.
pub use sim_block::QueueOccupancy;

// The tag type itself; defined in sim-core so the block layer can carry it,
// re-exported here because it is conceptually part of the framework.
pub use sim_core::CauseSet;
