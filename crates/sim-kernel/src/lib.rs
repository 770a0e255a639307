#![warn(missing_docs)]
//! The simulated kernel: processes, system calls, CPU contention, the
//! writeback daemon, and the event loop tying the page cache, file system,
//! scheduler and device together.
//!
//! A [`World`] owns one or more [`Kernel`]s (several for the QEMU and HDFS
//! scenarios) and a single deterministic event queue. Processes are state
//! machines implementing [`ProcessLogic`]; each kernel executes their
//! system calls exactly the way the paper describes the Linux stack:
//!
//! * gated syscalls (`write`, `fsync`, `creat`, `mkdir`, `unlink`) pass
//!   through the scheduler's syscall-entry hook, which may park the caller;
//! * buffered writes dirty tagged pages and are throttled against
//!   `dirty_ratio`;
//! * reads are served from the cache or turned into sync block requests;
//! * the writeback daemon (pdflush) and the journal task submit delegated
//!   I/O under proxy tags;
//! * the block layer is driven by whatever [`split_core::IoSched`] the
//!   kernel was built with.

mod cpu;
mod kernel;
mod process;
mod span_probe;
mod stats;
mod world;

pub use cpu::{SCHED_BOOKKEEPING, SYSCALL_BASE};
pub use kernel::{DeviceKind, FsChoice, Kernel, KernelConfig};
pub use process::{Outcome, ProcAction, ProcessLogic};
pub use stats::{KernelStats, ProcStats};
pub use world::{AppEvent, InjectTarget, World};
