//! A PostgreSQL-like transaction mix (pgbench / TPC-B flavoured, §7.1.2).
//!
//! Each worker transaction reads a few random table pages, updates a few
//! (buffered), appends to the WAL and fsyncs it — the foreground commit
//! path whose latency Figure 19 plots. A checkpointer fsyncs the table
//! file every interval, producing the periodic dirty-data burst behind
//! the community's "fsync freeze" problem.

use std::cell::RefCell;
use std::rc::Rc;

use sim_core::{FileId, SimDuration, SimRng, SimTime, PAGE_SIZE};
use sim_kernel::{Outcome, ProcAction, ProcessLogic};
use split_core::SyscallKind;

/// Table file size.
pub const TABLE_BYTES: u64 = 512 * 1024 * 1024;

/// Pages read per transaction.
const READS_PER_TXN: u64 = 2;

/// Pages updated per transaction.
const WRITES_PER_TXN: u64 = 2;

/// Think time between transactions.
const THINK: SimDuration = SimDuration::from_millis(2);

/// Workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct PgConfig {
    /// Checkpoint interval (paper: 30 s).
    pub checkpoint_interval: SimDuration,
    /// Seed for the checkpointer's page-selection RNG (0 = historical).
    pub seed: u64,
}

impl Default for PgConfig {
    fn default() -> Self {
        PgConfig {
            checkpoint_interval: SimDuration::from_secs(10),
            seed: 0,
        }
    }
}

/// Shared measurement state.
#[derive(Debug, Default)]
pub struct PgShared {
    /// Completed transaction latencies (completion time, latency).
    pub txn_latencies: Vec<(SimTime, SimDuration)>,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Shared-buffer pages dirtied since the last checkpoint — written to
    /// the table file only by the checkpointer, as in PostgreSQL.
    pub pending_pages: u64,
}

impl PgShared {
    /// Fresh shared state.
    pub fn new() -> Rc<RefCell<PgShared>> {
        Rc::new(RefCell::new(PgShared::default()))
    }
}

/// One pgbench-like worker.
pub struct PgWorker {
    shared: Rc<RefCell<PgShared>>,
    table: FileId,
    wal: FileId,
    rng: SimRng,
    wal_offset: u64,
    stage: u8,
    ops_done: u64,
    txn_started: SimTime,
}

impl PgWorker {
    /// A worker over the given table and WAL files.
    pub fn new(shared: Rc<RefCell<PgShared>>, table: FileId, wal: FileId, seed: u64) -> Self {
        PgWorker {
            shared,
            table,
            wal,
            rng: SimRng::seed_from_u64(seed),
            wal_offset: 0,
            stage: 0,
            ops_done: 0,
            txn_started: SimTime::ZERO,
        }
    }

    fn random_page_offset(&mut self) -> u64 {
        let pages = TABLE_BYTES / PAGE_SIZE;
        self.rng.gen_range(pages) * PAGE_SIZE
    }
}

impl ProcessLogic for PgWorker {
    fn next(&mut self, now: SimTime, _last: &Outcome) -> ProcAction {
        match self.stage {
            // Reads.
            0 => {
                if self.ops_done == 0 {
                    self.txn_started = now;
                }
                if self.ops_done < READS_PER_TXN {
                    self.ops_done += 1;
                    let offset = self.random_page_offset();
                    return ProcAction::Syscall(SyscallKind::Read {
                        file: self.table,
                        offset,
                        len: PAGE_SIZE,
                    });
                }
                self.stage = 1;
                self.ops_done = 0;
                self.next(now, _last)
            }
            // Updates: dirty shared buffers (counted for the next
            // checkpoint; PostgreSQL does not write table pages at commit
            // time), then append the WAL record.
            1 => {
                self.shared.borrow_mut().pending_pages += WRITES_PER_TXN;
                self.stage = 2;
                let a = ProcAction::Syscall(SyscallKind::Write {
                    file: self.wal,
                    offset: self.wal_offset,
                    len: PAGE_SIZE,
                });
                self.wal_offset = (self.wal_offset + PAGE_SIZE) % (128 * 1024 * 1024);
                a
            }
            // WAL fsync = commit.
            2 => {
                self.stage = 3;
                ProcAction::Syscall(SyscallKind::Fsync { file: self.wal })
            }
            _ => {
                let latency = now.since(self.txn_started);
                self.shared.borrow_mut().txn_latencies.push((now, latency));
                self.stage = 0;
                self.ops_done = 0;
                ProcAction::Sleep(THINK)
            }
        }
    }
}

/// The background checkpointer: every interval, write the dirtied shared
/// buffers to the table file and fsync it.
pub struct PgCheckpointer {
    cfg: PgConfig,
    shared: Rc<RefCell<PgShared>>,
    table: FileId,
    rng: SimRng,
    stage: u8,
    left: u64,
}

impl PgCheckpointer {
    /// A checkpointer over the table file.
    pub fn new(cfg: PgConfig, shared: Rc<RefCell<PgShared>>, table: FileId) -> Self {
        PgCheckpointer {
            cfg,
            shared,
            table,
            rng: SimRng::seed_from_u64(cfg.seed ^ 0x9c9c),
            stage: 0,
            left: 0,
        }
    }
}

impl ProcessLogic for PgCheckpointer {
    fn next(&mut self, _now: SimTime, _last: &Outcome) -> ProcAction {
        match self.stage {
            0 => {
                self.stage = 1;
                ProcAction::Sleep(self.cfg.checkpoint_interval)
            }
            1 => {
                let mut sh = self.shared.borrow_mut();
                self.left = sh.pending_pages;
                sh.pending_pages = 0;
                drop(sh);
                self.stage = 2;
                self.next(_now, _last)
            }
            // Write the dirty buffers to the table file…
            2 => {
                if self.left > 0 {
                    self.left -= 1;
                    let pages = TABLE_BYTES / PAGE_SIZE;
                    let page = self.rng.gen_range(pages);
                    return ProcAction::Syscall(SyscallKind::Write {
                        file: self.table,
                        offset: page * PAGE_SIZE,
                        len: PAGE_SIZE,
                    });
                }
                self.stage = 3;
                ProcAction::Syscall(SyscallKind::Fsync { file: self.table })
            }
            // …and the fsync makes the checkpoint durable.
            _ => {
                self.shared.borrow_mut().checkpoints += 1;
                self.stage = 0;
                self.next(_now, _last)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_transaction_shape() {
        let shared = PgShared::new();
        let mut wk = PgWorker::new(shared.clone(), FileId(1), FileId(2), 3);
        for _ in 0..READS_PER_TXN {
            let a = wk.next(SimTime::ZERO, &Outcome::None);
            assert!(matches!(
                a,
                ProcAction::Syscall(SyscallKind::Read {
                    file: FileId(1),
                    ..
                })
            ));
        }
        // Updates dirty shared buffers; only the WAL is written at commit.
        let c = wk.next(SimTime::ZERO, &Outcome::None);
        assert!(matches!(
            c,
            ProcAction::Syscall(SyscallKind::Write {
                file: FileId(2),
                ..
            })
        ));
        let d = wk.next(SimTime::ZERO, &Outcome::None);
        assert!(matches!(
            d,
            ProcAction::Syscall(SyscallKind::Fsync { file: FileId(2) })
        ));
        let _ = wk.next(SimTime::from_nanos(1), &Outcome::Synced);
        assert_eq!(shared.borrow().txn_latencies.len(), 1);
        assert_eq!(shared.borrow().pending_pages, WRITES_PER_TXN);
    }

    #[test]
    fn checkpointer_writes_pending_pages_then_fsyncs() {
        let shared = PgShared::new();
        let mut cp = PgCheckpointer::new(PgConfig::default(), shared.clone(), FileId(1));
        assert!(matches!(
            cp.next(SimTime::ZERO, &Outcome::None),
            ProcAction::Sleep(_)
        ));
        shared.borrow_mut().pending_pages = 2;
        for _ in 0..2 {
            assert!(matches!(
                cp.next(SimTime::ZERO, &Outcome::None),
                ProcAction::Syscall(SyscallKind::Write {
                    file: FileId(1),
                    ..
                })
            ));
        }
        assert!(matches!(
            cp.next(SimTime::ZERO, &Outcome::None),
            ProcAction::Syscall(SyscallKind::Fsync { .. })
        ));
        // Completion rolls straight into the next sleep.
        assert!(matches!(
            cp.next(SimTime::ZERO, &Outcome::Synced),
            ProcAction::Sleep(_)
        ));
        assert_eq!(shared.borrow().checkpoints, 1);
        assert_eq!(shared.borrow().pending_pages, 0);
    }
}
