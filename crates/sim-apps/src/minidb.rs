//! A SQLite-like embedded key-value store: write-ahead log + lazy
//! checkpointing (§7.1.1).
//!
//! A transaction appends its row updates to the WAL and fsyncs it; the
//! affected database pages are updated in memory (buffered writes to the
//! database file). A separate checkpointer thread flushes and fsyncs the
//! database file whenever the number of dirty buffers crosses a
//! threshold — the knob swept in Figure 18.

use std::cell::RefCell;
use std::rc::Rc;

use sim_core::{FileId, SimDuration, SimRng, SimTime, PAGE_SIZE};
use sim_kernel::{Outcome, ProcAction, ProcessLogic};
use split_core::SyscallKind;

/// Rows (pages) updated per transaction.
const ROWS_PER_TXN: u64 = 8;

/// WAL bytes appended per transaction.
const WAL_BYTES_PER_TXN: u64 = PAGE_SIZE;

/// Think time between transactions.
const THINK: SimDuration = SimDuration::from_millis(1);

/// Database configuration.
#[derive(Debug, Clone, Copy)]
pub struct MiniDbConfig {
    /// Database file size (table heap).
    pub db_bytes: u64,
    /// Dirty-buffer count that triggers a checkpoint.
    pub checkpoint_threshold: u64,
    /// Seed for the checkpointer's page-selection RNG (0 = historical).
    pub seed: u64,
}

impl Default for MiniDbConfig {
    fn default() -> Self {
        MiniDbConfig {
            db_bytes: 256 * 1024 * 1024,
            checkpoint_threshold: 1000,
            seed: 0,
        }
    }
}

/// State shared between the transaction worker and the checkpointer.
#[derive(Debug)]
pub struct MiniDbShared {
    /// Pages dirtied since the last checkpoint.
    pub dirty_buffers: u64,
    /// Completed transaction latencies (completion time, latency).
    pub txn_latencies: Vec<(SimTime, SimDuration)>,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Pages the next checkpoint must write (snapshot at trigger).
    checkpoint_backlog: u64,
}

impl MiniDbShared {
    /// Fresh shared state behind an `Rc<RefCell<…>>`.
    pub fn new() -> Rc<RefCell<MiniDbShared>> {
        Rc::new(RefCell::new(MiniDbShared {
            dirty_buffers: 0,
            txn_latencies: Vec::new(),
            checkpoints: 0,
            checkpoint_backlog: 0,
        }))
    }
}

/// The transaction worker: update rows, append WAL, fsync WAL.
pub struct TxnWorker {
    shared: Rc<RefCell<MiniDbShared>>,
    wal_file: FileId,
    wal_offset: u64,
    stage: u8,
    txn_started: SimTime,
}

impl TxnWorker {
    /// A worker over the given WAL file.
    pub fn new(shared: Rc<RefCell<MiniDbShared>>, wal_file: FileId) -> Self {
        TxnWorker {
            shared,
            wal_file,
            wal_offset: 0,
            stage: 0,
            txn_started: SimTime::ZERO,
        }
    }
}

impl ProcessLogic for TxnWorker {
    fn next(&mut self, now: SimTime, _last: &Outcome) -> ProcAction {
        // WAL mode: a transaction touches ONLY the log — the row updates
        // live in the WAL until the checkpointer copies them into the
        // database file. (This is why the checkpoint threshold matters.)
        match self.stage {
            0 => {
                self.txn_started = now;
                self.stage = 1;
                let a = ProcAction::Syscall(SyscallKind::Write {
                    file: self.wal_file,
                    offset: self.wal_offset,
                    len: WAL_BYTES_PER_TXN,
                });
                self.wal_offset = (self.wal_offset + WAL_BYTES_PER_TXN) % (64 * 1024 * 1024);
                a
            }
            // WAL appended: make it durable.
            1 => {
                self.stage = 2;
                ProcAction::Syscall(SyscallKind::Fsync {
                    file: self.wal_file,
                })
            }
            // Commit point reached: record latency, think, restart.
            _ => {
                let latency = now.since(self.txn_started);
                {
                    let mut sh = self.shared.borrow_mut();
                    sh.txn_latencies.push((now, latency));
                    sh.dirty_buffers += ROWS_PER_TXN;
                }
                self.stage = 0;
                ProcAction::Sleep(THINK)
            }
        }
    }
}

/// The checkpointer: when enough WAL frames are pending, copy them into
/// the database file (random-page buffered writes) and fsync it.
pub struct Checkpointer {
    cfg: MiniDbConfig,
    shared: Rc<RefCell<MiniDbShared>>,
    db_file: FileId,
    rng: SimRng,
    stage: u8,
    left: u64,
}

impl Checkpointer {
    /// A checkpointer for the given database file.
    pub fn new(cfg: MiniDbConfig, shared: Rc<RefCell<MiniDbShared>>, db_file: FileId) -> Self {
        Checkpointer {
            cfg,
            shared,
            db_file,
            rng: SimRng::seed_from_u64(cfg.seed ^ 0xc4ec),
            stage: 0,
            left: 0,
        }
    }
}

impl ProcessLogic for Checkpointer {
    fn next(&mut self, _now: SimTime, _last: &Outcome) -> ProcAction {
        match self.stage {
            0 => {
                let trigger = {
                    let mut sh = self.shared.borrow_mut();
                    if sh.dirty_buffers >= self.cfg.checkpoint_threshold {
                        sh.checkpoint_backlog = sh.dirty_buffers;
                        sh.dirty_buffers = 0;
                        true
                    } else {
                        false
                    }
                };
                if trigger {
                    self.left = self.shared.borrow().checkpoint_backlog;
                    self.stage = 1;
                    self.next(_now, _last)
                } else {
                    ProcAction::Sleep(SimDuration::from_millis(10))
                }
            }
            // Copy WAL frames into the database file.
            1 => {
                if self.left > 0 {
                    self.left -= 1;
                    let pages = self.cfg.db_bytes / PAGE_SIZE;
                    let page = self.rng.gen_range(pages);
                    return ProcAction::Syscall(SyscallKind::Write {
                        file: self.db_file,
                        offset: page * PAGE_SIZE,
                        len: PAGE_SIZE,
                    });
                }
                self.stage = 2;
                ProcAction::Syscall(SyscallKind::Fsync { file: self.db_file })
            }
            _ => {
                let mut sh = self.shared.borrow_mut();
                sh.checkpoints += 1;
                sh.checkpoint_backlog = 0;
                drop(sh);
                self.stage = 0;
                ProcAction::Sleep(SimDuration::from_millis(10))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_cycles_wal_append_fsync() {
        let shared = MiniDbShared::new();
        let mut wkr = TxnWorker::new(shared.clone(), FileId(2));
        // WAL append → fsync (no database-file writes in WAL mode).
        let b = wkr.next(SimTime::ZERO, &Outcome::None);
        assert!(matches!(
            b,
            ProcAction::Syscall(SyscallKind::Write {
                file: FileId(2),
                ..
            })
        ));
        let c = wkr.next(SimTime::ZERO, &Outcome::None);
        assert!(matches!(
            c,
            ProcAction::Syscall(SyscallKind::Fsync { file: FileId(2) })
        ));
        // Commit recorded; dirty WAL frames queue for the checkpointer,
        // and the worker thinks before the next transaction.
        let d = wkr.next(SimTime::from_nanos(5_000_000), &Outcome::Synced);
        assert!(matches!(d, ProcAction::Sleep(t) if t == THINK));
        assert_eq!(shared.borrow().txn_latencies.len(), 1);
        assert_eq!(shared.borrow().dirty_buffers, ROWS_PER_TXN);
    }

    #[test]
    fn checkpointer_copies_backlog_then_fsyncs() {
        let shared = MiniDbShared::new();
        let cfg = MiniDbConfig {
            checkpoint_threshold: 3,
            ..Default::default()
        };
        let mut cp = Checkpointer::new(cfg, shared.clone(), FileId(1));
        assert!(matches!(
            cp.next(SimTime::ZERO, &Outcome::None),
            ProcAction::Sleep(_)
        ));
        shared.borrow_mut().dirty_buffers = 3;
        // Three page copies into the database file…
        for _ in 0..3 {
            assert!(matches!(
                cp.next(SimTime::ZERO, &Outcome::None),
                ProcAction::Syscall(SyscallKind::Write {
                    file: FileId(1),
                    ..
                })
            ));
        }
        // …then the fsync.
        assert!(matches!(
            cp.next(SimTime::ZERO, &Outcome::None),
            ProcAction::Syscall(SyscallKind::Fsync { file: FileId(1) })
        ));
        let _ = cp.next(SimTime::ZERO, &Outcome::Synced);
        assert_eq!(shared.borrow().checkpoints, 1);
        assert_eq!(shared.borrow().dirty_buffers, 0);
    }
}
