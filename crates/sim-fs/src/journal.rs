//! Journal bookkeeping: the running transaction, metadata joins, ordered
//! files, and the on-disk log area.
//!
//! Transactions commit strictly in order (one commit at a time, as in
//! jbd2); the commit *sequence* itself (flush ordered data → write log →
//! write commit record → checkpoint) is orchestrated by
//! [`crate::fs::JournaledFs`], which owns the I/O tokens.

use sim_core::{BlockNo, CauseSet, FastMap, FastSet, FileId, SimDuration, SimTime, TxnId};

/// Identifies a distinct metadata block so that shared metadata joins a
/// transaction once (Figure 4's shared directory block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaKey {
    /// A file's inode block.
    Inode(FileId),
    /// A directory block (shared among creats in the same directory).
    DirBlock(u32),
    /// An allocation bitmap block (shared among allocations in a group).
    Bitmap(u32),
}

/// Journal configuration.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Periodic commit interval (jbd2 default: 5 s).
    pub commit_interval: SimDuration,
    /// First block of the on-disk log area.
    pub area_start: BlockNo,
    /// Size of the log area in blocks.
    pub area_blocks: u64,
    /// Log blocks written per metadata block in a transaction. Physical
    /// journaling (ext4) writes the whole block (1.0); logical journaling
    /// (XFS) writes compact records (< 1.0).
    pub blocks_per_meta: f64,
    /// Force a commit when the running transaction reaches this many
    /// metadata blocks.
    pub max_txn_meta: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            commit_interval: SimDuration::from_secs(5),
            area_start: BlockNo(0),
            area_blocks: 32 * 1024, // 128 MB log
            blocks_per_meta: 1.0,
            max_txn_meta: 8192,
        }
    }
}

/// A transaction handed to the commit sequence.
#[derive(Debug, Clone)]
pub struct CommitTxn {
    /// Transaction id.
    pub id: TxnId,
    /// Distinct metadata blocks joined.
    pub meta_blocks: u64,
    /// Union of all joiners' causes.
    pub causes: CauseSet,
    /// Files whose data must be flushed before the log goes out
    /// (ordered mode).
    pub ordered: Vec<FileId>,
}

#[derive(Debug)]
struct Running {
    id: TxnId,
    meta: FastSet<MetaKey>,
    causes: CauseSet,
    ordered: FastSet<FileId>,
    opened_at: Option<SimTime>,
}

impl Running {
    fn new(id: TxnId) -> Self {
        Running {
            id,
            meta: FastSet::default(),
            causes: CauseSet::empty(),
            ordered: FastSet::default(),
            opened_at: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.meta.is_empty() && self.ordered.is_empty()
    }
}

/// Journal state.
#[derive(Debug)]
pub struct Journal {
    cfg: JournalConfig,
    running: Running,
    /// Which transaction holds each file's most recent metadata.
    file_txn: FastMap<FileId, TxnId>,
    last_committed: Option<TxnId>,
    commit_requested: bool,
    log_cursor: u64,
}

impl Journal {
    /// Fresh journal.
    pub fn new(cfg: JournalConfig) -> Self {
        Journal {
            cfg,
            running: Running::new(TxnId(1)),
            file_txn: FastMap::default(),
            last_committed: None,
            commit_requested: false,
            log_cursor: 0,
        }
    }

    /// Configuration.
    pub(crate) fn config(&self) -> &JournalConfig {
        &self.cfg
    }

    /// Join `key` (with `causes`) to the running transaction; `ordered`
    /// optionally marks a file whose data the commit must flush first.
    pub fn join(&mut self, key: MetaKey, causes: &CauseSet, now: SimTime) {
        self.running.meta.insert(key);
        self.running.causes.union_with(causes);
        if self.running.opened_at.is_none() {
            self.running.opened_at = Some(now);
        }
        if let MetaKey::Inode(file) = key {
            self.file_txn.insert(file, self.running.id);
        }
    }

    /// Mark `file`'s dirty data as ordered under the running transaction.
    pub(crate) fn mark_ordered(&mut self, file: FileId) {
        self.running.ordered.insert(file);
    }

    /// Ask for the running transaction to commit as soon as possible
    /// (fsync path).
    pub(crate) fn request_commit(&mut self) {
        if !self.running.is_empty() {
            self.commit_requested = true;
        }
    }

    /// Whether a commit should start now (requested, too large, or the
    /// periodic interval elapsed).
    pub(crate) fn wants_commit(&self, now: SimTime) -> bool {
        if self.running.is_empty() {
            return false;
        }
        if self.commit_requested {
            return true;
        }
        if self.running.meta.len() as u64 >= self.cfg.max_txn_meta {
            return true;
        }
        match self.running.opened_at {
            Some(t) => now.since(t) >= self.cfg.commit_interval,
            None => false,
        }
    }

    /// Seal the running transaction for committing and open a new one.
    pub fn seal(&mut self) -> CommitTxn {
        let next_id = TxnId(self.running.id.raw() + 1);
        let sealed = std::mem::replace(&mut self.running, Running::new(next_id));
        self.commit_requested = false;
        CommitTxn {
            id: sealed.id,
            meta_blocks: sealed.meta.len() as u64,
            causes: sealed.causes,
            ordered: {
                let mut v: Vec<FileId> = sealed.ordered.into_iter().collect();
                v.sort_unstable();
                v
            },
        }
    }

    /// Record that `txn` became durable (commits are in order).
    pub fn mark_committed(&mut self, txn: TxnId) {
        debug_assert!(self.last_committed.is_none_or(|t| txn.raw() > t.raw()));
        self.last_committed = Some(txn);
        self.file_txn.retain(|_, t| t.raw() > txn.raw());
    }

    /// Whether `txn` is durable.
    pub(crate) fn is_committed(&self, txn: TxnId) -> bool {
        self.last_committed.is_some_and(|t| txn.raw() <= t.raw())
    }

    /// The transaction currently holding `file`'s metadata, if it is not
    /// yet durable.
    pub(crate) fn txn_of(&self, file: FileId) -> Option<TxnId> {
        self.file_txn.get(&file).copied()
    }

    /// The running transaction's id.
    pub(crate) fn running_id(&self) -> TxnId {
        self.running.id
    }

    /// Number of log blocks a transaction of `meta_blocks` writes
    /// (descriptor + payload + headroom; the commit record is separate).
    pub(crate) fn log_blocks_for(&self, meta_blocks: u64) -> u64 {
        1 + ((meta_blocks as f64 * self.cfg.blocks_per_meta).ceil() as u64).max(1)
    }

    /// Reserve `n` contiguous blocks in the log area (wrapping).
    pub(crate) fn reserve_log(&mut self, n: u64) -> BlockNo {
        let n = n.min(self.cfg.area_blocks);
        if self.log_cursor + n > self.cfg.area_blocks {
            self.log_cursor = 0;
        }
        let at = BlockNo(self.cfg.area_start.raw() + self.log_cursor);
        self.log_cursor += n;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Pid;

    fn jnl() -> Journal {
        Journal::new(JournalConfig {
            area_start: BlockNo(1000),
            area_blocks: 100,
            ..Default::default()
        })
    }

    #[test]
    fn shared_metadata_joins_once() {
        let mut j = jnl();
        j.join(MetaKey::DirBlock(0), &CauseSet::of(Pid(1)), SimTime::ZERO);
        j.join(MetaKey::DirBlock(0), &CauseSet::of(Pid(2)), SimTime::ZERO);
        let sealed = j.seal();
        assert_eq!(sealed.meta_blocks, 1, "shared block counted once");
        assert!(sealed.causes.contains(Pid(1)));
        assert!(sealed.causes.contains(Pid(2)));
    }

    #[test]
    fn ordered_files_travel_with_the_sealed_txn() {
        let mut j = jnl();
        j.join(
            MetaKey::Inode(FileId(5)),
            &CauseSet::of(Pid(1)),
            SimTime::ZERO,
        );
        j.mark_ordered(FileId(5));
        j.join(
            MetaKey::Inode(FileId(9)),
            &CauseSet::of(Pid(2)),
            SimTime::ZERO,
        );
        j.mark_ordered(FileId(9));
        let sealed = j.seal();
        assert_eq!(sealed.ordered, vec![FileId(5), FileId(9)]);
        assert!(j.running.is_empty());
        assert_eq!(j.running_id().raw(), sealed.id.raw() + 1);
    }

    #[test]
    fn commit_tracking_is_in_order() {
        let mut j = jnl();
        j.join(
            MetaKey::Inode(FileId(1)),
            &CauseSet::of(Pid(1)),
            SimTime::ZERO,
        );
        let t1 = j.seal();
        j.join(
            MetaKey::Inode(FileId(2)),
            &CauseSet::of(Pid(1)),
            SimTime::ZERO,
        );
        let t2 = j.seal();
        assert!(!j.is_committed(t1.id));
        j.mark_committed(t1.id);
        assert!(j.is_committed(t1.id));
        assert!(!j.is_committed(t2.id));
        // File 2's metadata is still pending; file 1's is durable.
        assert_eq!(j.txn_of(FileId(2)), Some(t2.id));
        assert_eq!(j.txn_of(FileId(1)), None);
    }

    #[test]
    fn wants_commit_on_request_size_or_timeout() {
        let mut j = Journal::new(JournalConfig {
            max_txn_meta: 3,
            commit_interval: SimDuration::from_secs(5),
            ..Default::default()
        });
        assert!(!j.wants_commit(SimTime::ZERO), "empty txn never commits");
        j.join(
            MetaKey::Inode(FileId(1)),
            &CauseSet::of(Pid(1)),
            SimTime::ZERO,
        );
        assert!(!j.wants_commit(SimTime::from_nanos(1)));
        // Request.
        j.request_commit();
        assert!(j.wants_commit(SimTime::from_nanos(1)));
        j.seal();
        // Size.
        for f in 0..3 {
            j.join(
                MetaKey::Inode(FileId(f)),
                &CauseSet::of(Pid(1)),
                SimTime::ZERO,
            );
        }
        assert!(j.wants_commit(SimTime::from_nanos(1)));
        j.seal();
        // Timeout.
        j.join(
            MetaKey::Inode(FileId(9)),
            &CauseSet::of(Pid(1)),
            SimTime::ZERO,
        );
        assert!(!j.wants_commit(SimTime::from_nanos(2)));
        assert!(j.wants_commit(SimTime::ZERO + SimDuration::from_secs(6)));
    }

    #[test]
    fn log_reservation_wraps() {
        let mut j = jnl();
        let a = j.reserve_log(60);
        assert_eq!(a, BlockNo(1000));
        let b = j.reserve_log(60); // would overflow the 100-block area
        assert_eq!(b, BlockNo(1000), "wrapped to area start");
    }

    #[test]
    fn log_size_scales_with_meta_and_mode() {
        let j = jnl(); // physical: 1.0 blocks per meta
        assert_eq!(j.log_blocks_for(10), 11);
        let logical = Journal::new(JournalConfig {
            blocks_per_meta: 0.25,
            ..Default::default()
        });
        assert_eq!(logical.log_blocks_for(10), 4); // 1 + ceil(2.5)
        assert!(logical.log_blocks_for(0) >= 2);
    }
}
