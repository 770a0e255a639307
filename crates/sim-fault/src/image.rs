//! Shadow disk image, journal replay and ordered-mode invariant checks.

use std::collections::BTreeMap;
use std::fmt;

use sim_core::{FastMap, FileId, TxnId};

/// The journal-protocol role of one write, annotated by the file system at
/// submission time. The crash harness uses it to replay recovery without
/// parsing on-disk state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WriteStep {
    /// Not part of the tracked protocol (reads, fixture setup).
    #[default]
    Untracked,
    /// Ordered file data flushed by writeback or an fsync/commit.
    Data {
        /// The file the pages belong to.
        file: FileId,
    },
    /// The log body of transaction `txn`.
    JournalLog {
        /// The transaction being logged.
        txn: TxnId,
        /// Files whose ordered data the transaction's metadata describes;
        /// their data must be durable before this write is submitted.
        ordered: Vec<FileId>,
    },
    /// The single-block commit record of `txn` (atomic on media).
    CommitRecord {
        /// The transaction being committed.
        txn: TxnId,
    },
    /// The post-commit checkpoint of `txn` to the home metadata location.
    Checkpoint {
        /// The transaction being checkpointed.
        txn: TxnId,
    },
}

/// Durable state of one submitted write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Durability {
    /// Submitted, not yet completed; lost if power is cut now.
    InFlight,
    /// Fully on media.
    Durable,
    /// Nothing reached media.
    Lost,
    /// Only the first `durable_blocks` blocks reached media.
    Torn {
        /// Blocks (from the write's start) that became durable.
        durable_blocks: u64,
    },
}

impl Durability {
    /// Whether the whole write is on media.
    fn fully_durable(self, nblocks: u64) -> bool {
        match self {
            Durability::Durable => true,
            Durability::Torn { durable_blocks } => durable_blocks >= nblocks,
            _ => false,
        }
    }
}

/// One write the image is tracking.
#[derive(Debug, Clone)]
struct WriteRecord {
    /// Submission order (0-based).
    seq: u64,
    /// Protocol role.
    step: WriteStep,
    /// Length in blocks.
    nblocks: u64,
    /// Current durable state.
    state: Durability,
}

/// What journal replay would recover after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Transactions recovered, in id order. Replay stops at the first
    /// transaction whose log or commit record is not fully durable, so
    /// this is always a prefix of the committed sequence.
    pub recovered: Vec<TxnId>,
    /// The transaction replay stopped at, if any.
    pub first_gap: Option<TxnId>,
}

impl Recovery {
    /// Whether `txn` survived the crash.
    pub fn contains(&self, txn: TxnId) -> bool {
        self.recovered.contains(&txn)
    }
}

/// A broken ordered-mode guarantee found after replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyViolation {
    /// `TxnCommitted` was reported to the application before the crash but
    /// replay did not recover the transaction — an acknowledged durability
    /// promise was broken.
    AckedTxnLost {
        /// The lost transaction.
        txn: TxnId,
    },
    /// A recovered transaction's metadata describes file data that never
    /// became durable — metadata pointing at garbage, the failure ordered
    /// mode exists to prevent.
    StaleData {
        /// The recovered transaction.
        txn: TxnId,
        /// The file whose data is missing.
        file: FileId,
    },
    /// A transaction was recovered from a torn log — replay accepted a
    /// partial log body.
    TornJournalRecovered {
        /// The transaction.
        txn: TxnId,
    },
    /// A checkpoint write reached media for a transaction that was never
    /// durably committed — home metadata was overwritten ahead of the
    /// commit record.
    CheckpointWithoutCommit {
        /// The prematurely checkpointed transaction.
        txn: TxnId,
    },
}

impl fmt::Display for ConsistencyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyViolation::AckedTxnLost { txn } => {
                write!(f, "acknowledged txn {txn} lost by replay")
            }
            ConsistencyViolation::StaleData { txn, file } => {
                write!(f, "recovered txn {txn} points at stale data of file {file}")
            }
            ConsistencyViolation::TornJournalRecovered { txn } => {
                write!(f, "txn {txn} recovered from a torn log")
            }
            ConsistencyViolation::CheckpointWithoutCommit { txn } => {
                write!(f, "txn {txn} checkpointed without a durable commit")
            }
        }
    }
}

/// Per-transaction digest built from the write records.
#[derive(Debug, Default)]
struct TxnDigest {
    log_seqs: Vec<u64>,
    log_fully_durable: bool,
    log_torn: bool,
    has_log: bool,
    commit_durable: bool,
    has_commit: bool,
    checkpoint_durable: bool,
    ordered: Vec<FileId>,
}

/// A shadow record of every write's durable state.
///
/// The crash harness calls [`DiskImage::submit`] for each `IoReq` the file
/// system emits, [`DiskImage::complete`] as its fake device finishes
/// them, and [`DiskImage::crash`] to cut power. The image never talks to
/// the real simulation objects — it is a passive observer, which is what
/// lets one protocol run be crashed at many points cheaply.
#[derive(Debug, Default)]
pub struct DiskImage {
    writes: Vec<WriteRecord>,
    by_key: FastMap<u64, usize>,
}

impl DiskImage {
    /// An empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a submitted write. `key` (an `IoToken` or `RequestId` raw)
    /// must be unique per write.
    pub fn submit(&mut self, key: u64, step: WriteStep, nblocks: u64) {
        let seq = self.writes.len() as u64;
        let idx = self.writes.len();
        self.writes.push(WriteRecord {
            seq,
            step,
            nblocks,
            state: Durability::InFlight,
        });
        let prev = self.by_key.insert(key, idx);
        debug_assert!(prev.is_none(), "duplicate disk-image key {key}");
    }

    /// Mark a write fully durable.
    pub fn complete(&mut self, key: u64) {
        self.set_state(key, Durability::Durable);
    }

    fn set_state(&mut self, key: u64, state: Durability) {
        if let Some(&idx) = self.by_key.get(&key) {
            self.writes[idx].state = state;
        }
    }

    /// Cut power: every in-flight write is lost, or — when `torn_prefix`
    /// is given — torn to `min(torn_prefix, nblocks)` durable blocks.
    pub fn crash(&mut self, torn_prefix: Option<u64>) {
        for w in &mut self.writes {
            if w.state == Durability::InFlight {
                w.state = match torn_prefix {
                    Some(p) => Durability::Torn {
                        durable_blocks: p.min(w.nblocks),
                    },
                    None => Durability::Lost,
                };
            }
        }
    }

    fn digests(&self) -> BTreeMap<TxnId, TxnDigest> {
        let mut txns: BTreeMap<TxnId, TxnDigest> = BTreeMap::new();
        for w in &self.writes {
            match &w.step {
                WriteStep::JournalLog { txn, ordered } => {
                    let d = txns.entry(*txn).or_default();
                    if !d.has_log {
                        d.log_fully_durable = true;
                    }
                    d.has_log = true;
                    d.log_seqs.push(w.seq);
                    d.log_fully_durable &= w.state.fully_durable(w.nblocks);
                    d.log_torn |= matches!(w.state, Durability::Torn { durable_blocks } if durable_blocks < w.nblocks);
                    for f in ordered {
                        if !d.ordered.contains(f) {
                            d.ordered.push(*f);
                        }
                    }
                }
                WriteStep::CommitRecord { txn } => {
                    let d = txns.entry(*txn).or_default();
                    d.has_commit = true;
                    d.commit_durable |= w.state.fully_durable(w.nblocks);
                }
                WriteStep::Checkpoint { txn } => {
                    let d = txns.entry(*txn).or_default();
                    d.checkpoint_durable |= w.state.fully_durable(w.nblocks);
                }
                WriteStep::Data { .. } | WriteStep::Untracked => {}
            }
        }
        txns
    }

    /// Replay the journal as a jbd2-style mount would: walk transactions in
    /// id order, recover each whose log body is fully durable (not torn)
    /// and whose commit record is durable, and stop at the first gap —
    /// later transactions are unreachable behind it even if their own
    /// blocks survived.
    pub fn recover(&self) -> Recovery {
        let mut recovered = Vec::new();
        let mut first_gap = None;
        for (txn, d) in self.digests() {
            let ok = d.has_log && d.log_fully_durable && !d.log_torn && d.commit_durable;
            if ok {
                recovered.push(txn);
            } else {
                first_gap = Some(txn);
                break;
            }
        }
        Recovery {
            recovered,
            first_gap,
        }
    }

    /// Check the ordered-mode guarantees after a crash. `acked` lists the
    /// transactions whose `TxnCommitted` event the stack delivered before
    /// the crash (durability promises made to applications).
    pub fn check(&self, acked: &[TxnId]) -> Vec<ConsistencyViolation> {
        let recovery = self.recover();
        let digests = self.digests();
        let mut violations = Vec::new();

        for &txn in acked {
            if !recovery.contains(txn) {
                violations.push(ConsistencyViolation::AckedTxnLost { txn });
            }
        }

        for (&txn, d) in &digests {
            if recovery.contains(txn) && d.log_torn {
                violations.push(ConsistencyViolation::TornJournalRecovered { txn });
            }
            if !recovery.contains(txn) && d.checkpoint_durable {
                violations.push(ConsistencyViolation::CheckpointWithoutCommit { txn });
            }
        }

        // Ordered-data rule: for every recovered transaction, all data
        // writes of its ordered files submitted before the transaction's
        // log went out must be durable — otherwise replayed metadata
        // describes blocks that never hit the platter.
        for &txn in &recovery.recovered {
            let d = &digests[&txn];
            let Some(&log_seq) = d.log_seqs.iter().min() else {
                continue;
            };
            for &file in &d.ordered {
                let stale = self.writes.iter().any(|w| {
                    w.seq < log_seq
                        && w.step == (WriteStep::Data { file })
                        && !w.state.fully_durable(w.nblocks)
                });
                if stale {
                    violations.push(ConsistencyViolation::StaleData { txn, file });
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(1);
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    /// One ordered-mode protocol round: data → log → commit → checkpoint.
    fn protocol_round(img: &mut DiskImage, txn: TxnId, base_key: u64) {
        img.submit(base_key, WriteStep::Data { file: F }, 4);
        img.submit(
            base_key + 1,
            WriteStep::JournalLog {
                txn,
                ordered: vec![F],
            },
            2,
        );
        img.submit(base_key + 2, WriteStep::CommitRecord { txn }, 1);
        img.submit(base_key + 3, WriteStep::Checkpoint { txn }, 1);
    }

    fn complete_all(img: &mut DiskImage, keys: std::ops::Range<u64>) {
        for k in keys {
            img.complete(k);
        }
    }

    #[test]
    fn full_round_recovers_cleanly() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        complete_all(&mut img, 0..4);
        img.crash(None);
        let r = img.recover();
        assert_eq!(r.recovered, vec![T1]);
        assert_eq!(r.first_gap, None);
        assert!(img.check(&[T1]).is_empty());
    }

    #[test]
    fn crash_before_commit_record_loses_unacked_txn() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        img.complete(0); // data
        img.complete(1); // log
        img.crash(None); // commit record + checkpoint in flight -> lost
        let r = img.recover();
        assert!(r.recovered.is_empty());
        assert_eq!(r.first_gap, Some(T1));
        // Not acked, so losing it is allowed...
        assert!(img.check(&[]).is_empty());
        // ...but losing an *acknowledged* txn is a violation.
        assert_eq!(
            img.check(&[T1]),
            vec![ConsistencyViolation::AckedTxnLost { txn: T1 }]
        );
    }

    #[test]
    fn torn_log_is_not_recovered() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        img.complete(0);
        img.set_state(1, Durability::Torn { durable_blocks: 1 }); // log torn: 1 of 2 blocks durable
        img.complete(2); // commit record durable
        img.crash(None);
        let r = img.recover();
        assert!(r.recovered.is_empty(), "torn log must not replay");
    }

    #[test]
    fn replay_stops_at_first_gap() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        protocol_round(&mut img, T2, 10);
        // T1's commit record lost; T2 fully durable.
        img.complete(0);
        img.complete(1);
        img.set_state(2, Durability::Lost);
        img.complete(3);
        complete_all(&mut img, 10..14);
        img.crash(None);
        let r = img.recover();
        assert!(r.recovered.is_empty(), "T2 is unreachable behind T1's gap");
        assert_eq!(r.first_gap, Some(T1));
    }

    #[test]
    fn lost_ordered_data_is_stale_data() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        img.set_state(0, Durability::Lost); // data never hit the platter
        complete_all(&mut img, 1..4);
        img.crash(None);
        assert_eq!(
            img.check(&[]),
            vec![ConsistencyViolation::StaleData { txn: T1, file: F }]
        );
    }

    #[test]
    fn durable_checkpoint_without_commit_is_flagged() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        img.complete(0);
        img.complete(1);
        img.set_state(2, Durability::Lost); // commit record lost
        img.complete(3); // but checkpoint landed
        img.crash(None);
        assert_eq!(
            img.check(&[]),
            vec![ConsistencyViolation::CheckpointWithoutCommit { txn: T1 }]
        );
    }

    #[test]
    fn crash_tears_in_flight_writes_when_asked() {
        let mut img = DiskImage::new();
        img.submit(0, WriteStep::Data { file: F }, 8);
        img.crash(Some(3));
        assert_eq!(img.writes[0].state, Durability::Torn { durable_blocks: 3 });
        // A torn prefix longer than the write clamps to fully durable.
        let mut img = DiskImage::new();
        img.submit(0, WriteStep::Data { file: F }, 2);
        img.crash(Some(8));
        assert!(img.writes[0].state.fully_durable(2));
    }
}
