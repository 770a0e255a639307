//! Shadow disk image: one recorded run's writes, and the power cuts
//! replayed from it — journal recovery and the ordered-mode invariant
//! checks.

use std::collections::BTreeMap;
use std::fmt;

use sim_core::{FastMap, FileId, TxnId};

/// The journal-protocol role of one write, annotated by the file system at
/// submission time. A [`DiskImage`] uses it to replay recovery without
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
            ConsistencyViolation::CheckpointWithoutCommit { txn } => {
                write!(f, "txn {txn} checkpointed without a durable commit")
            }
        }
    }
}

/// One transition of the recorded run, in the order it happened.
#[derive(Debug, Clone, Copy)]
enum Rec {
    /// The next write, in submission order, went out.
    Submit,
    /// The write at this submission index reached media.
    Complete(usize),
    /// The stack acknowledged this transaction's commit.
    Ack(TxnId),
}

/// One submitted write.
#[derive(Debug)]
struct WriteRecord {
    step: WriteStep,
    nblocks: u64,
}

/// What a power cut leaves behind ([`DiskImage::cut`]).
#[derive(Debug, Clone)]
pub struct Cut {
    /// Transactions journal replay recovers, in id order. Replay stops at
    /// the first transaction whose log or commit record is not fully
    /// durable, so this is always a prefix of the committed sequence.
    pub recovered: Vec<TxnId>,
    /// Transactions whose commit the stack acknowledged before the cut
    /// (durability promises made to applications).
    pub acked: Vec<TxnId>,
    /// Ordered-mode guarantees the recovered image breaks (empty = pass).
    pub violations: Vec<ConsistencyViolation>,
}

/// Per-transaction digest of the writes that survived a cut.
#[derive(Debug, Default)]
struct TxnDigest {
    /// Submission index of the first log-body write.
    log_first: Option<usize>,
    /// Some log-body write is not fully durable.
    log_torn: bool,
    commit_durable: bool,
    checkpoint_durable: bool,
    ordered: Vec<FileId>,
}

/// A recording of one run's write protocol: every write submitted with
/// its protocol role, every completion and every acknowledged commit, in
/// order. The image never talks to the simulation — a subscriber feeds it
/// — and it holds no durable state of its own: [`DiskImage::cut`] replays
/// a prefix of the recording, so one run gives every cut point.
#[derive(Debug, Default)]
pub struct DiskImage {
    writes: Vec<WriteRecord>,
    by_key: FastMap<u64, usize>,
    tape: Vec<Rec>,
}

impl DiskImage {
    /// An empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a submitted write. `key` (an `IoToken` or `RequestId` raw)
    /// must be unique per write.
    pub fn submit(&mut self, key: u64, step: WriteStep, nblocks: u64) {
        let prev = self.by_key.insert(key, self.writes.len());
        debug_assert!(prev.is_none(), "duplicate disk-image key {key}");
        self.writes.push(WriteRecord { step, nblocks });
        self.tape.push(Rec::Submit);
    }

    /// Record that write `key` fully reached media. A key never submitted
    /// (a read) is ignored.
    pub fn complete(&mut self, key: u64) {
        if let Some(&idx) = self.by_key.get(&key) {
            self.tape.push(Rec::Complete(idx));
        }
    }

    /// Record that the stack reported `txn` committed.
    pub fn ack(&mut self, txn: TxnId) {
        self.tape.push(Rec::Ack(txn));
    }

    /// Completions recorded; the cut points are `0..=completions()`.
    pub fn completions(&self) -> usize {
        self.tape
            .iter()
            .filter(|r| matches!(r, Rec::Complete(_)))
            .count()
    }

    /// Durable blocks of every write submitted before a power cut just
    /// ahead of completion `k + 1`, and the acks made by then. A write in
    /// flight at the cut is lost, or — when `torn_prefix` is given — torn
    /// to `min(torn_prefix, nblocks)` durable blocks.
    fn replay(&self, k: usize, torn_prefix: Option<u64>) -> (Vec<u64>, Vec<TxnId>) {
        let mut landed: Vec<bool> = Vec::new();
        let mut acked = Vec::new();
        let mut done = 0;
        for &rec in &self.tape {
            match rec {
                Rec::Submit => landed.push(false),
                Rec::Complete(_) if done == k => break,
                Rec::Complete(idx) => {
                    landed[idx] = true;
                    done += 1;
                }
                Rec::Ack(txn) => acked.push(txn),
            }
        }
        let durable = landed
            .iter()
            .zip(&self.writes)
            .map(|(&landed, w)| match (landed, torn_prefix) {
                (true, _) => w.nblocks,
                (false, Some(p)) => p.min(w.nblocks),
                (false, None) => 0,
            })
            .collect();
        (durable, acked)
    }

    /// Cut power just before completion `k + 1` (so `cut(0, ..)` is a cut
    /// before anything landed), replay the journal as a jbd2-style mount
    /// would and check the ordered-mode guarantees against the commits
    /// acknowledged by then.
    ///
    /// Replay walks transactions in id order, recovers each whose log
    /// body is fully durable (never a torn one) and whose commit record
    /// is durable, and stops at the first gap — later transactions are
    /// unreachable behind it even if their own blocks survived.
    pub fn cut(&self, k: usize, torn_prefix: Option<u64>) -> Cut {
        let (durable, acked) = self.replay(k, torn_prefix);
        let landed = |i: usize| durable[i] >= self.writes[i].nblocks;
        let mut txns: BTreeMap<TxnId, TxnDigest> = BTreeMap::new();
        for (i, w) in self.writes[..durable.len()].iter().enumerate() {
            match &w.step {
                WriteStep::JournalLog { txn, ordered } => {
                    let d = txns.entry(*txn).or_default();
                    d.log_first.get_or_insert(i);
                    d.log_torn |= !landed(i);
                    for f in ordered {
                        if !d.ordered.contains(f) {
                            d.ordered.push(*f);
                        }
                    }
                }
                WriteStep::CommitRecord { txn } => {
                    txns.entry(*txn).or_default().commit_durable |= landed(i);
                }
                WriteStep::Checkpoint { txn } => {
                    txns.entry(*txn).or_default().checkpoint_durable |= landed(i);
                }
                WriteStep::Data { .. } | WriteStep::Untracked => {}
            }
        }
        let recovered: Vec<TxnId> = txns
            .iter()
            .take_while(|(_, d)| d.log_first.is_some() && !d.log_torn && d.commit_durable)
            .map(|(&txn, _)| txn)
            .collect();

        let mut violations: Vec<ConsistencyViolation> = acked
            .iter()
            .filter(|txn| !recovered.contains(txn))
            .map(|&txn| ConsistencyViolation::AckedTxnLost { txn })
            .collect();
        for (&txn, d) in &txns {
            if !recovered.contains(&txn) {
                if d.checkpoint_durable {
                    violations.push(ConsistencyViolation::CheckpointWithoutCommit { txn });
                }
                continue;
            }
            // Ordered-data rule: every data write of an ordered file
            // submitted before the transaction's log went out must be
            // durable — otherwise replayed metadata describes blocks that
            // never hit the platter.
            let log_first = d.log_first.unwrap_or(0);
            for &file in &d.ordered {
                let stale = (0..log_first)
                    .any(|i| self.writes[i].step == (WriteStep::Data { file }) && !landed(i));
                if stale {
                    violations.push(ConsistencyViolation::StaleData { txn, file });
                }
            }
        }
        Cut {
            recovered,
            acked,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(1);
    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    /// Submit one ordered-mode protocol round: data → log → commit →
    /// checkpoint, keyed `base_key..base_key + 4`.
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

    /// Record completions of `keys`, in order.
    fn complete(img: &mut DiskImage, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            img.complete(k);
        }
    }

    #[test]
    fn full_round_recovers_cleanly() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        complete(&mut img, 0..4);
        img.ack(T1);
        assert_eq!(img.completions(), 4);
        let cut = img.cut(4, None);
        assert_eq!(cut.recovered, vec![T1]);
        assert_eq!(cut.acked, vec![T1]);
        assert!(cut.violations.is_empty());
    }

    #[test]
    fn crash_before_commit_record_loses_unacked_txn() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        complete(&mut img, [0, 1]); // data, log
        img.ack(T1); // a (wrongly) early ack, before the commit record lands
        complete(&mut img, [2, 3]);
        // Cut before the commit record: it and the checkpoint are lost.
        let cut = img.cut(2, None);
        assert!(cut.recovered.is_empty());
        // Losing an *acknowledged* txn is a violation...
        assert_eq!(
            cut.violations,
            vec![ConsistencyViolation::AckedTxnLost { txn: T1 }]
        );
        // ...but a cut before the ack, losing it, is allowed.
        let cut = img.cut(1, None);
        assert!(cut.recovered.is_empty() && cut.acked.is_empty());
        assert!(cut.violations.is_empty());
    }

    #[test]
    fn torn_log_is_not_recovered() {
        let mut img = DiskImage::new();
        img.submit(0, WriteStep::Data { file: F }, 4);
        img.submit(
            1,
            WriteStep::JournalLog {
                txn: T1,
                ordered: vec![F],
            },
            2,
        );
        img.submit(2, WriteStep::CommitRecord { txn: T1 }, 1);
        complete(&mut img, [0, 2, 1]); // data, commit record, then the log
                                       // Cut with the log in flight, torn to 1 of its 2 blocks.
        let cut = img.cut(2, Some(1));
        assert!(cut.recovered.is_empty(), "torn log must not replay");
        assert_eq!(img.cut(3, Some(1)).recovered, vec![T1]);
    }

    #[test]
    fn replay_stops_at_first_gap() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        protocol_round(&mut img, T2, 10);
        // T2 lands fully; T1's commit record is still in flight.
        complete(&mut img, [0, 1, 3]);
        complete(&mut img, 10..14);
        complete(&mut img, [2]);
        let cut = img.cut(7, None);
        assert!(
            cut.recovered.is_empty(),
            "T2 is unreachable behind T1's gap"
        );
        assert_eq!(img.cut(8, None).recovered, vec![T1, T2]);
    }

    #[test]
    fn lost_ordered_data_is_stale_data() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        complete(&mut img, 1..4);
        // Cut with the data still in flight: it never hits the platter.
        assert_eq!(
            img.cut(3, None).violations,
            vec![ConsistencyViolation::StaleData { txn: T1, file: F }]
        );
    }

    #[test]
    fn durable_checkpoint_without_commit_is_flagged() {
        let mut img = DiskImage::new();
        protocol_round(&mut img, T1, 0);
        complete(&mut img, [0, 1, 3]); // the checkpoint lands...
        complete(&mut img, [2]); // ...before the commit record
        assert_eq!(
            img.cut(3, None).violations,
            vec![ConsistencyViolation::CheckpointWithoutCommit { txn: T1 }]
        );
    }

    #[test]
    fn cut_tears_in_flight_writes_when_asked() {
        let mut img = DiskImage::new();
        img.submit(0, WriteStep::Data { file: F }, 8);
        img.submit(1, WriteStep::Data { file: F }, 2);
        assert_eq!(img.replay(0, None).0, vec![0, 0]);
        // A torn prefix longer than the write clamps to fully durable.
        assert_eq!(img.replay(0, Some(3)).0, vec![3, 2]);
    }

    #[test]
    fn cut_sees_only_what_was_recorded_before_it() {
        let mut img = DiskImage::new();
        img.submit(0, WriteStep::Data { file: F }, 4);
        img.complete(0);
        img.complete(99); // a read: not a write the image tracks
        img.submit(1, WriteStep::Data { file: F }, 4);
        img.ack(T1);
        assert_eq!(img.completions(), 1);
        let (durable, acked) = img.replay(0, None);
        assert_eq!((durable, acked), (vec![0], vec![]));
        let (durable, acked) = img.replay(1, None);
        assert_eq!((durable, acked), (vec![4, 0], vec![T1]));
    }
}
