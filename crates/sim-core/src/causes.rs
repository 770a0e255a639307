//! Cause sets — the cross-layer tags at the heart of split-level
//! scheduling (§3.1 of the paper).
//!
//! A `CauseSet` records *which processes are responsible* for a piece of
//! I/O work. Because metadata is shared and I/O is batched, a single dirty
//! buffer or block request may have several causes, so the tag is a set of
//! pids rather than a scalar. Proxy tasks (writeback, journal) carry a
//! cause set describing the processes they are working for; I/O they
//! produce inherits that set instead of the proxy's own pid.
//!
//! The representation is a small sorted set with *inline* storage: cause
//! sets in practice hold a handful of pids, and the common singleton
//! ({the writer}) and two-or-three-way shapes fit entirely in the struct,
//! so the simulator's hot paths — one tag per dirtied page, per block
//! request, per journal join — construct, clone and union tags without
//! touching the heap. Larger sets spill to a sorted `Vec`. The live-byte
//! accounting used by the Figure 10 experiment counts `heap_bytes()` of
//! every allocated tag: the modeled kmalloc cost of the pid array
//! (inline sets model `len * size_of::<Pid>()`, spilled sets report their
//! real vector capacity).

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::ids::Pid;

/// Pids stored without heap allocation; covers the overwhelming majority
/// of tags (writer, writer+proxy-resolved peer, small entanglements).
const INLINE: usize = 3;

/// Sentinel for "the set lives in `spill`".
const SPILLED: u8 = u8::MAX;

/// A set of processes responsible for an I/O operation.
#[derive(Clone)]
pub struct CauseSet {
    // Sorted, deduplicated — either `inline[..ilen]` or, when
    // `ilen == SPILLED`, the `spill` vector.
    ilen: u8,
    inline: [Pid; INLINE],
    spill: Vec<Pid>,
}

impl Default for CauseSet {
    fn default() -> Self {
        CauseSet {
            ilen: 0,
            inline: [Pid(0); INLINE],
            spill: Vec::new(),
        }
    }
}

impl CauseSet {
    /// The empty set (no known cause).
    pub fn empty() -> Self {
        CauseSet::default()
    }

    /// A singleton set. Never allocates.
    #[inline]
    pub fn of(pid: Pid) -> Self {
        let mut s = CauseSet::default();
        s.inline[0] = pid;
        s.ilen = 1;
        s
    }

    /// Build from arbitrary pids (deduplicated).
    pub fn from_pids<I: IntoIterator<Item = Pid>>(iter: I) -> Self {
        let mut pids: Vec<Pid> = iter.into_iter().collect();
        pids.sort_unstable();
        pids.dedup();
        Self::from_sorted_vec(pids)
    }

    /// Take ownership of an already sorted + deduplicated vector.
    fn from_sorted_vec(pids: Vec<Pid>) -> Self {
        if pids.len() <= INLINE {
            let mut s = CauseSet::default();
            s.inline[..pids.len()].copy_from_slice(&pids);
            s.ilen = pids.len() as u8;
            s
        } else {
            CauseSet {
                ilen: SPILLED,
                inline: [Pid(0); INLINE],
                spill: pids,
            }
        }
    }

    /// The pids, sorted ascending.
    #[inline]
    pub fn as_slice(&self) -> &[Pid] {
        if self.ilen == SPILLED {
            &self.spill
        } else {
            &self.inline[..self.ilen as usize]
        }
    }

    /// Number of distinct causes.
    #[inline]
    pub fn len(&self) -> usize {
        if self.ilen == SPILLED {
            self.spill.len()
        } else {
            self.ilen as usize
        }
    }

    /// Whether no cause is recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `pid` is one of the causes.
    #[inline]
    pub fn contains(&self, pid: Pid) -> bool {
        self.as_slice().binary_search(&pid).is_ok()
    }

    /// Iterate over the causes in ascending pid order.
    pub fn iter(&self) -> impl Iterator<Item = Pid> + '_ {
        self.as_slice().iter().copied()
    }

    /// Whether every pid of `other` is already in `self`, i.e. whether
    /// `self.union_with(other)` would change nothing.
    pub fn is_superset_of(&self, other: &CauseSet) -> bool {
        let a = self.as_slice();
        let b = other.as_slice();
        if b.len() > a.len() {
            return false;
        }
        // Both sorted: single merge scan.
        let mut i = 0;
        for &p in b {
            while i < a.len() && a[i] < p {
                i += 1;
            }
            if i >= a.len() || a[i] != p {
                return false;
            }
        }
        true
    }

    /// In-place union with another set. Allocation-free whenever `other`
    /// is already contained in `self` (the common re-dirty / re-join
    /// case) or the merged set still fits inline.
    pub fn union_with(&mut self, other: &CauseSet) {
        if other.is_empty() || self.is_superset_of(other) {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let a = self.as_slice();
        let b = other.as_slice();
        if a.len() + b.len() <= 2 * INLINE {
            // Small merge: build on the stack, then store.
            let mut buf = [Pid(0); 2 * INLINE];
            let n = merge_into(a, b, &mut buf);
            if n <= INLINE {
                self.inline[..n].copy_from_slice(&buf[..n]);
                self.ilen = n as u8;
                self.spill = Vec::new();
            } else {
                let mut v = Vec::with_capacity(a.len() + b.len());
                v.extend_from_slice(&buf[..n]);
                self.spill = v;
                self.ilen = SPILLED;
            }
            return;
        }
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.spill = merged;
        self.ilen = SPILLED;
    }

    /// Union, by value.
    pub fn union(mut self, other: &CauseSet) -> CauseSet {
        self.union_with(other);
        self
    }

    /// Heap bytes consumed by this tag — what the paper's Figure 10
    /// instruments via kmalloc/kfree. Inline sets model the kmalloc a
    /// kernel implementation would make for the pid array
    /// (`len * size_of::<Pid>()`); spilled sets report their vector's
    /// actual capacity.
    pub fn heap_bytes(&self) -> usize {
        if self.ilen == SPILLED {
            self.spill.capacity() * std::mem::size_of::<Pid>()
        } else {
            self.ilen as usize * std::mem::size_of::<Pid>()
        }
    }

    /// One cause's even share of `cost`.
    pub fn share(&self, cost: f64) -> f64 {
        cost / self.len().max(1) as f64
    }

    /// Split a unit of cost evenly among the causes; returns
    /// `(pid, share)` pairs, each share [`CauseSet::share`]. An empty set
    /// yields nothing.
    pub fn shares(&self, cost: f64) -> impl Iterator<Item = (Pid, f64)> + '_ {
        let share = self.share(cost);
        self.as_slice().iter().map(move |&p| (p, share))
    }
}

/// Merge two sorted, deduplicated slices into `out`; returns the merged
/// length. `out` must have room for `a.len() + b.len()`.
fn merge_into(a: &[Pid], b: &[Pid], out: &mut [Pid]) -> usize {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out[k] = a[i];
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out[k] = b[j];
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out[k] = a[i];
                i += 1;
                j += 1;
            }
        }
        k += 1;
    }
    while i < a.len() {
        out[k] = a[i];
        i += 1;
        k += 1;
    }
    while j < b.len() {
        out[k] = b[j];
        j += 1;
        k += 1;
    }
    k
}

impl PartialEq for CauseSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CauseSet {}

impl Hash for CauseSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for CauseSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "causes{:?}",
            self.iter().map(|p| p.0).collect::<Vec<_>>()
        )
    }
}

impl FromIterator<Pid> for CauseSet {
    fn from_iter<I: IntoIterator<Item = Pid>>(iter: I) -> Self {
        CauseSet::from_pids(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        let e = CauseSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let s = CauseSet::of(Pid(7));
        assert!(s.contains(Pid(7)));
        assert!(!s.contains(Pid(8)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_merges_without_duplicates() {
        let a = CauseSet::from_pids([Pid(1), Pid(3), Pid(5)]);
        let b = CauseSet::from_pids([Pid(2), Pid(3), Pid(6)]);
        let u = a.union(&b);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            vec![Pid(1), Pid(2), Pid(3), Pid(5), Pid(6)]
        );
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = CauseSet::from_pids([Pid(1), Pid(2)]);
        assert_eq!(a.clone().union(&CauseSet::empty()), a);
        assert_eq!(CauseSet::empty().union(&a), a);
    }

    #[test]
    fn union_with_subset_is_identity_without_reallocation() {
        let mut a = CauseSet::from_pids([Pid(1), Pid(2), Pid(3)]);
        let before = a.heap_bytes();
        a.union_with(&CauseSet::of(Pid(2)));
        assert_eq!(a.len(), 3);
        assert_eq!(a.heap_bytes(), before);
    }

    #[test]
    fn union_across_inline_spill_boundary() {
        // 2 + 2 distinct = 4 > INLINE: must spill correctly.
        let a = CauseSet::from_pids([Pid(1), Pid(3)]);
        let b = CauseSet::from_pids([Pid(2), Pid(4)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 4);
        assert_eq!(u.iter().map(|p| p.0).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        // Spilled ∪ inline and inline ∪ spilled agree.
        let big = CauseSet::from_pids((10..20).map(Pid));
        let small = CauseSet::of(Pid(1));
        assert_eq!(big.clone().union(&small), small.clone().union(&big),);
    }

    #[test]
    fn shares_split_evenly() {
        let s = CauseSet::from_pids([Pid(1), Pid(2), Pid(4), Pid(8)]);
        let shares: Vec<_> = s.shares(8.0).collect();
        assert_eq!(shares.len(), 4);
        for (_, v) in shares {
            assert!((v - 2.0).abs() < 1e-12);
        }
        assert_eq!(CauseSet::empty().shares(8.0).count(), 0);
    }

    #[test]
    fn heap_bytes_tracks_capacity() {
        let s = CauseSet::from_pids([Pid(1), Pid(2), Pid(3)]);
        assert!(s.heap_bytes() >= 3 * std::mem::size_of::<Pid>());
        assert_eq!(CauseSet::empty().heap_bytes(), 0);
        // Spilled sets report real vector capacity.
        let big = CauseSet::from_pids((0..10).map(Pid));
        assert!(big.heap_bytes() >= 10 * std::mem::size_of::<Pid>());
    }

    #[test]
    fn eq_and_hash_ignore_representation() {
        use std::collections::hash_map::DefaultHasher;
        let inline = CauseSet::from_pids([Pid(1), Pid(2)]);
        let mut spilled = CauseSet::from_pids((0..8).map(Pid));
        // Shrink the spilled set logically via union from an empty set.
        let mut rebuilt = CauseSet::empty();
        rebuilt.union_with(&inline);
        assert_eq!(inline, rebuilt);
        let h = |s: &CauseSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&inline), h(&rebuilt));
        spilled.union_with(&CauseSet::of(Pid(100)));
        assert!(spilled.contains(Pid(100)));
    }
}
