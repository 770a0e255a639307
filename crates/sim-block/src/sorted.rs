//! A location-sorted request queue with C-SCAN ("one-way elevator")
//! selection — the building block of CFQ's per-queue ordering and
//! Block-Deadline's sorted lists.

use std::collections::VecDeque;

use sim_core::{BlockNo, RequestId};

use crate::Request;

/// Requests ordered by starting block; pops the next request at or after a
/// sweep position, wrapping to the lowest block when the sweep passes the
/// end (C-SCAN).
///
/// Requests live in a recycled slab; ordering is a deque of slab indices
/// sorted by `(start, id)`. The common traffic shapes — writeback floods
/// whose delayed allocation hands out ascending blocks, and a C-SCAN sweep
/// that drains from the low end — hit the deque's O(1) ends, and the
/// retained capacity means a warmed-up queue allocates nothing.
#[derive(Debug, Default)]
pub struct SortedQueue {
    /// `(start, id, slab index)` sorted ascending — keys are inline so the
    /// binary search never chases into the slab.
    order: VecDeque<(BlockNo, RequestId, u32)>,
    slab: Vec<Option<Request>>,
    free: Vec<u32>,
}

impl SortedQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of the first entry with key `>= key`, in `[0, len]`.
    fn lower_bound(&self, key: (BlockNo, RequestId)) -> usize {
        self.order.partition_point(|&(b, id, _)| (b, id) < key)
    }

    /// Insert a request.
    pub fn insert(&mut self, req: Request) {
        let key = (req.start, req.id);
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(req);
                i
            }
            None => {
                self.slab.push(Some(req));
                // Keep the free list's capacity ahead of the slab: every
                // slab index may eventually be retired through `free.push`,
                // and growing here (insert side, warmup) instead of there
                // (drain side) is what keeps a draining queue
                // allocation-free long after its high-water mark.
                self.free.reserve(self.slab.len() - self.free.len());
                (self.slab.len() - 1) as u32
            }
        };
        let at = self.lower_bound(key);
        self.order.insert(at, (key.0, key.1, i));
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Index into `order` of the next request at or after `pos`, wrapping
    /// around to the lowest block (C-SCAN).
    fn cscan_at(&self, pos: BlockNo) -> Option<usize> {
        if self.order.is_empty() {
            return None;
        }
        let at = self.lower_bound((pos, RequestId(0)));
        Some(if at == self.order.len() { 0 } else { at })
    }

    /// Pop the next request at or after `pos`, wrapping around.
    pub fn pop_cscan(&mut self, pos: BlockNo) -> Option<Request> {
        let at = self.cscan_at(pos)?;
        self.take_at(at)
    }

    /// Remove a specific request by id and start block.
    pub fn remove(&mut self, start: BlockNo, id: RequestId) -> Option<Request> {
        let at = self.lower_bound((start, id));
        match self.order.get(at) {
            Some(&(b, rid, _)) if (b, rid) == (start, id) => self.take_at(at),
            _ => None,
        }
    }

    fn take_at(&mut self, at: usize) -> Option<Request> {
        let (_, _, i) = self.order.remove(at)?;
        self.free.push(i);
        self.slab[i as usize].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{CauseSet, Pid, SimTime};
    use sim_device::IoDir;

    fn req(id: u64, start: u64) -> Request {
        Request {
            id: RequestId(id),
            dir: IoDir::Read,
            start: BlockNo(start),
            nblocks: 1,
            submitter: Pid(1),
            causes: CauseSet::empty(),
            sync: true,
            ioprio: Default::default(),
            deadline: None,
            submitted_at: SimTime::ZERO,
            file: None,
            kind: Default::default(),
        }
    }

    #[test]
    fn cscan_sweeps_forward_then_wraps() {
        let mut q = SortedQueue::new();
        for (id, b) in [(1, 100), (2, 50), (3, 200)] {
            q.insert(req(id, b));
        }
        assert_eq!(q.pop_cscan(BlockNo(60)).unwrap().start, BlockNo(100));
        assert_eq!(q.pop_cscan(BlockNo(101)).unwrap().start, BlockNo(200));
        // Past the end: wraps to the lowest.
        assert_eq!(q.pop_cscan(BlockNo(201)).unwrap().start, BlockNo(50));
        assert!(q.pop_cscan(BlockNo(0)).is_none());
    }

    #[test]
    fn duplicate_start_blocks_coexist() {
        let mut q = SortedQueue::new();
        q.insert(req(1, 100));
        q.insert(req(2, 100));
        assert_eq!(q.len(), 2);
        assert!(q.pop_cscan(BlockNo(0)).is_some());
        assert!(q.pop_cscan(BlockNo(0)).is_some());
        assert!(q.is_empty());
    }
}
