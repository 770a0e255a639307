//! Clean-page residency with LRU eviction.
//!
//! Semantically this is an exact page-granular LRU: every resident page
//! has a recency position, touches move a page to the MRU end, eviction
//! removes the LRU page. The representation is extent-compressed: a run
//! of pages filled consecutively (one streaming read) occupies a single
//! list node covering `[start, start+len)`, because consecutive inserts
//! are adjacent in recency order and stay adjacent until an individual
//! page is touched — at which point the run splits. Eviction shrinks the
//! tail run from its oldest page. Every operation therefore does exactly
//! what the per-page LRU would do (property-tested against a naive model
//! below), but a 256-page fill costs one node and a sequential slot-table
//! write instead of 256 list splices.
//!
//! Residency lookup is a direct array index: each file gets a
//! page-indexed slot table (grown lazily to the highest page touched), so
//! the per-page hot path does no hashing. The only hash left is one
//! [`FastMap`] probe per *call* to resolve the file, and the range entry
//! points ([`CleanCache::fill_range`], [`CleanCache::touch_at`]) hoist
//! even that out of page loops. At capacity, fills recycle evicted
//! nodes, so the streaming steady state touches the allocator not at all.

use sim_core::{FastMap, FileId};

/// Sentinel "null" link / empty slot.
const NIL: u32 = u32::MAX;

/// One run of consecutively-filled pages `[start, start+len)` of one
/// file. Within a run, `start` is the oldest page (runs are created by
/// ascending fills); `prev` points toward MRU, `next` toward LRU.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Handle into `files` (index of the owning file's slot table).
    fh: u32,
    start: u64,
    len: u64,
    prev: u32,
    next: u32,
}

/// Per-file residency table: `slots[page]` holds the covering node.
#[derive(Debug, Default)]
struct FileSlots {
    file: FileId,
    slots: Vec<u32>,
}

/// LRU-managed set of resident clean pages.
#[derive(Debug)]
pub(crate) struct CleanCache {
    capacity_pages: u64,
    /// File -> handle into `files`.
    handles: FastMap<FileId, u32>,
    files: Vec<FileSlots>,
    /// Run-node storage; `free` recycles vacated nodes.
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Most-recently-used end of the list.
    head: u32,
    /// Least-recently-used end (eviction victim).
    tail: u32,
    /// Resident pages (sum of node lengths).
    len: u64,
}

impl CleanCache {
    /// Cache holding at most `capacity_pages` pages.
    pub(crate) fn new(capacity_pages: u64) -> Self {
        CleanCache {
            capacity_pages: capacity_pages.max(1),
            handles: FastMap::default(),
            files: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Resolve (or create) the slot-table handle for `file`.
    pub(crate) fn handle(&mut self, file: FileId) -> u32 {
        if let Some(&h) = self.handles.get(&file) {
            return h;
        }
        let h = self.files.len() as u32;
        self.files.push(FileSlots {
            file,
            slots: Vec::new(),
        });
        self.handles.insert(file, h);
        h
    }

    /// Node covering `page`, or `NIL`.
    #[inline]
    fn node_at(&self, fh: u32, page: u64) -> u32 {
        self.files[fh as usize]
            .slots
            .get(page as usize)
            .copied()
            .unwrap_or(NIL)
    }

    /// Point `[start, start+len)` of file `fh` at node `i`.
    fn set_slots(&mut self, fh: u32, start: u64, len: u64, i: u32) {
        let slots = &mut self.files[fh as usize].slots;
        let end = (start + len) as usize;
        if slots.len() < end {
            slots.resize(end, NIL);
        }
        slots[start as usize..end].fill(i);
    }

    /// Unlink node `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Link node `i` at the MRU head.
    fn link_front(&mut self, i: u32) {
        let old = self.head;
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = old;
        if old != NIL {
            self.nodes[old as usize].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    /// Link node `i` immediately MRU-ward of `at` (between `at` and
    /// `at`'s prev).
    fn link_before(&mut self, i: u32, at: u32) {
        let prev = self.nodes[at as usize].prev;
        if prev == NIL {
            self.link_front(i);
            return;
        }
        self.nodes[i as usize].prev = prev;
        self.nodes[i as usize].next = at;
        self.nodes[prev as usize].next = i;
        self.nodes[at as usize].prev = i;
    }

    /// Allocate a node (recycling freed ones).
    fn alloc_node(&mut self, node: Node) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Evict `k` LRU pages (oldest first, shrinking tail runs).
    fn evict_pages(&mut self, mut k: u64) {
        while k > 0 {
            let t = self.tail;
            debug_assert_ne!(t, NIL);
            let Node { fh, start, len, .. } = self.nodes[t as usize];
            if len <= k {
                self.set_slots(fh, start, len, NIL);
                self.unlink(t);
                self.free.push(t);
                self.len -= len;
                k -= len;
            } else {
                self.set_slots(fh, start, k, NIL);
                let n = &mut self.nodes[t as usize];
                n.start += k;
                n.len -= k;
                self.len -= k;
                k = 0;
            }
        }
    }

    /// Move resident page `page` (covered by node `i`) to the MRU head,
    /// splitting its run if it sits in the middle.
    fn touch_node(&mut self, fh: u32, i: u32, page: u64) {
        let Node { start, len, .. } = self.nodes[i as usize];
        debug_assert!(page >= start && page < start + len);
        if len == 1 {
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        if page == start {
            // Oldest page of the run: run keeps [start+1, end).
            self.nodes[i as usize].start += 1;
            self.nodes[i as usize].len -= 1;
        } else if page == start + len - 1 {
            // Newest page: run keeps [start, end-1).
            self.nodes[i as usize].len -= 1;
        } else {
            // Middle: the run keeps its older half [start, page); the
            // newer half [page+1, end) becomes a node just MRU-ward of it
            // (those pages were filled later, so they are adjacent on the
            // recency axis).
            let upper_len = start + len - page - 1;
            self.nodes[i as usize].len = page - start;
            let u = self.alloc_node(Node {
                fh,
                start: page + 1,
                len: upper_len,
                prev: NIL,
                next: NIL,
            });
            self.link_before(u, i);
            self.set_slots(fh, page + 1, upper_len, u);
        }
        let single = self.alloc_node(Node {
            fh,
            start: page,
            len: 1,
            prev: NIL,
            next: NIL,
        });
        self.link_front(single);
        self.set_slots(fh, page, 1, single);
    }

    /// Insert (or refresh) `len` consecutive pages in ascending order,
    /// evicting the least-recently-used pages if over capacity — exactly
    /// as one-page fills in turn would, but one run node per stretch of
    /// non-resident pages.
    pub(crate) fn fill_range(&mut self, file: FileId, page: u64, len: u64) {
        let fh = self.handle(file);
        self.fill_at(fh, page, len);
    }

    /// [`CleanCache::fill_range`] by slot-table handle (from
    /// [`CleanCache::handle`]): no hashing.
    pub(crate) fn fill_at(&mut self, fh: u32, page: u64, len: u64) {
        let end = page + len;
        let mut run_start = None;
        let mut p = page;
        while p < end {
            let i = self.node_at(fh, p);
            if i != NIL {
                if let Some(s) = run_start.take() {
                    self.push_run(fh, s, p - s);
                }
                self.touch_node(fh, i, p);
                p += 1;
            } else {
                if run_start.is_none() {
                    run_start = Some(p);
                }
                // Cross the rest of the non-resident stretch in one slice
                // walk (the common case: a streaming fill of fresh pages).
                p += 1 + self.miss_run_len(fh, p + 1, end - p - 1);
            }
        }
        if let Some(s) = run_start {
            self.push_run(fh, s, end - s);
        }
        if self.len > self.capacity_pages {
            self.evict_pages(self.len - self.capacity_pages);
        }
    }

    /// Place a fresh run `[start, start+len)` at the MRU head.
    fn push_run(&mut self, fh: u32, start: u64, len: u64) {
        let i = self.alloc_node(Node {
            fh,
            start,
            len,
            prev: NIL,
            next: NIL,
        });
        self.link_front(i);
        self.set_slots(fh, start, len, i);
        self.len += len;
    }

    /// Slot-table handle of `file`, if it ever held pages. Lets range
    /// scans pay the file lookup once (see [`CleanCache::touch_at`]).
    pub(crate) fn file_handle(&self, file: FileId) -> Option<u32> {
        self.handles.get(&file).copied()
    }

    /// Length of the non-resident run starting at `page`, capped at `max`
    /// pages: range scans use it to cross a miss stretch in one slice walk
    /// instead of a probe call per page. Read-only — misses don't touch
    /// the LRU, so skipping them wholesale is observationally identical.
    pub(crate) fn miss_run_len(&self, fh: u32, page: u64, max: u64) -> u64 {
        let slots = &self.files[fh as usize].slots;
        let start = page as usize;
        if start >= slots.len() {
            // Past the slot table: nothing there was ever resident.
            return max;
        }
        let end = slots.len().min(start + max as usize);
        for (n, &s) in slots[start..end].iter().enumerate() {
            if s != NIL {
                return n as u64;
            }
        }
        // Ran off the end of the table; the stretch beyond it is all miss.
        max
    }

    /// If `page` is resident, refresh its recency and return true (`fh`
    /// from [`CleanCache::file_handle`]: no hashing).
    pub(crate) fn touch_at(&mut self, fh: u32, page: u64) -> bool {
        let i = self.node_at(fh, page);
        if i == NIL {
            return false;
        }
        self.touch_node(fh, i, page);
        true
    }

    /// Drop all pages of `file`. The slot table is kept (cleared) so a
    /// later re-fill reuses its capacity.
    pub(crate) fn remove_file(&mut self, file: FileId) {
        let Some(&fh) = self.handles.get(&file) else {
            return;
        };
        // Walk the recency list collecting this file's runs (the list has
        // one entry per run, not per page).
        let mut i = self.head;
        while i != NIL {
            let next = self.nodes[i as usize].next;
            if self.nodes[i as usize].fh == fh {
                self.len -= self.nodes[i as usize].len;
                self.unlink(i);
                self.free.push(i);
            }
            i = next;
        }
        self.files[fh as usize].slots.fill(NIL);
        debug_assert_eq!(self.files[fh as usize].file, file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimRng;

    /// Insert (or refresh) one page.
    fn insert(c: &mut CleanCache, file: FileId, page: u64) {
        c.fill_range(file, page, 1);
    }

    /// If resident, refresh recency and return true.
    fn touch(c: &mut CleanCache, file: FileId, page: u64) -> bool {
        c.file_handle(file).is_some_and(|fh| c.touch_at(fh, page))
    }

    #[test]
    fn insert_and_touch() {
        let mut c = CleanCache::new(4);
        insert(&mut c, FileId(1), 0);
        assert!(touch(&mut c, FileId(1), 0));
        assert!(!touch(&mut c, FileId(1), 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = CleanCache::new(3);
        insert(&mut c, FileId(1), 0);
        insert(&mut c, FileId(1), 1);
        insert(&mut c, FileId(1), 2);
        // Touch page 0 so page 1 becomes the LRU victim.
        touch(&mut c, FileId(1), 0);
        insert(&mut c, FileId(1), 3);
        assert!(touch(&mut c, FileId(1), 0));
        assert!(
            !touch(&mut c, FileId(1), 1),
            "page 1 should have been evicted"
        );
        assert!(touch(&mut c, FileId(1), 2));
        assert!(touch(&mut c, FileId(1), 3));
    }

    #[test]
    fn remove_file_clears_only_that_file() {
        let mut c = CleanCache::new(10);
        insert(&mut c, FileId(1), 0);
        insert(&mut c, FileId(2), 0);
        c.remove_file(FileId(1));
        assert!(!touch(&mut c, FileId(1), 0));
        assert!(touch(&mut c, FileId(2), 0));
        assert_eq!(c.len, 1);
    }

    #[test]
    fn reinsert_refreshes_rather_than_duplicates() {
        let mut c = CleanCache::new(2);
        insert(&mut c, FileId(1), 0);
        insert(&mut c, FileId(1), 0);
        insert(&mut c, FileId(1), 1);
        assert_eq!(c.len, 2);
    }

    #[test]
    fn fill_range_matches_per_page_inserts() {
        let mut a = CleanCache::new(5);
        let mut b = CleanCache::new(5);
        a.fill_range(FileId(1), 10, 8);
        for p in 10..18 {
            insert(&mut b, FileId(1), p);
        }
        for p in 0..20 {
            assert_eq!(
                touch(&mut a, FileId(1), p),
                touch(&mut b, FileId(1), p),
                "page {p}"
            );
        }
        assert_eq!(a.len, b.len);
    }

    #[test]
    fn middle_touch_splits_run_without_losing_pages() {
        let mut c = CleanCache::new(100);
        c.fill_range(FileId(1), 0, 10);
        assert!(touch(&mut c, FileId(1), 5));
        assert_eq!(c.len, 10);
        for p in 0..10 {
            assert!(touch(&mut c, FileId(1), p), "page {p} lost in split");
        }
    }

    #[test]
    fn steady_state_stream_recycles_nodes() {
        let mut c = CleanCache::new(512);
        for chunk in 0..200u64 {
            c.fill_range(FileId(1), chunk * 256, 256);
        }
        assert_eq!(c.len, 512);
        assert!(
            c.nodes.len() < 16,
            "node slab grew past a handful of runs: {}",
            c.nodes.len()
        );
        // The newest two chunks are resident, older ones are gone.
        assert!(touch(&mut c, FileId(1), 199 * 256));
        assert!(!touch(&mut c, FileId(1), 197 * 256));
    }

    /// Exact-LRU reference model: a vector ordered MRU-first.
    #[derive(Default)]
    struct ModelLru {
        cap: usize,
        order: Vec<(FileId, u64)>,
    }

    impl ModelLru {
        fn insert(&mut self, file: FileId, page: u64) {
            if let Some(pos) = self.order.iter().position(|&k| k == (file, page)) {
                self.order.remove(pos);
            } else if self.order.len() >= self.cap {
                self.order.pop();
            }
            self.order.insert(0, (file, page));
        }

        fn touch(&mut self, file: FileId, page: u64) -> bool {
            match self.order.iter().position(|&k| k == (file, page)) {
                Some(pos) => {
                    let k = self.order.remove(pos);
                    self.order.insert(0, k);
                    true
                }
                None => false,
            }
        }

        fn remove_file(&mut self, file: FileId) {
            self.order.retain(|&(f, _)| f != file);
        }
    }

    /// The extent-compressed cache must be observationally identical to
    /// the naive page LRU under fuzzed fills, touches, and removals.
    #[test]
    fn differential_against_naive_page_lru() {
        for seed in 0..12u64 {
            let mut rng = SimRng::seed_from_u64(0xc1ea_ca0e ^ seed);
            let cap = 1 + rng.gen_range(96);
            let mut real = CleanCache::new(cap);
            let mut model = ModelLru {
                cap: cap as usize,
                order: Vec::new(),
            };
            for _ in 0..2_000 {
                let file = FileId(1 + rng.gen_range(3));
                let page = rng.gen_range(64);
                match rng.gen_range(10) {
                    0 => {
                        real.remove_file(file);
                        model.remove_file(file);
                    }
                    1..=4 => {
                        let len = 1 + rng.gen_range(24).min(63 - page);
                        real.fill_range(file, page, len);
                        for p in page..page + len {
                            model.insert(file, p);
                        }
                    }
                    5..=7 => {
                        assert_eq!(
                            touch(&mut real, file, page),
                            model.touch(file, page),
                            "touch divergence (seed {seed})"
                        );
                    }
                    _ => {
                        insert(&mut real, file, page);
                        model.insert(file, page);
                    }
                }
                assert_eq!(real.len, model.order.len() as u64, "len (seed {seed})");
            }
            // Final sweep: every key agrees. Probe in model order so the
            // touches themselves cannot cause divergence.
            let final_keys = model.order.clone();
            for (f, p) in final_keys {
                assert!(
                    touch(&mut real, f, p),
                    "page ({f:?},{p}) missing (seed {seed})"
                );
                assert!(model.touch(f, p));
            }
        }
    }
}
