//! Clean-page residency with LRU eviction.
//!
//! Semantically this is an exact page-granular LRU: every resident page
//! has a recency position, touches move a page to the MRU end, eviction
//! removes the LRU page. The representation is extent-compressed (the
//! variable-size blocks of "Modeling the Linux page cache"): a run of
//! pages filled or touched consecutively, in ascending order, occupies a
//! single list node covering `[start, start+len)`, because those pages
//! are adjacent in recency order. Touching a stretch of resident pages
//! ([`CleanCache::touch_range`]) cuts it out of the nodes that cover it
//! and pushes it as one MRU node; eviction shrinks the tail run from its
//! oldest page. Every operation therefore does exactly what the per-page
//! LRU would do (property-tested against a naive model below), but a
//! 256-page fill or re-touch costs one node instead of 256 list splices.
//!
//! Each file's runs are indexed the way the dirty store indexes its
//! spans: two bitmaps with one bit per page mark which pages are
//! resident and where runs start, and a [`FastMap`] takes a run's first
//! page to its node. Whether a page is resident and where a resident or
//! missing stretch ends are word scans of the first bitmap; the run
//! covering a resident page begins at the nearest start bit at or below
//! it. A fill, touch or eviction changes one map entry per run it
//! creates, cuts or drops and the bits of its pages a word at a time, so
//! a file costs two bits per page of its extent plus one entry per
//! resident run. Resolving the file is one [`FastMap`] probe per *call*,
//! and the range entry points ([`CleanCache::fill_at`],
//! [`CleanCache::touch_range`]) take a resolved handle instead. At
//! capacity, fills recycle evicted nodes, so the streaming steady state
//! touches the allocator not at all.

use sim_core::{FastMap, FileId};

use crate::pagebits::PageBits;

/// Sentinel "null" link.
const NIL: u32 = u32::MAX;

/// One run of consecutively-filled pages `[start, start+len)` of one
/// file. Within a run, `start` is the oldest page (runs are created by
/// ascending fills); `prev` points toward MRU, `next` toward LRU.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Handle into `files` (index of the owning file's run index).
    fh: u32,
    start: u64,
    len: u64,
    prev: u32,
    next: u32,
}

/// One file's resident pages: which are resident, where runs start, and
/// each run's node by its first page.
#[derive(Debug, Default)]
struct FileRuns {
    file: FileId,
    resident: PageBits,
    starts: PageBits,
    runs: FastMap<u64, u32>,
}

impl FileRuns {
    /// Record node `i` as the run starting at `start`.
    fn put(&mut self, start: u64, i: u32) {
        self.starts.set(start, true);
        self.runs.insert(start, i);
    }

    /// Forget the run starting at `start` (its pages stay resident).
    fn drop_start(&mut self, start: u64) {
        self.starts.set(start, false);
        self.runs.remove(&start);
    }
}

/// LRU-managed set of resident clean pages.
#[derive(Debug)]
pub(crate) struct CleanCache {
    capacity_pages: u64,
    /// File -> handle into `files`.
    handles: FastMap<FileId, u32>,
    files: Vec<FileRuns>,
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

    /// Resolve (or create) the run-index handle for `file`.
    pub(crate) fn handle(&mut self, file: FileId) -> u32 {
        if let Some(&h) = self.handles.get(&file) {
            return h;
        }
        let h = self.files.len() as u32;
        self.files.push(FileRuns {
            file,
            ..FileRuns::default()
        });
        self.handles.insert(file, h);
        h
    }

    /// Node of the run covering resident `page` of file `fh`.
    fn node_at(&self, fh: u32, page: u64) -> u32 {
        let f = &self.files[fh as usize];
        debug_assert!(f.resident.get(page), "touch_range over a non-resident page");
        let start = f
            .starts
            .last_at_or_below(page, 0)
            .expect("a resident page lies in a run");
        let i = f.runs[&start];
        debug_assert!(
            page < start + self.nodes[i as usize].len,
            "the run at {start} does not cover page {page}"
        );
        i
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
            let n = len.min(k);
            let f = &mut self.files[fh as usize];
            f.resident.fill(start, start + n, false);
            f.drop_start(start);
            if n == len {
                self.unlink(t);
                self.free.push(t);
            } else {
                f.put(start + n, t);
                let node = &mut self.nodes[t as usize];
                node.start += n;
                node.len -= n;
            }
            self.len -= n;
            k -= n;
        }
    }

    /// Move the resident pages `[a, b)` to the MRU head as one run, as
    /// touching each page in ascending order would. The stretch is cut
    /// out of the nodes covering it; only the two at its ends can keep a
    /// remainder.
    pub(crate) fn touch_range(&mut self, fh: u32, a: u64, b: u64) {
        let mut p = a;
        while p < b {
            let i = self.node_at(fh, p);
            let Node { start, len, .. } = self.nodes[i as usize];
            let end = start + len;
            if (start, end) == (a, b) {
                // The stretch is one whole node already.
                if self.head != i {
                    self.unlink(i);
                    self.link_front(i);
                }
                return;
            }
            let cut = end.min(b);
            let f = &mut self.files[fh as usize];
            if start == p {
                f.drop_start(p);
            }
            match (start < p, cut < end) {
                (true, true) => {
                    // Middle: the node keeps its older part [start, p); the
                    // newer part [cut, end) becomes a node just MRU-ward of
                    // it (those pages were filled later, so they are
                    // adjacent on the recency axis).
                    self.nodes[i as usize].len = p - start;
                    let u = self.alloc_node(Node {
                        fh,
                        start: cut,
                        len: end - cut,
                        prev: NIL,
                        next: NIL,
                    });
                    self.link_before(u, i);
                    self.files[fh as usize].put(cut, u);
                }
                (true, false) => self.nodes[i as usize].len = p - start,
                (false, true) => {
                    f.put(cut, i);
                    let n = &mut self.nodes[i as usize];
                    n.start = cut;
                    n.len = end - cut;
                }
                (false, false) => {
                    self.unlink(i);
                    self.free.push(i);
                }
            }
            p = cut;
        }
        self.len -= b - a;
        self.push_run(fh, a, b - a);
    }

    /// Insert (or refresh) `len` consecutive pages in ascending order,
    /// evicting the least-recently-used pages if over capacity — exactly
    /// as one-page fills in turn would, but one run node per stretch of
    /// non-resident or resident pages.
    pub(crate) fn fill_range(&mut self, file: FileId, page: u64, len: u64) {
        let fh = self.handle(file);
        self.fill_at(fh, page, len);
    }

    /// [`CleanCache::fill_range`] by run-index handle (from
    /// [`CleanCache::handle`]): no hashing of the file. Each stretch of
    /// non-resident pages becomes one new run, each stretch of resident
    /// ones one [`CleanCache::touch_range`].
    pub(crate) fn fill_at(&mut self, fh: u32, page: u64, len: u64) {
        let end = page + len;
        let mut p = page;
        while p < end {
            let missing = self.run_len(fh, p, end - p, false);
            if missing > 0 {
                self.push_run(fh, p, missing);
                p += missing;
            } else {
                let resident = self.run_len(fh, p, end - p, true);
                self.touch_range(fh, p, p + resident);
                p += resident;
            }
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
        let f = &mut self.files[fh as usize];
        f.resident.fill(start, start + len, true);
        f.put(start, i);
        self.len += len;
    }

    /// Run-index handle of `file`, if it ever held pages. Lets range
    /// scans pay the file lookup once.
    pub(crate) fn file_handle(&self, file: FileId) -> Option<u32> {
        self.handles.get(&file).copied()
    }

    /// Whether `page` of file `fh` is resident. Read-only.
    #[inline]
    pub(crate) fn is_resident(&self, fh: u32, page: u64) -> bool {
        self.files[fh as usize].resident.get(page)
    }

    /// Length of the stretch from `page`, capped at `max` pages, whose
    /// pages are all resident (`resident`) or all not: one bitmap scan.
    pub(crate) fn run_len(&self, fh: u32, page: u64, max: u64, resident: bool) -> u64 {
        self.files[fh as usize]
            .resident
            .first_from(page, page + max, !resident)
            - page
    }

    /// Drop all pages of `file`. Its index is kept (emptied) so a later
    /// re-fill reuses its capacity.
    pub(crate) fn remove_file(&mut self, file: FileId) {
        let Some(&fh) = self.handles.get(&file) else {
            return;
        };
        let f = &mut self.files[fh as usize];
        debug_assert_eq!(f.file, file);
        f.resident.0.clear();
        f.starts.0.clear();
        let mut runs = std::mem::take(&mut f.runs);
        for (_, i) in runs.drain() {
            self.len -= self.nodes[i as usize].len;
            self.unlink(i);
            self.free.push(i);
        }
        self.files[fh as usize].runs = runs;
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
        match c.file_handle(file) {
            Some(fh) if c.is_resident(fh, page) => {
                c.touch_range(fh, page, page + 1);
                true
            }
            _ => false,
        }
    }

    impl CleanCache {
        /// Every resident page, most recently used first.
        fn order(&self) -> Vec<(FileId, u64)> {
            let mut out = Vec::new();
            let mut i = self.head;
            while i != NIL {
                let n = self.nodes[i as usize];
                let file = self.files[n.fh as usize].file;
                out.extend((n.start..n.start + n.len).rev().map(|p| (file, p)));
                i = n.next;
            }
            out
        }

        /// Every run node of file `fh`, most recently used first.
        fn nodes_of(&self, fh: u32) -> Vec<u32> {
            let mut out = Vec::new();
            let mut i = self.head;
            while i != NIL {
                if self.nodes[i as usize].fh == fh {
                    out.push(i);
                }
                i = self.nodes[i as usize].next;
            }
            out
        }

        /// Check every file's run index against the recency list: one map
        /// entry per resident node, keyed by its first page; start bits
        /// exactly at the map's keys; resident bits exactly the nodes'
        /// pages.
        fn check_index(&self) {
            for (fh, f) in self.files.iter().enumerate() {
                let nodes = self.nodes_of(fh as u32);
                assert_eq!(f.runs.len(), nodes.len(), "one map entry per node");
                let mut pages = 0;
                for &i in &nodes {
                    let n = self.nodes[i as usize];
                    assert_eq!(f.runs.get(&n.start), Some(&i), "run at {}", n.start);
                    assert_eq!(
                        f.resident.first_from(n.start, n.start + n.len, false),
                        n.start + n.len,
                        "pages of the run at {} resident",
                        n.start
                    );
                    pages += n.len;
                }
                assert_eq!(f.starts.count(), f.runs.len() as u64, "start bits");
                for &start in f.runs.keys() {
                    assert!(f.starts.get(start), "start bit of {start}");
                }
                assert_eq!(f.resident.count(), pages, "resident popcount");
            }
        }
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

    /// A file streamed through at 16 times the capacity keeps no more
    /// index entries than it has resident runs, and two bits per page of
    /// its extent.
    #[test]
    fn stream_index_holds_one_entry_per_resident_run() {
        let cap = 512;
        let mut c = CleanCache::new(cap);
        let fh = c.handle(FileId(1));
        let mut page = 0;
        while page < 16 * cap {
            let len = 1 + (page * 7 + 3) % 64;
            c.fill_at(fh, page, len);
            page += len;
            let runs = c.nodes_of(fh).len();
            assert!(c.files[fh as usize].runs.len() <= runs);
            assert!(runs as u64 <= cap, "{runs} runs for {cap} pages");
            c.check_index();
        }
        assert_eq!(c.len, cap);
        let f = &c.files[fh as usize];
        assert!(f.resident.0.len() as u64 <= page / 64 + 1);
        assert!(f.starts.0.len() as u64 <= page / 64 + 1);
    }

    /// After `remove_file`, re-filling the file behaves as if it had
    /// never held a page: the same recency order, residency answers and
    /// index as a cache that never saw it.
    #[test]
    fn refill_after_remove_file_matches_a_fresh_file() {
        let mut used = CleanCache::new(1_000);
        let mut fresh = CleanCache::new(1_000);
        for p in (0..200).step_by(3) {
            used.fill_range(FileId(1), p, 2);
        }
        let fh = used.handle(FileId(1));
        used.touch_range(fh, 30, 32);
        used.remove_file(FileId(1));
        for c in [&mut used, &mut fresh] {
            c.fill_range(FileId(2), 0, 50);
        }
        let mut rng = SimRng::seed_from_u64(0x5e_f111);
        for _ in 0..300 {
            let page = rng.gen_range(256);
            let len = 1 + rng.gen_range(32);
            for c in [&mut used, &mut fresh] {
                c.fill_range(FileId(1), page, len);
            }
            assert_eq!(used.order(), fresh.order());
            let (a, b) = (used.handle(FileId(1)), fresh.handle(FileId(1)));
            for p in 0..300 {
                assert_eq!(used.is_resident(a, p), fresh.is_resident(b, p), "page {p}");
                assert_eq!(used.run_len(a, p, 40, true), fresh.run_len(b, p, 40, true));
                assert_eq!(
                    used.run_len(a, p, 40, false),
                    fresh.run_len(b, p, 40, false)
                );
            }
            assert_eq!(
                used.files[a as usize].runs.len(),
                fresh.files[b as usize].runs.len()
            );
            used.check_index();
            fresh.check_index();
        }
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
    /// the naive page LRU under fuzzed fills, range touches and removals:
    /// the whole recency order agrees after every step, and the run index
    /// agrees with the recency list. A range touch
    /// covers a random stretch of resident pages, which the model touches
    /// one page at a time.
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
                        let fh = real.handle(file);
                        real.fill_at(fh, page, len);
                        for p in page..page + len {
                            model.insert(file, p);
                        }
                    }
                    5..=7 => {
                        let want = 1 + rng.gen_range(24);
                        let mut end = page;
                        while end < page + want && model.order.contains(&(file, end)) {
                            end += 1;
                        }
                        let fh = real.file_handle(file);
                        for p in page..(end + 1).min(page + want) {
                            assert_eq!(
                                fh.is_some_and(|fh| real.is_resident(fh, p)),
                                p < end,
                                "residency of page {p} (seed {seed})"
                            );
                        }
                        if end > page {
                            real.touch_range(fh.expect("resident"), page, end);
                            for p in page..end {
                                assert!(model.touch(file, p));
                            }
                        }
                    }
                    _ => {
                        insert(&mut real, file, page);
                        model.insert(file, page);
                    }
                }
                assert_eq!(real.len, model.order.len() as u64, "len (seed {seed})");
                assert_eq!(real.order(), model.order, "recency order (seed {seed})");
                real.check_index();
            }
        }
    }
}
