//! Block allocation with per-file reservations, and per-file extent maps.
//!
//! Files get contiguous reservations so their own writeback is sequential;
//! distinct files land in distinct regions, so interleaved flushes seek.
//! `alloc_scattered` scatters the extents of preallocated files to model
//! an aged disk.
//!
//! An [`ExtentMap`] is one `Vec` of runs sorted by first page: a lookup,
//! a range's extents and a range's holes are each a binary search plus a
//! walk over the runs that overlap the range, and a scattered file's map
//! is written in one pass at its exact size.

use sim_core::{BlockNo, FastMap, FileId, SimRng};

/// A contiguous run of blocks backing a run of file pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First file page covered.
    pub page: u64,
    /// First disk block.
    pub start: BlockNo,
    /// Length in blocks (= pages).
    pub len: u64,
}

impl Extent {
    /// One past the last file page covered.
    fn end(&self) -> u64 {
        self.page + self.len
    }
}

/// Bump allocator with per-file reservations.
#[derive(Debug)]
pub struct Allocator {
    next_free: u64,
    capacity: u64,
    reservation_blocks: u64,
    reservations: FastMap<FileId, (u64, u64)>, // (cursor, end)
    rng: SimRng,
}

impl Allocator {
    /// Allocator over `[start, capacity)` with the given per-file
    /// reservation size (in blocks).
    pub fn new(start: u64, capacity: u64, reservation_blocks: u64, seed: u64) -> Self {
        assert!(start < capacity, "allocator range must be non-empty");
        Allocator {
            next_free: start,
            capacity,
            reservation_blocks: reservation_blocks.max(1),
            reservations: FastMap::default(),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Allocate `nblocks` for `file`, continuing its reservation when
    /// possible. Returns the runs granted (usually one; more when a
    /// reservation boundary is crossed).
    pub fn alloc(&mut self, file: FileId, mut nblocks: u64) -> Vec<(BlockNo, u64)> {
        let mut out = Vec::new();
        while nblocks > 0 {
            let (cursor, end) = match self.reservations.get(&file) {
                Some(&(c, e)) if c < e => (c, e),
                _ => {
                    let size = self
                        .reservation_blocks
                        .max(nblocks.min(self.reservation_blocks * 4));
                    let start = self.grab(size);
                    (start, start + size)
                }
            };
            let take = nblocks.min(end - cursor);
            out.push((BlockNo(cursor), take));
            self.reservations.insert(file, (cursor + take, end));
            nblocks -= take;
        }
        out
    }

    /// Allocate a scattered layout for a preallocated (aged) file: extents
    /// of `chunk` blocks (the last one shorter) at pseudo-random positions.
    /// Lazy: each run's blocks and random gap are drawn as it is consumed,
    /// and the iterator's length is exact, so collecting it allocates once.
    pub fn alloc_scattered(
        &mut self,
        nblocks: u64,
        chunk: u64,
    ) -> impl Iterator<Item = (BlockNo, u64)> + '_ {
        let chunk = chunk.max(1);
        (0..nblocks.div_ceil(chunk)).map(move |i| {
            let take = (nblocks - i * chunk).min(chunk);
            // Jump the bump pointer by a random gap to fragment; the gap
            // wraps at the end of the device like any other grab.
            let gap = self.rng.gen_range(self.reservation_blocks * 4) + 1;
            self.grab(gap);
            (BlockNo(self.grab(take)), take)
        })
    }

    /// Allocate one contiguous run (fixtures, journal area).
    pub(crate) fn alloc_contiguous(&mut self, nblocks: u64) -> BlockNo {
        BlockNo(self.grab(nblocks))
    }

    fn grab(&mut self, n: u64) -> u64 {
        if self.next_free + n > self.capacity {
            // Wrap: the simulator never fills a 500 GB disk, but be safe.
            self.next_free = self.capacity / 8;
        }
        let at = self.next_free;
        self.next_free += n;
        at
    }
}

/// Per-file extent map: the file's runs in one `Vec`, sorted by first
/// page, no two sharing a page. Every query is a binary search for the
/// first run it touches, then a walk forward over contiguous memory.
#[derive(Debug, Default, Clone)]
pub struct ExtentMap {
    runs: Vec<Extent>,
}

impl ExtentMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that pages `[page, page+len)` live at `start`. A run with
    /// the same first page as an existing one replaces it; any other
    /// overlap is a caller bug (debug-asserted).
    pub fn insert(&mut self, page: u64, start: BlockNo, len: u64) {
        let run = Extent { page, start, len };
        let i = self.runs.partition_point(|e| e.page < page);
        match self.runs.get_mut(i) {
            Some(e) if e.page == page => *e = run,
            _ => self.runs.insert(i, run),
        }
        debug_assert!(
            i.checked_sub(1).is_none_or(|p| self.runs[p].end() <= page)
                && self.runs.get(i + 1).is_none_or(|n| run.end() <= n.page),
            "run of {len} pages at page {page} overlaps another run"
        );
    }

    /// A file's map with `runs` backing its pages in order from page 0,
    /// written straight into the map in one pass (with the exact capacity
    /// when the iterator knows its length, as `alloc_scattered`'s does).
    pub fn from_runs(runs: impl IntoIterator<Item = (BlockNo, u64)>) -> Self {
        let mut page = 0;
        let runs = runs
            .into_iter()
            .map(|(start, len)| {
                let run = Extent { page, start, len };
                page += len;
                run
            })
            .collect();
        ExtentMap { runs }
    }

    /// Location of one page, if allocated.
    pub fn lookup(&self, page: u64) -> Option<BlockNo> {
        let i = self.runs.partition_point(|e| e.page <= page);
        let e = self.runs[..i].last()?;
        (page < e.end()).then(|| BlockNo(e.start.raw() + (page - e.page)))
    }

    /// The runs that overlap `[page, end)`, in page order: from the first
    /// run ending after `page` (runs are disjoint, so their ends are
    /// sorted too) to the last starting before `end`.
    fn overlapping(&self, page: u64, end: u64) -> impl Iterator<Item = &Extent> {
        let first = self.runs.partition_point(|e| e.end() <= page);
        self.runs[first..].iter().take_while(move |e| e.page < end)
    }

    /// Extents covering `[page, page+len)`, clipped; holes omitted.
    pub fn extents_for(&self, page: u64, len: u64) -> Vec<Extent> {
        let mut out = Vec::new();
        self.extents_for_into(page, len, &mut out);
        out
    }

    /// [`ExtentMap::extents_for`] into a caller-owned buffer (cleared
    /// first), so hot flush loops can reuse one allocation.
    pub(crate) fn extents_for_into(&self, page: u64, len: u64, out: &mut Vec<Extent>) {
        out.clear();
        let end = page + len;
        out.extend(self.overlapping(page, end).map(|e| {
            let from = page.max(e.page);
            Extent {
                page: from,
                start: BlockNo(e.start.raw() + (from - e.page)),
                len: end.min(e.end()) - from,
            }
        }));
    }

    /// The holes of `[page, page+len)` as `(first page, len)`: the
    /// maximal runs of unallocated pages, in page order, found in one
    /// walk over the runs that overlap the range.
    pub(crate) fn holes(&self, page: u64, len: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let end = page + len;
        let mut runs = self.overlapping(page, end);
        let mut at = page;
        std::iter::from_fn(move || {
            while at < end {
                let (from, run) = (at, runs.next());
                let hole_end = run.map_or(end, |e| e.page);
                at = run.map_or(end, Extent::end);
                if from < hole_end {
                    return Some((from, hole_end - from));
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_continues_reservation() {
        let mut a = Allocator::new(1000, 1_000_000, 256, 1);
        let f = FileId(1);
        let r1 = a.alloc(f, 10);
        let r2 = a.alloc(f, 10);
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].0.raw(), r1[0].0.raw() + 10, "append is contiguous");
    }

    #[test]
    fn distinct_files_get_distinct_regions() {
        let mut a = Allocator::new(0, 1_000_000, 256, 1);
        let r1 = a.alloc(FileId(1), 10);
        let r2 = a.alloc(FileId(2), 10);
        assert!(r2[0].0.raw() >= r1[0].0.raw() + 256, "files are separated");
    }

    #[test]
    fn crossing_reservation_yields_multiple_runs() {
        let mut a = Allocator::new(0, 1_000_000, 16, 1);
        let runs = a.alloc(FileId(1), 100);
        assert!(runs.iter().map(|r| r.1).sum::<u64>() == 100);
    }

    #[test]
    fn scattered_layout_fragments() {
        let mut a = Allocator::new(0, 100_000_000, 256, 7);
        let runs: Vec<_> = a.alloc_scattered(1024, 64).collect();
        assert_eq!(runs.iter().map(|r| r.1).sum::<u64>(), 1024);
        assert!(runs.len() >= 16, "got {} runs", runs.len());
        // Runs are not contiguous.
        let contiguous = runs
            .windows(2)
            .filter(|w| w[0].0.raw() + w[0].1 == w[1].0.raw())
            .count();
        assert!(contiguous < runs.len() / 2);
    }

    #[test]
    fn bulk_built_map_answers_like_the_insert_built_one() {
        let mut a = Allocator::new(0, 100_000_000, 256, 7);
        let runs: Vec<_> = a.alloc_scattered(6144, 64).collect();
        let bulk = ExtentMap::from_runs(runs.iter().copied());
        // Straight from the allocator, the map is written at its exact size.
        let direct =
            ExtentMap::from_runs(Allocator::new(0, 100_000_000, 256, 7).alloc_scattered(6144, 64));
        assert_eq!(direct.runs, bulk.runs);
        assert_eq!(direct.runs.capacity(), 6144 / 64);
        let mut inserted = ExtentMap::new();
        let mut page = 0;
        for &(start, len) in &runs {
            inserted.insert(page, start, len);
            page += len;
        }
        assert_eq!(page, 6144);
        for p in 0..=page {
            assert_eq!(bulk.lookup(p), inserted.lookup(p), "page {p}");
            assert_eq!(
                bulk.extents_for(p, 97),
                inserted.extents_for(p, 97),
                "page {p}"
            );
        }
    }

    #[test]
    fn extent_map_lookup_and_clip() {
        let mut m = ExtentMap::new();
        m.insert(0, BlockNo(100), 10);
        m.insert(20, BlockNo(500), 5);
        assert_eq!(m.lookup(0), Some(BlockNo(100)));
        assert_eq!(m.lookup(9), Some(BlockNo(109)));
        assert_eq!(m.lookup(10), None);
        assert_eq!(m.lookup(22), Some(BlockNo(502)));
        let ex = m.extents_for(5, 20);
        assert_eq!(
            ex,
            vec![
                Extent {
                    page: 5,
                    start: BlockNo(105),
                    len: 5
                },
                Extent {
                    page: 20,
                    start: BlockNo(500),
                    len: 5
                },
            ]
        );
        assert_eq!(m.holes(0, 10).count(), 0);
        assert_eq!(m.holes(0, 11).collect::<Vec<_>>(), [(10, 1)]);
        assert_eq!(m.holes(8, 30).collect::<Vec<_>>(), [(10, 10), (25, 13)]);
    }

    #[test]
    fn scattered_runs_near_the_end_of_the_device_stay_distinct() {
        // The bump pointer reaches the end of a 700-block device; the gap
        // used to be clamped there, handing consecutive runs the same
        // blocks.
        for seed in 0..32 {
            let mut a = Allocator::new(0, 700, 16, seed);
            let runs: Vec<_> = a.alloc_scattered(600, 64).collect();
            assert_eq!(runs.iter().map(|r| r.1).sum::<u64>(), 600);
            for &(start, len) in &runs {
                assert!(start.raw() + len <= 700, "seed {seed}: {runs:?}");
            }
            for w in runs.windows(2) {
                let ((a0, al), (b0, bl)) = (w[0], w[1]);
                let apart = a0.raw() + al <= b0.raw() || b0.raw() + bl <= a0.raw();
                assert!(apart, "seed {seed}: {w:?} share blocks");
            }
        }
        // A chunk larger than the device used to underflow.
        let mut a = Allocator::new(0, 100, 16, 1);
        let lens: Vec<u64> = a.alloc_scattered(300, 200).map(|r| r.1).collect();
        assert_eq!(lens, [200, 100]);
    }

    /// Hold `m` to a naive `page -> block` table: every page's lookup,
    /// and the extents and holes of random windows.
    fn check_against_model(m: &ExtentMap, model: &[Option<u64>], rng: &mut SimRng) {
        let at = |p: u64| model.get(p as usize).copied().flatten();
        for p in 0..model.len() as u64 + 8 {
            assert_eq!(m.lookup(p), at(p).map(BlockNo), "page {p}");
        }
        for _ in 0..24 {
            let page = rng.gen_range(model.len() as u64 + 8);
            let len = 1 + rng.gen_range(96);
            // Runs never touch on disk (see the generator), so an extent
            // is a maximal stretch of pages whose blocks count up by one,
            // and a hole a maximal stretch of unmapped pages.
            let (mut extents, mut holes) = (Vec::<Extent>::new(), Vec::<(u64, u64)>::new());
            for p in page..page + len {
                match (at(p), extents.last_mut(), holes.last_mut()) {
                    (Some(b), Some(e), _) if e.page + e.len == p && e.start.raw() + e.len == b => {
                        e.len += 1
                    }
                    (Some(b), ..) => extents.push(Extent {
                        page: p,
                        start: BlockNo(b),
                        len: 1,
                    }),
                    (None, _, Some(h)) if h.0 + h.1 == p => h.1 += 1,
                    (None, ..) => holes.push((p, 1)),
                }
            }
            assert_eq!(m.extents_for(page, len), extents, "[{page}, +{len})");
            assert_eq!(
                m.holes(page, len).collect::<Vec<_>>(),
                holes,
                "[{page}, +{len})"
            );
        }
    }

    /// The naive model: each page's block, and every run's first page
    /// and length.
    struct PageTable {
        blocks: Vec<Option<u64>>,
        runs: Vec<(u64, u64)>,
        next_block: u64,
    }

    impl PageTable {
        /// Map `[page, page+len)` to fresh blocks, at least one past any
        /// handed out, so no two runs are ever contiguous on disk.
        fn put(&mut self, page: u64, len: u64, rng: &mut SimRng) -> BlockNo {
            let b = self.next_block + 1 + rng.gen_range(4);
            self.next_block = b + len;
            for p in page..page + len {
                self.blocks[p as usize] = Some(b + (p - page));
            }
            BlockNo(b)
        }
    }

    #[test]
    fn extent_map_answers_like_a_page_table() {
        const PAGES: u64 = 512;
        for seed in 0..8 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut m = ExtentMap::new();
            let mut t = PageTable {
                blocks: vec![None; PAGES as usize],
                runs: Vec::new(),
                next_block: 1_000,
            };
            for step in 0..300 {
                match rng.gen_range(8) {
                    // Append past the last run, maybe leaving a hole.
                    0..=2 => {
                        let end = t.runs.iter().map(|&(p, l)| p + l).max().unwrap_or(0);
                        let page = end + rng.gen_range(4);
                        let len = (1 + rng.gen_range(32)).min(PAGES.saturating_sub(page));
                        if len > 0 {
                            m.insert(page, t.put(page, len, &mut rng), len);
                            t.runs.push((page, len));
                        }
                    }
                    // Fill part of a hole, out of order.
                    3..=5 => {
                        let page = rng.gen_range(PAGES);
                        let room = (page..PAGES).take_while(|&p| t.blocks[p as usize].is_none());
                        let room = room.count() as u64;
                        if room > 0 {
                            let len = 1 + rng.gen_range(room);
                            m.insert(page, t.put(page, len, &mut rng), len);
                            t.runs.push((page, len));
                        }
                    }
                    // Replace a run by one with the same first page.
                    6 if !t.runs.is_empty() => {
                        let i = rng.gen_range(t.runs.len() as u64) as usize;
                        let (page, old) = t.runs[i];
                        let next = t.runs.iter().map(|&(p, _)| p).filter(|&p| p > page).min();
                        let len = 1 + rng.gen_range(next.unwrap_or(PAGES) - page);
                        t.blocks[page as usize..(page + old) as usize].fill(None);
                        m.insert(page, t.put(page, len, &mut rng), len);
                        t.runs[i] = (page, len);
                    }
                    // Start over from a bulk-built file.
                    _ => {
                        let total = rng.gen_range(PAGES);
                        t.blocks.fill(None);
                        t.runs.clear();
                        let mut built = Vec::new();
                        let mut page = 0;
                        while page < total {
                            let len = (1 + rng.gen_range(48)).min(total - page);
                            built.push((t.put(page, len, &mut rng), len));
                            t.runs.push((page, len));
                            page += len;
                        }
                        m = ExtentMap::from_runs(built);
                    }
                }
                check_against_model(&m, &t.blocks, &mut rng);
                assert_eq!(m.runs.len(), t.runs.len(), "seed {seed} step {step}");
            }
        }
    }
}
