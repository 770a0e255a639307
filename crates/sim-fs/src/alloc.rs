//! Block allocation with per-file reservations.
//!
//! Files get contiguous reservations so their own writeback is sequential;
//! distinct files land in distinct regions, so interleaved flushes seek.
//! A `spread` knob scatters the extents of preallocated files to model an
//! aged disk.

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
    /// of ~`chunk` blocks at pseudo-random positions.
    pub fn alloc_scattered(&mut self, nblocks: u64, chunk: u64) -> Vec<(BlockNo, u64)> {
        let chunk = chunk.max(1);
        let mut out = Vec::new();
        let mut left = nblocks;
        while left > 0 {
            let take = left.min(chunk);
            // Jump the bump pointer by a random gap to fragment.
            let gap = self.rng.gen_range(self.reservation_blocks * 4) + 1;
            self.next_free = (self.next_free + gap).min(self.capacity - take);
            let start = self.grab(take);
            out.push((BlockNo(start), take));
            left -= take;
        }
        out
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

/// Per-file extent map.
#[derive(Debug, Default, Clone)]
pub struct ExtentMap {
    // page -> (start block, len); non-overlapping, keyed by first page.
    runs: std::collections::BTreeMap<u64, (BlockNo, u64)>,
}

impl ExtentMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that pages `[page, page+len)` live at `start`.
    pub fn insert(&mut self, page: u64, start: BlockNo, len: u64) {
        self.runs.insert(page, (start, len));
    }

    /// A file's map with `runs` backing its pages in order from page 0,
    /// built in one pass: the runs arrive sorted by page, so the tree is
    /// bulk-built rather than grown one insert per run.
    pub fn from_runs(runs: impl IntoIterator<Item = (BlockNo, u64)>) -> Self {
        let mut page = 0;
        let runs = runs
            .into_iter()
            .map(|(start, len)| {
                let at = page;
                page += len;
                (at, (start, len))
            })
            .collect();
        ExtentMap { runs }
    }

    /// Location of one page, if allocated.
    pub fn lookup(&self, page: u64) -> Option<BlockNo> {
        let (&p0, &(start, len)) = self.runs.range(..=page).next_back()?;
        if page < p0 + len {
            Some(BlockNo(start.raw() + (page - p0)))
        } else {
            None
        }
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
        // Consider the run that may begin before `page` plus all runs
        // starting inside the window.
        let start_key = self
            .runs
            .range(..=page)
            .next_back()
            .map(|(&k, _)| k)
            .unwrap_or(page);
        for (&p0, &(b0, l0)) in self.runs.range(start_key..end) {
            let run_end = p0 + l0;
            if run_end <= page || p0 >= end {
                continue;
            }
            let from = page.max(p0);
            let to = end.min(run_end);
            out.push(Extent {
                page: from,
                start: BlockNo(b0.raw() + (from - p0)),
                len: to - from,
            });
        }
    }

    /// Whether every page of `[page, page+len)` is allocated.
    pub(crate) fn fully_allocated(&self, page: u64, len: u64) -> bool {
        let end = page + len;
        let start_key = self
            .runs
            .range(..=page)
            .next_back()
            .map(|(&k, _)| k)
            .unwrap_or(page);
        let mut covered = 0;
        for (&p0, &(_, l0)) in self.runs.range(start_key..end) {
            let run_end = p0 + l0;
            if run_end <= page || p0 >= end {
                continue;
            }
            covered += end.min(run_end) - page.max(p0);
        }
        covered == len
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
        let runs = a.alloc_scattered(1024, 64);
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
        let runs = a.alloc_scattered(6144, 64);
        let bulk = ExtentMap::from_runs(runs.iter().copied());
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
        assert!(m.fully_allocated(0, 10));
        assert!(!m.fully_allocated(0, 11));
    }
}
