#![warn(missing_docs)]
//! The page cache: dirty buffers with cause tags, a clean-page LRU, dirty
//! thresholds, and the tag-memory accounting behind Figure 10.
//!
//! The cache is pure state — the writeback *daemon* (deciding when to
//! flush) lives in `sim-kernel`, and allocation lives in `sim-fs`. This
//! split mirrors Linux: the page cache knows what is dirty and who dirtied
//! it; policy lives elsewhere.
//!
//! Writes dirty pages through a [`DirtyRun`]: [`PageCache::dirty_run`]
//! resolves the file's dirty entry and clean run index once, then the
//! write goes by *stretches*. [`DirtyRun::stretch`] classifies the longest
//! run of pages whose buffer-dirty events are identical (all fresh, or
//! all overwrites of one dirty span) and returns the [`DirtyEvent`] they
//! share; the kernel hands it to the scheduler as one batched hook
//! message; [`DirtyRun::commit`] dirties as many of those pages as the
//! scheduler consumed, as one range update of the run-length dirty store,
//! and returns a [`DirtiedStretch`] saying what that did, for the
//! kernel's observers.
//! The scheduler consumes fewer only when its hook queues a command,
//! which the kernel then applies before the next page is dirtied.
//! [`DirtyRun::finish`] makes the run's pages resident in one LRU fill.
//! [`PageCache::dirty_page`] has exactly the effects of a one-page run.
//!
//! Dirty pages are stored as spans of pages with one tag and dirty time
//! (see the `dirty` module), so a cached overwrite costs one lookup per
//! stretch, not one per page, and a page whose tag already covers the
//! writer is left untouched. Reads classify a range as dirty, clean or
//! missing one stretch at a time: dirty stretches come from the dirty
//! store's page bitmap, the rest from the clean LRU's residency bitmap
//! (see the `clean` module, indexed by run as the dirty store is by span).
//! Re-touching resident pages — a run's fill, a read's hits — moves each
//! maximal stretch to the LRU head as one node (the clean LRU's range
//! touch), not one node per page.

mod clean;
mod dirty;
mod pagebits;
mod tagmem;

use sim_core::{CauseSet, FileId, SimTime, PAGE_SIZE};

use clean::CleanCache;
pub use dirty::{DirtyEvent, PageRange};
use dirty::{DirtyStore, FileRun, Stretch};
pub use tagmem::TagMem;

/// Page-cache configuration (the knobs of `/proc/sys/vm`).
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total memory modeled, in bytes.
    pub mem_bytes: u64,
    /// Fraction of memory that may be dirty before writers are throttled
    /// (Linux `dirty_ratio`, default 20%).
    pub dirty_ratio: f64,
    /// Fraction at which background writeback starts (Linux
    /// `dirty_background_ratio`, default 10%).
    pub dirty_background_ratio: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            mem_bytes: 1024 * 1024 * 1024,
            dirty_ratio: 0.20,
            dirty_background_ratio: 0.10,
        }
    }
}

impl CacheConfig {
    /// Dirty-throttle threshold in pages.
    pub fn dirty_limit_pages(&self) -> u64 {
        ((self.mem_bytes as f64 * self.dirty_ratio) / PAGE_SIZE as f64) as u64
    }

    /// Background-writeback threshold in pages.
    pub(crate) fn background_pages(&self) -> u64 {
        ((self.mem_bytes as f64 * self.dirty_background_ratio) / PAGE_SIZE as f64) as u64
    }
}

/// The page cache: dirty store + clean LRU + tag accounting.
pub struct PageCache {
    cfg: CacheConfig,
    dirty: DirtyStore,
    clean: CleanCache,
    tagmem: TagMem,
}

impl PageCache {
    /// A cache with the given configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        PageCache {
            cfg,
            dirty: DirtyStore::new(),
            clean: CleanCache::new(cfg.mem_bytes / PAGE_SIZE),
            tagmem: TagMem::new(),
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    // ---- write path -----------------------------------------------------

    /// Start dirtying a run of consecutive pages of `file` on behalf of
    /// `causes`: the file's dirty entry and clean run index are resolved
    /// here, once, instead of once per page. See [`DirtyRun`].
    pub fn dirty_run<'a>(
        &'a mut self,
        file: FileId,
        causes: &'a CauseSet,
        now: SimTime,
    ) -> DirtyRun<'a> {
        let fh = self.clean.handle(file);
        DirtyRun {
            dirty: self.dirty.file_run(file),
            clean: &mut self.clean,
            tagmem: &mut self.tagmem,
            fh,
            causes,
            now,
            first: 0,
            len: 0,
            next: None,
        }
    }

    /// Dirty one page on behalf of `causes`, with exactly the effects of
    /// a one-page [`DirtyRun`]. Returns the event describing what happened
    /// (fresh dirty vs. overwrite) so the kernel can fire the buffer-dirty
    /// hook.
    pub fn dirty_page(
        &mut self,
        file: FileId,
        page: u64,
        causes: &CauseSet,
        now: SimTime,
    ) -> DirtyEvent<'_> {
        let mut run = self.dirty.file_run(file);
        let (st, _) = run.stretch(page, 1, now);
        let ev = run.commit(st, 1, causes, now, &mut self.tagmem);
        self.clean.fill_range(file, page, 1);
        ev
    }

    /// Remove up to `max` dirty pages of `file` starting from its lowest
    /// dirty page, returning contiguous ranges with their merged causes.
    /// Called by the writeback/fsync path as pages are submitted to the
    /// block layer; the pages stay readable (clean) afterwards.
    pub fn take_dirty_ranges(&mut self, file: FileId, max: u64) -> Vec<PageRange> {
        self.dirty.take_ranges(file, max, &mut self.tagmem)
    }

    /// All dirty pages of `file` (for fsync cost estimation).
    pub fn dirty_pages_of(&self, file: FileId) -> u64 {
        self.dirty.pages_of(file)
    }

    /// Drop every page of `file` (deletion / truncate). Returns the dirty
    /// ranges whose writeback was avoided, for the buffer-free hooks.
    pub fn free_file(&mut self, file: FileId) -> Vec<PageRange> {
        self.clean.remove_file(file);
        self.dirty.free_file(file, &mut self.tagmem)
    }

    // ---- read path ------------------------------------------------------

    /// Check residency of `[page, page+len)`; returns the sub-ranges that
    /// MISS (must be read from disk). Clean hits touch the LRU.
    pub fn read_misses(&mut self, file: FileId, page: u64, len: u64) -> Vec<(u64, u64)> {
        let mut misses = Vec::new();
        self.read_misses_into(file, page, len, &mut misses);
        misses
    }

    /// [`PageCache::read_misses`] into a caller-owned buffer (cleared
    /// first), so the per-syscall read path can reuse one allocation.
    pub fn read_misses_into(
        &mut self,
        file: FileId,
        page: u64,
        len: u64,
        misses: &mut Vec<(u64, u64)>,
    ) {
        misses.clear();
        // Resolve both per-file structures once, then walk the range one
        // stretch at a time: dirty stretches (hits that leave the clean
        // LRU alone) come from the dirty store, and between them each
        // maximal run of resident clean pages is touched as one range,
        // while each run of the rest is a miss.
        let dirty = self.dirty.file_view(file);
        let fh = self.clean.file_handle(file);
        let end = page + len;
        let mut p = page;
        while p < end {
            let (a, b) = dirty.dirty_in(p, end);
            while p < a {
                match fh {
                    Some(fh) if self.clean.is_resident(fh, p) => {
                        let q = p + self.clean.run_len(fh, p, a - p, true);
                        self.clean.touch_range(fh, p, q);
                        p = q;
                    }
                    _ => {
                        let n = fh.map_or(a - p, |fh| self.clean.run_len(fh, p, a - p, false));
                        misses.push((p, n));
                        p += n;
                    }
                }
            }
            p = b;
        }
    }

    /// Install pages after a read completes.
    pub fn fill(&mut self, file: FileId, page: u64, len: u64) {
        self.clean.fill_range(file, page, len);
    }

    // ---- thresholds & accounting -----------------------------------------

    /// Total dirty pages.
    pub fn dirty_total(&self) -> u64 {
        self.dirty.total()
    }

    /// Total dirty pages recomputed from the per-file extent maps.
    /// Must always equal [`PageCache::dirty_total`]; auditors compare the
    /// two to catch drift in the incremental counter.
    pub fn dirty_check_sum(&self) -> u64 {
        self.dirty.audit_sum()
    }

    /// Whether background writeback should run.
    pub fn over_background(&self) -> bool {
        self.dirty_total() >= self.cfg.background_pages()
    }

    /// Files with dirty pages, oldest first (writeback order).
    pub fn dirty_files_oldest_first(&mut self) -> Vec<FileId> {
        self.dirty.files_oldest_first()
    }

    /// Tag-memory accounting (Figure 10).
    pub fn tagmem(&self) -> &TagMem {
        &self.tagmem
    }

    /// Sample current tag memory into the running max/avg statistics.
    pub fn sample_tagmem(&mut self) {
        self.tagmem.sample();
    }
}

/// A write's pages being dirtied stretch by stretch, in ascending order,
/// with the per-file lookups paid once (from [`PageCache::dirty_run`]).
///
/// Committing `n` pages has exactly the dirty-store and tag-memory
/// effects of `n` lone [`PageCache::dirty_page`] calls. The pages
/// become resident in the clean LRU at [`DirtyRun::finish`], in one
/// ascending fill, which leaves the LRU exactly as per-page inserts would
/// have: nothing reads the LRU between the pages of a run.
#[must_use = "finish() makes the run's pages resident"]
pub struct DirtyRun<'a> {
    dirty: FileRun<'a>,
    clean: &'a mut CleanCache,
    tagmem: &'a mut TagMem,
    fh: u32,
    causes: &'a CauseSet,
    now: SimTime,
    /// Pages dirtied so far: `[first, first + len)`.
    first: u64,
    len: u64,
    /// The stretch classified last, until it is committed.
    next: Option<Stretch>,
}

impl DirtyRun<'_> {
    /// Classify the pages from `page`, which must follow the run's
    /// previous page (if any) directly: the longest stretch of at most
    /// `max` pages whose buffer-dirty events are identical — all fresh,
    /// or all overwrites of one dirty span. Returns its length and the
    /// event each of its pages gets. Nothing is dirtied until
    /// [`DirtyRun::commit`].
    pub fn stretch(&mut self, page: u64, max: u64) -> (u64, DirtyEvent<'_>) {
        debug_assert!(
            self.len == 0 || page == self.first + self.len,
            "run pages are consecutive"
        );
        let (st, ev) = self.dirty.stretch(page, max, self.now);
        self.next = Some(st);
        (st.len, ev)
    }

    /// Dirty the first `n` pages of the stretch classified last, and say
    /// what that did.
    pub fn commit(&mut self, n: u64) -> DirtiedStretch {
        let st = self.next.take().expect("commit follows stretch");
        if self.len == 0 {
            self.first = st.page;
        }
        self.len += n;
        let dirty_before = self.dirty.total();
        let tag_bytes_before = self.tagmem.live_bytes();
        let fresh = self
            .dirty
            .reborrow()
            .commit(st, n, self.causes, self.now, self.tagmem)
            .prev
            .is_none();
        DirtiedStretch {
            len: n,
            fresh,
            dirty_before,
            tag_bytes_before,
            tag_bytes_after: self.tagmem.live_bytes(),
        }
    }

    /// End the run: its pages become resident for reads.
    pub fn finish(self) {
        if self.len > 0 {
            self.clean.fill_at(self.fh, self.first, self.len);
        }
    }
}

/// What [`DirtyRun::commit`] did to the cache's books: `len` pages, all
/// freshly dirtied or all overwrites, with the dirty-page total and live
/// tag bytes around them. Tag memory moves by the same amount per page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtiedStretch {
    /// Pages committed.
    pub len: u64,
    /// Whether the pages were clean before (else overwrites).
    pub fresh: bool,
    /// Dirty pages in the cache before the stretch.
    pub dirty_before: u64,
    /// Live tag bytes before the stretch.
    pub tag_bytes_before: u64,
    /// Live tag bytes after it.
    pub tag_bytes_after: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Pid;

    fn cache_1mb() -> PageCache {
        PageCache::new(CacheConfig {
            mem_bytes: 1024 * 1024,
            ..Default::default()
        })
    }

    #[test]
    fn dirty_then_take_roundtrip() {
        let mut c = cache_1mb();
        let f = FileId(1);
        let causes = CauseSet::of(Pid(10));
        for p in 0..8 {
            let ev = c.dirty_page(f, p, &causes, SimTime::ZERO);
            assert!(ev.prev.is_none());
            assert_eq!(ev.new_bytes, PAGE_SIZE);
        }
        assert_eq!(c.dirty_total(), 8);
        let ranges = c.take_dirty_ranges(f, 100);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].start_page, 0);
        assert_eq!(ranges[0].len, 8);
        assert!(ranges[0].causes.contains(Pid(10)));
        assert_eq!(c.dirty_total(), 0);
        // Pages remain readable after cleaning.
        assert!(c.read_misses(f, 0, 8).is_empty());
    }

    #[test]
    fn overwrite_reports_previous_causes() {
        let mut c = cache_1mb();
        let f = FileId(1);
        c.dirty_page(f, 3, &CauseSet::of(Pid(1)), SimTime::ZERO);
        let ev = c.dirty_page(f, 3, &CauseSet::of(Pid(2)), SimTime::from_nanos(5));
        assert_eq!(ev.new_bytes, 0, "overwrite dirties no new bytes");
        let prev = ev.prev.expect("overwrite must report previous causes");
        assert!(prev.contains(Pid(1)));
        assert_eq!(c.dirty_total(), 1);
        // Both writers are now responsible.
        let ranges = c.take_dirty_ranges(f, 10);
        assert!(ranges[0].causes.contains(Pid(1)));
        assert!(ranges[0].causes.contains(Pid(2)));
    }

    #[test]
    fn read_miss_tracking() {
        let mut c = cache_1mb();
        let f = FileId(2);
        assert_eq!(c.read_misses(f, 0, 4), vec![(0, 4)]);
        c.fill(f, 0, 4);
        assert!(c.read_misses(f, 0, 4).is_empty());
        // Partial residency yields the missing tail.
        assert_eq!(c.read_misses(f, 2, 4), vec![(4, 2)]);
    }

    #[test]
    fn dirty_thresholds() {
        let mut c = PageCache::new(CacheConfig {
            mem_bytes: 100 * PAGE_SIZE,
            dirty_ratio: 0.20,
            dirty_background_ratio: 0.10,
        });
        let f = FileId(1);
        for p in 0..9 {
            c.dirty_page(f, p, &CauseSet::of(Pid(1)), SimTime::ZERO);
        }
        assert!(!c.over_background());
        c.dirty_page(f, 9, &CauseSet::of(Pid(1)), SimTime::ZERO);
        assert!(c.over_background());
        let limit = c.config().dirty_limit_pages();
        assert!(c.dirty_total() < limit);
        for p in 10..20 {
            c.dirty_page(f, p, &CauseSet::of(Pid(1)), SimTime::ZERO);
        }
        assert!(c.dirty_total() >= limit);
    }

    #[test]
    fn free_file_returns_avoided_writeback() {
        let mut c = cache_1mb();
        let f = FileId(3);
        for p in 0..5 {
            c.dirty_page(f, p, &CauseSet::of(Pid(4)), SimTime::ZERO);
        }
        let freed = c.free_file(f);
        assert_eq!(freed.iter().map(|r| r.len).sum::<u64>(), 5);
        assert_eq!(c.dirty_total(), 0);
        assert_eq!(c.read_misses(f, 0, 5), vec![(0, 5)]);
    }

    #[test]
    fn tagmem_rises_and_falls_with_dirty_tags() {
        let mut c = cache_1mb();
        let f = FileId(1);
        assert_eq!(c.tagmem().live_bytes(), 0);
        for p in 0..16 {
            c.dirty_page(f, p, &CauseSet::of(Pid(1)), SimTime::ZERO);
        }
        let live = c.tagmem().live_bytes();
        assert!(live > 0);
        c.take_dirty_ranges(f, 100);
        assert_eq!(c.tagmem().live_bytes(), 0);
        assert!(c.tagmem().max_bytes() >= live);
    }

    #[test]
    fn lru_evicts_clean_pages_under_pressure() {
        // 16-page cache.
        let mut c = PageCache::new(CacheConfig {
            mem_bytes: 16 * PAGE_SIZE,
            ..Default::default()
        });
        let f = FileId(1);
        c.fill(f, 0, 16);
        assert!(c.read_misses(f, 0, 16).is_empty());
        // Bring in 8 more pages; the oldest 8 must go.
        c.fill(f, 100, 8);
        let misses = c.read_misses(f, 0, 8);
        assert_eq!(misses, vec![(0, 8)]);
    }

    #[test]
    fn writeback_order_is_oldest_file_first() {
        let mut c = cache_1mb();
        c.dirty_page(FileId(2), 0, &CauseSet::of(Pid(1)), SimTime::from_nanos(10));
        c.dirty_page(FileId(1), 0, &CauseSet::of(Pid(1)), SimTime::from_nanos(20));
        assert_eq!(c.dirty_files_oldest_first(), vec![FileId(2), FileId(1)]);
    }
}
