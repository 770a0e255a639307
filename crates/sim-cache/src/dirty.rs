//! Dirty-page tracking with per-page cause tags.
//!
//! The store is split into two structures per file: an ordered *index* of
//! 64-page occupancy bitmasks (`BTreeMap<chunk, u64>`) and a flat payload
//! map from page to its cause tags. The write burst of a throttling
//! experiment dirties tens of thousands of random pages; keeping the
//! ordered structure down to one 16-byte word per 64-page chunk makes
//! those inserts cheap, while `take_ranges` still walks pages in
//! ascending order straight off the bitmasks.
//!
//! An overwrite costs one payload probe. When the page's tag already
//! covers the writer's causes — every re-dirty after the first in the
//! cached-overwrite regime — nothing changes: the event lends the stored
//! tag as `prev`, with no clone, no union and no tag-memory traffic (a
//! `TagMem` free/alloc of the same size is an exact no-op, since the peak
//! is never below the live total). Otherwise the old tag is copied into
//! the store's one scratch slot, which the event lends instead.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use sim_core::{CauseSet, FastMap, FileId, SimTime, PAGE_SIZE};

use crate::tagmem::TagMem;

/// One dirty page: who is responsible and since when.
#[derive(Debug, Clone)]
struct DirtyPage {
    causes: CauseSet,
    dirtied_at: SimTime,
}

/// Result of dirtying one page, used to build the buffer-dirty hook
/// event. It borrows the cache until the next page is dirtied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyEvent<'a> {
    /// Previous causes if the page was already dirty (an overwrite).
    pub prev: Option<&'a CauseSet>,
    /// Bytes newly dirtied (0 for an overwrite).
    pub new_bytes: u64,
    /// When the page first became dirty.
    pub first_dirtied: SimTime,
}

/// A contiguous run of dirty pages handed to the flush path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRange {
    /// First page index.
    pub start_page: u64,
    /// Number of pages.
    pub len: u64,
    /// Union of the pages' cause sets.
    pub causes: CauseSet,
    /// Earliest dirty time in the range.
    pub oldest: SimTime,
}

impl PageRange {
    /// Bytes covered.
    pub fn bytes(&self) -> u64 {
        self.len * PAGE_SIZE
    }
}

/// Dirty state of one file: bitmask index + per-page tag payload.
#[derive(Debug, Default)]
struct FileDirty {
    /// Chunk index (`page >> 6`) to 64-page occupancy bitmask, ordered so
    /// writeback can take the lowest pages first.
    chunks: BTreeMap<u64, u64>,
    /// Page to cause tags / dirty time.
    pages: FastMap<u64, DirtyPage>,
    /// Earliest `dirtied_at` in `pages` when known; `None` until the next
    /// writeback pass recomputes it (see [`FileDirty::oldest`]).
    oldest: Option<SimTime>,
}

impl FileDirty {
    /// Earliest dirty time of the file's pages (`SimTime::MAX` if none),
    /// rescanning the payload only when a take may have removed it.
    fn oldest(&mut self) -> SimTime {
        *self.oldest.get_or_insert_with(|| {
            self.pages
                .values()
                .map(|d| d.dirtied_at)
                .min()
                .unwrap_or(SimTime::MAX)
        })
    }

    /// Append `[page]`'s payload to `out`, coalescing with the previous
    /// range when contiguous.
    fn pull_into(&mut self, page: u64, tagmem: &mut TagMem, out: &mut Vec<PageRange>) {
        let dp = self.pages.remove(&page).expect("bitmask and payload agree");
        if self.oldest == Some(dp.dirtied_at) {
            self.oldest = None;
        }
        tagmem.free(dp.causes.heap_bytes());
        match out.last_mut() {
            Some(r) if r.start_page + r.len == page => {
                r.len += 1;
                r.causes.union_with(&dp.causes);
                r.oldest = r.oldest.min(dp.dirtied_at);
            }
            _ => out.push(PageRange {
                start_page: page,
                len: 1,
                causes: dp.causes,
                oldest: dp.dirtied_at,
            }),
        }
    }
}

/// Per-file dirty page index.
#[derive(Debug, Default)]
pub(crate) struct DirtyStore {
    files: FastMap<FileId, FileDirty>,
    total: u64,
    /// Where a non-covering overwrite keeps the page's old tag for its
    /// [`DirtyEvent::prev`].
    prev: CauseSet,
}

impl DirtyStore {
    /// Empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Total dirty pages across all files.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Total dirty pages recomputed from the per-file maps, ignoring the
    /// incrementally maintained counter. Auditors cross-check this against
    /// [`DirtyStore::total`]; any divergence means a bookkeeping bug.
    pub(crate) fn audit_sum(&self) -> u64 {
        self.files
            .values()
            .map(|f| {
                let by_mask: u64 = f.chunks.values().map(|m| m.count_ones() as u64).sum();
                debug_assert_eq!(by_mask, f.pages.len() as u64, "index/payload divergence");
                f.pages.len() as u64
            })
            .sum()
    }

    /// Dirty pages of one file.
    pub(crate) fn pages_of(&self, file: FileId) -> u64 {
        self.files
            .get(&file)
            .map(|f| f.pages.len() as u64)
            .unwrap_or(0)
    }

    /// Prefetched per-file probe: resolves the file once, then answers
    /// per-page dirtiness without re-hashing the file id (the read-miss
    /// scan asks about every page of a syscall range). A file with no
    /// dirty pages resolves to nothing, so its probes hash nothing.
    pub(crate) fn file_view(&self, file: FileId) -> DirtyFileView<'_> {
        DirtyFileView {
            file: self.files.get(&file).filter(|f| !f.pages.is_empty()),
        }
    }

    /// Resolve (creating if needed) `file`'s dirty state once, for a run
    /// of [`FileRun::dirty`] calls.
    pub(crate) fn file_run(&mut self, file: FileId) -> FileRun<'_> {
        FileRun {
            file: self.files.entry(file).or_default(),
            total: &mut self.total,
            prev: &mut self.prev,
        }
    }

    /// Remove up to `max` pages of `file`, lowest page first, coalesced
    /// into contiguous ranges.
    pub(crate) fn take_ranges(
        &mut self,
        file: FileId,
        max: u64,
        tagmem: &mut TagMem,
    ) -> Vec<PageRange> {
        let Some(f) = self.files.get_mut(&file) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut left = max;
        while left > 0 {
            let Some((&chunk, &chunk_mask)) = f.chunks.iter().next() else {
                break;
            };
            let mut mask = chunk_mask;
            while mask != 0 && left > 0 {
                let bit = mask.trailing_zeros();
                mask &= !(1u64 << bit);
                left -= 1;
                f.pull_into(chunk * 64 + bit as u64, tagmem, &mut out);
            }
            if mask == 0 {
                f.chunks.remove(&chunk);
            } else {
                // `max` ran out mid-chunk; the leftover bits stay behind.
                *f.chunks.get_mut(&chunk).expect("chunk present") = mask;
            }
        }
        self.total -= max - left;
        if f.pages.is_empty() {
            self.files.remove(&file);
        }
        out
    }

    /// Remove every dirty page of `file`, returning the avoided ranges.
    pub(crate) fn free_file(&mut self, file: FileId, tagmem: &mut TagMem) -> Vec<PageRange> {
        let Some(mut f) = self.files.remove(&file) else {
            return Vec::new();
        };
        self.total -= f.pages.len() as u64;
        let mut out = Vec::new();
        let chunks = std::mem::take(&mut f.chunks);
        for (chunk, mut mask) in chunks {
            while mask != 0 {
                let bit = mask.trailing_zeros();
                mask &= !(1u64 << bit);
                f.pull_into(chunk * 64 + bit as u64, tagmem, &mut out);
            }
        }
        out
    }

    /// Files with dirty pages, ordered by their oldest dirty page.
    pub(crate) fn files_oldest_first(&mut self) -> Vec<FileId> {
        let mut v: Vec<(SimTime, FileId)> = self
            .files
            .iter_mut()
            .map(|(id, f)| (f.oldest(), *id))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, f)| f).collect()
    }
}

/// One file's dirty state, resolved once (see [`DirtyStore::file_run`]).
pub(crate) struct FileRun<'a> {
    file: &'a mut FileDirty,
    total: &'a mut u64,
    prev: &'a mut CauseSet,
}

impl<'a> FileRun<'a> {
    /// Total dirty pages across all files.
    pub(crate) fn total(&self) -> u64 {
        *self.total
    }

    /// The same run, borrowed for one [`FileRun::dirty`] call.
    pub(crate) fn reborrow(&mut self) -> FileRun<'_> {
        FileRun {
            file: &mut *self.file,
            total: &mut *self.total,
            prev: &mut *self.prev,
        }
    }

    /// Mark one page dirty for `causes`.
    pub(crate) fn dirty(
        self,
        page: u64,
        causes: &CauseSet,
        now: SimTime,
        tagmem: &mut TagMem,
    ) -> DirtyEvent<'a> {
        let FileRun { file, total, prev } = self;
        match file.pages.entry(page) {
            Entry::Occupied(e) => {
                let dp = e.into_mut();
                let prev: &CauseSet = if dp.causes.is_superset_of(causes) {
                    &dp.causes
                } else {
                    prev.clone_from(&dp.causes);
                    tagmem.free(dp.causes.heap_bytes());
                    dp.causes.union_with(causes);
                    tagmem.alloc(dp.causes.heap_bytes());
                    prev
                };
                DirtyEvent {
                    prev: Some(prev),
                    new_bytes: 0,
                    first_dirtied: dp.dirtied_at,
                }
            }
            Entry::Vacant(e) => {
                tagmem.alloc(causes.heap_bytes());
                e.insert(DirtyPage {
                    causes: causes.clone(),
                    dirtied_at: now,
                });
                *file.chunks.entry(page >> 6).or_insert(0) |= 1u64 << (page & 63);
                file.oldest = file.oldest.map(|t| t.min(now));
                *total += 1;
                DirtyEvent {
                    prev: None,
                    new_bytes: PAGE_SIZE,
                    first_dirtied: now,
                }
            }
        }
    }
}

/// Read-only dirtiness probe for one file (see [`DirtyStore::file_view`]).
pub(crate) struct DirtyFileView<'a> {
    file: Option<&'a FileDirty>,
}

impl DirtyFileView<'_> {
    /// Whether `page` is dirty.
    #[inline]
    pub(crate) fn contains(&self, page: u64) -> bool {
        self.file.is_some_and(|f| f.pages.contains_key(&page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{Pid, SimRng};

    #[test]
    fn take_ranges_coalesces_contiguous_pages() {
        let mut s = DirtyStore::new();
        let mut tm = TagMem::new();
        let f = FileId(1);
        for p in [0u64, 1, 2, 10, 11, 20] {
            s.file_run(f)
                .dirty(p, &CauseSet::of(Pid(1)), SimTime::ZERO, &mut tm);
        }
        let ranges = s.take_ranges(f, 100, &mut tm);
        let spans: Vec<(u64, u64)> = ranges.iter().map(|r| (r.start_page, r.len)).collect();
        assert_eq!(spans, vec![(0, 3), (10, 2), (20, 1)]);
        assert_eq!(s.total(), 0);
        assert_eq!(tm.live_bytes(), 0);
    }

    #[test]
    fn take_ranges_respects_max() {
        let mut s = DirtyStore::new();
        let mut tm = TagMem::new();
        let f = FileId(1);
        for p in 0..10 {
            s.file_run(f)
                .dirty(p, &CauseSet::of(Pid(1)), SimTime::ZERO, &mut tm);
        }
        let ranges = s.take_ranges(f, 4, &mut tm);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].len, 4);
        assert_eq!(s.pages_of(f), 6);
    }

    #[test]
    fn take_ranges_crosses_chunk_boundaries() {
        let mut s = DirtyStore::new();
        let mut tm = TagMem::new();
        let f = FileId(1);
        // A run spanning the 64-page bitmask seam must come out as one range.
        for p in 60..70 {
            s.file_run(f)
                .dirty(p, &CauseSet::of(Pid(1)), SimTime::ZERO, &mut tm);
        }
        let ranges = s.take_ranges(f, 100, &mut tm);
        let spans: Vec<(u64, u64)> = ranges.iter().map(|r| (r.start_page, r.len)).collect();
        assert_eq!(spans, vec![(60, 10)]);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn range_unions_causes_of_member_pages() {
        let mut s = DirtyStore::new();
        let mut tm = TagMem::new();
        let f = FileId(1);
        s.file_run(f)
            .dirty(0, &CauseSet::of(Pid(1)), SimTime::ZERO, &mut tm);
        s.file_run(f)
            .dirty(1, &CauseSet::of(Pid(2)), SimTime::ZERO, &mut tm);
        let ranges = s.take_ranges(f, 10, &mut tm);
        assert_eq!(ranges.len(), 1);
        assert!(ranges[0].causes.contains(Pid(1)));
        assert!(ranges[0].causes.contains(Pid(2)));
    }

    #[test]
    fn oldest_dirty_time_survives_coalescing() {
        let mut s = DirtyStore::new();
        let mut tm = TagMem::new();
        let f = FileId(1);
        s.file_run(f)
            .dirty(0, &CauseSet::of(Pid(1)), SimTime::from_nanos(50), &mut tm);
        s.file_run(f)
            .dirty(1, &CauseSet::of(Pid(1)), SimTime::from_nanos(10), &mut tm);
        let ranges = s.take_ranges(f, 10, &mut tm);
        assert_eq!(ranges[0].oldest, SimTime::from_nanos(10));
    }

    /// Writeback order from the cached per-file oldest time equals a full
    /// rescan of every page's payload, under random dirties (at random,
    /// not monotone, times), takes and frees.
    #[test]
    fn cached_oldest_matches_a_full_rescan() {
        let rescan = |s: &DirtyStore| {
            let mut v: Vec<(SimTime, FileId)> = s
                .files
                .iter()
                .map(|(id, f)| {
                    let oldest = f.pages.values().map(|d| d.dirtied_at).min();
                    (oldest.unwrap_or(SimTime::MAX), *id)
                })
                .collect();
            v.sort_unstable();
            v.into_iter().map(|(_, f)| f).collect::<Vec<_>>()
        };
        let mut rng = SimRng::seed_from_u64(0x01de57);
        for case in 0..32 {
            let mut s = DirtyStore::new();
            let mut tm = TagMem::new();
            for step in 0..300 {
                let file = FileId(rng.gen_range(4));
                match rng.gen_range(6) {
                    0..=2 => {
                        let now = SimTime::from_nanos(rng.gen_range(1_000));
                        let page = rng.gen_range(64);
                        s.file_run(file)
                            .dirty(page, &CauseSet::of(Pid(1)), now, &mut tm);
                    }
                    3 | 4 => {
                        s.take_ranges(file, 1 + rng.gen_range(8), &mut tm);
                    }
                    _ => {
                        s.free_file(file, &mut tm);
                    }
                }
                assert_eq!(
                    s.files_oldest_first(),
                    rescan(&s),
                    "case {case} step {step}"
                );
            }
        }
    }
}
