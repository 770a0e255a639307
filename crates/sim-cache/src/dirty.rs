//! Dirty-page tracking with per-page cause tags.
//!
//! The store is split into two structures per file: an ordered *index* of
//! 64-page occupancy bitmasks (`BTreeMap<chunk, u64>`) and a flat payload
//! map from page to its cause tags. The write burst of a throttling
//! experiment dirties tens of thousands of random pages; keeping the
//! ordered structure down to one 16-byte word per 64-page chunk makes
//! those inserts cheap, while `take_ranges` still walks pages in
//! ascending order straight off the bitmasks.

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
/// event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyEvent {
    /// Previous causes if the page was already dirty (an overwrite).
    pub prev: Option<CauseSet>,
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
}

impl FileDirty {
    /// Append `[page]`'s payload to `out`, coalescing with the previous
    /// range when contiguous.
    fn pull_into(&mut self, page: u64, tagmem: &mut TagMem, out: &mut Vec<PageRange>) {
        let dp = self.pages.remove(&page).expect("bitmask and payload agree");
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
    /// scan asks about every page of a syscall range).
    pub(crate) fn file_view(&self, file: FileId) -> DirtyFileView<'_> {
        DirtyFileView {
            file: self.files.get(&file),
        }
    }

    /// Resolve (creating if needed) `file`'s dirty state once, for a run
    /// of [`FileRun::dirty`] calls.
    pub(crate) fn file_run(&mut self, file: FileId) -> FileRun<'_> {
        FileRun {
            file: self.files.entry(file).or_default(),
            total: &mut self.total,
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
    pub(crate) fn files_oldest_first(&self) -> Vec<FileId> {
        let mut v: Vec<(SimTime, FileId)> = self
            .files
            .iter()
            .map(|(id, f)| {
                let oldest = f
                    .pages
                    .values()
                    .map(|d| d.dirtied_at)
                    .min()
                    .unwrap_or(SimTime::MAX);
                (oldest, *id)
            })
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, f)| f).collect()
    }
}

/// One file's dirty state, resolved once (see [`DirtyStore::file_run`]).
pub(crate) struct FileRun<'a> {
    file: &'a mut FileDirty,
    total: &'a mut u64,
}

impl FileRun<'_> {
    /// Total dirty pages across all files.
    pub(crate) fn total(&self) -> u64 {
        *self.total
    }

    /// Mark one page dirty for `causes`.
    pub(crate) fn dirty(
        &mut self,
        page: u64,
        causes: &CauseSet,
        now: SimTime,
        tagmem: &mut TagMem,
    ) -> DirtyEvent {
        let f = &mut *self.file;
        match f.pages.get_mut(&page) {
            Some(dp) => {
                let prev = dp.causes.clone();
                tagmem.free(dp.causes.heap_bytes());
                dp.causes.union_with(causes);
                tagmem.alloc(dp.causes.heap_bytes());
                DirtyEvent {
                    prev: Some(prev),
                    new_bytes: 0,
                    first_dirtied: dp.dirtied_at,
                }
            }
            None => {
                tagmem.alloc(causes.heap_bytes());
                f.pages.insert(
                    page,
                    DirtyPage {
                        causes: causes.clone(),
                        dirtied_at: now,
                    },
                );
                *f.chunks.entry(page >> 6).or_insert(0) |= 1u64 << (page & 63);
                *self.total += 1;
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

    /// Whether the file has no dirty pages at all. Range scans check this
    /// once to skip the per-page [`DirtyFileView::contains`] probes (a
    /// hash each) on files that are only ever read.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.file.is_none_or(|f| f.pages.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Pid;

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
}
