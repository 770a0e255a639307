//! Dirty-page tracking with cause tags, run-length encoded.
//!
//! Each file's dirty pages are kept as *spans*: runs `[start, start +
//! len)` whose pages carry the same tag (cause set), the same tag bytes
//! and the same first-dirty time. Adjacent spans that agree on all three
//! are one span, so a write's pages cost one entry however many there
//! are, and re-dirtying them finds them with one lookup. Per file, spans
//! sit in a slab found by their first page, and two bitmaps with one bit
//! per page mark which pages are dirty and where spans start. Whether a
//! page is dirty, where a fresh stretch ends, where a read's dirty pages
//! are, and which page writeback takes next are word scans of the first;
//! the span covering a dirty page begins at the nearest start bit at or
//! below it. That scan reads one word per 64 pages, so a page deep in a
//! long span (a large write, or many pages dirtied at one time with one
//! tag) first tries the long span found last.
//!
//! Pages are dirtied as *stretches* ([`FileRun::stretch`], then
//! [`FileRun::commit`]): the longest run of pages from a given one whose
//! buffer-dirty events are identical — clean pages up to the next dirty
//! span, or overwrites up to the end of the span holding the first page.
//! Classifying reads the store; committing `n` pages of the stretch is
//! one range update. An overwrite whose writer the span's tag already
//! covers changes nothing; otherwise the pages are cut out of their span
//! and re-tagged with the union.
//!
//! Every operation has exactly the effects of dirtying, taking or freeing
//! the pages one at a time, as the per-page model of the differential
//! test in `tests/properties.rs` does. That includes tag memory: a span
//! records the bytes each of its pages' tags was allocated, so `n` pages
//! allocate or free `n` times that at once, which leaves `TagMem`'s live
//! and peak totals where `n` single-page calls would.

use sim_core::{CauseSet, FastMap, FileId, SimTime, PAGE_SIZE};

use crate::pagebits::PageBits;
use crate::tagmem::TagMem;

/// Result of dirtying pages, used to build the buffer-dirty hook event.
/// It borrows the cache until the store next changes.
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

/// Dirty pages `[start, start + len)` of one file, stored under `start`.
#[derive(Debug, Clone)]
struct Span {
    len: u64,
    causes: CauseSet,
    /// Tag bytes of each page: what dirtying it allocated. Kept apart from
    /// `causes` because cutting a span copies the set, and a copy may
    /// have less capacity than the original.
    bytes: usize,
    dirtied_at: SimTime,
}

impl Span {
    /// Whether `other`'s pages could be pages of this span.
    fn same_tag(&self, other: &Span) -> bool {
        self.bytes == other.bytes
            && self.dirtied_at == other.dirtied_at
            && self.causes == other.causes
    }

    /// This span's tag over `len` other pages.
    fn part(&self, len: u64) -> Span {
        Span {
            len,
            causes: self.causes.clone(),
            bytes: self.bytes,
            dirtied_at: self.dirtied_at,
        }
    }
}

/// Spans by first page. The spans sit in a slab whose slots are reused,
/// and the map holds slot numbers: a small entry hashes and moves fast,
/// and a warm file's spans come and go without allocating.
#[derive(Debug, Default)]
struct SpanMap {
    slots: FastMap<u64, u32>,
    /// Spans by slot; a free slot keeps stale fields and an empty tag.
    slab: Vec<Span>,
    free: Vec<u32>,
}

impl SpanMap {
    fn get(&self, start: u64) -> Option<&Span> {
        self.slots.get(&start).map(|&i| &self.slab[i as usize])
    }

    fn get_mut(&mut self, start: u64) -> Option<&mut Span> {
        self.slots.get(&start).map(|&i| &mut self.slab[i as usize])
    }

    fn insert(&mut self, start: u64, span: Span) {
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = span;
                i
            }
            None => {
                self.slab.push(span);
                (self.slab.len() - 1) as u32
            }
        };
        self.slots.insert(start, i);
    }

    fn remove(&mut self, start: u64) -> Option<Span> {
        let i = self.slots.remove(&start)?;
        self.free.push(i);
        let s = &mut self.slab[i as usize];
        Some(Span {
            causes: std::mem::take(&mut s.causes),
            ..*s
        })
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn values(&self) -> impl Iterator<Item = &Span> {
        self.slots.values().map(|&i| &self.slab[i as usize])
    }
}

/// Dirty state of one file: its spans, which pages are dirty, and where
/// spans start.
#[derive(Debug, Default)]
struct FileDirty {
    spans: SpanMap,
    /// The dirty pages.
    dirty: PageBits,
    /// The pages a span starts at.
    starts: PageBits,
    /// Neither bitmap has a bit set below this word.
    low: usize,
    /// Start of the last span [`FileDirty::covering`] had to scan for:
    /// one that began in an earlier bitmap word than the page asked for.
    long: u64,
    /// Dirty pages (sum of span lengths).
    pages: u64,
    /// Earliest `dirtied_at` of the spans when known; `None` until the
    /// next writeback pass recomputes it (see [`FileDirty::oldest`]).
    oldest: Option<SimTime>,
}

impl FileDirty {
    /// The span covering dirty `page`, with its start. A span starting in
    /// `page`'s own bitmap word is found by one word read. Past that word,
    /// the long span found last is tried before the scan down the start
    /// bits, which reads one word per 64 pages of the span.
    fn covering(&mut self, page: u64) -> (u64, &Span) {
        let long = self.long;
        let start = match self.starts.last_at_or_below(page, (page >> 6) as usize) {
            Some(start) => start,
            None => {
                if long <= page {
                    if let Some(s) = self.spans.get(long).filter(|s| page < long + s.len) {
                        return (long, s);
                    }
                }
                self.long = self
                    .starts
                    .last_at_or_below(page, self.low)
                    .expect("a dirty page lies in a span");
                self.long
            }
        };
        (start, self.spans.get(start).expect("start bit"))
    }

    /// The first run of dirty pages within `[from, to)`, as `(a, b)`;
    /// `(to, to)` if there is none.
    fn dirty_in(&self, from: u64, to: u64) -> (u64, u64) {
        let a = self.dirty.first_from(from, to, true);
        (a, self.dirty.first_from(a, to, false))
    }

    /// Store `span` at `start` as it is (its pages are marked dirty).
    fn put(&mut self, start: u64, span: Span) {
        self.starts.set(start, true);
        self.low = self.low.min((start >> 6) as usize);
        self.spans.insert(start, span);
    }

    /// Remove the span starting at `start` (its pages stay marked dirty).
    fn remove(&mut self, start: u64) -> Span {
        self.starts.set(start, false);
        self.spans.remove(start).expect("start bit")
    }

    /// Store `span` over pages from `start` that no span covers, joined
    /// with the span ending at `start` and the one beginning where it
    /// ends when their tags agree.
    fn insert(&mut self, start: u64, mut span: Span) {
        let end = start + span.len;
        if self.dirty.get(end) {
            // Page `end - 1` is in no span, so a dirty `end` starts one.
            if self.spans.get(end).is_some_and(|r| r.same_tag(&span)) {
                span.len += self.remove(end).len;
            }
        }
        self.dirty.fill(start, end, true);
        if start > 0 && self.dirty.get(start - 1) {
            let left = self
                .starts
                .last_at_or_below(start - 1, self.low)
                .expect("a dirty page lies in a span");
            let l = self.spans.get_mut(left).expect("start bit");
            if l.same_tag(&span) {
                l.len += span.len;
                return;
            }
        }
        self.put(start, span);
    }

    /// Earliest dirty time of the file's pages (`SimTime::MAX` if none),
    /// rescanning the spans only when a take may have removed it.
    fn oldest(&mut self) -> SimTime {
        *self.oldest.get_or_insert_with(|| {
            self.spans
                .values()
                .map(|s| s.dirtied_at)
                .min()
                .unwrap_or(SimTime::MAX)
        })
    }

    /// Move up to `max` of the lowest dirty pages into `out`, coalescing
    /// contiguous ones into one range; returns how many moved.
    fn take_into(&mut self, max: u64, tagmem: &mut TagMem, out: &mut Vec<PageRange>) -> u64 {
        let mut left = max;
        // Nothing below the lowest start is dirty, so the start bits, read
        // upward a word at a time, give the spans in page order.
        while left > 0 {
            let words = &self.starts.0;
            let Some(w) = (self.low..words.len()).find(|&w| words[w] != 0) else {
                break;
            };
            self.low = w;
            let mut word = words[w];
            let mut rest = None;
            while word != 0 && left > 0 {
                let start = w as u64 * 64 + u64::from(word.trailing_zeros());
                word &= word - 1;
                let span = self.spans.remove(start).expect("start bit");
                let n = span.len.min(left);
                self.dirty.fill(start, start + n, false);
                if n < span.len {
                    // `max` ran out inside the span; the rest stays dirty.
                    rest = Some((start + n, span.part(span.len - n)));
                }
                tagmem.free(n as usize * span.bytes);
                if self.oldest == Some(span.dirtied_at) {
                    self.oldest = None;
                }
                left -= n;
                match out.last_mut() {
                    Some(r) if r.start_page + r.len == start => {
                        r.len += n;
                        r.causes.union_with(&span.causes);
                        r.oldest = r.oldest.min(span.dirtied_at);
                    }
                    _ => out.push(PageRange {
                        start_page: start,
                        len: n,
                        causes: span.causes,
                        oldest: span.dirtied_at,
                    }),
                }
            }
            self.starts.0[w] = word;
            if let Some((start, span)) = rest {
                self.put(start, span);
            }
        }
        self.pages -= max - left;
        max - left
    }
}

/// Per-file dirty page index. A file writeback drains keeps its entry,
/// so dirtying it again reuses its tables; freeing the file drops them.
#[derive(Debug, Default)]
pub(crate) struct DirtyStore {
    files: FastMap<FileId, FileDirty>,
    total: u64,
    /// Where a non-covering overwrite keeps the pages' old tag for its
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

    /// Total dirty pages recomputed from the spans, ignoring the
    /// incrementally maintained counters. Auditors cross-check this
    /// against [`DirtyStore::total`]; any divergence means a bookkeeping
    /// bug.
    pub(crate) fn audit_sum(&self) -> u64 {
        self.files
            .values()
            .map(|f| {
                let by_spans: u64 = f.spans.values().map(|s| s.len).sum();
                debug_assert_eq!(by_spans, f.pages, "span/page-count divergence");
                debug_assert_eq!(f.dirty.count(), f.pages, "dirty bitmap/span divergence");
                debug_assert_eq!(
                    f.starts.count(),
                    f.spans.len() as u64,
                    "start bitmap/span divergence"
                );
                by_spans
            })
            .sum()
    }

    /// Dirty pages of one file.
    pub(crate) fn pages_of(&self, file: FileId) -> u64 {
        self.files.get(&file).map_or(0, |f| f.pages)
    }

    /// Prefetched per-file view for the read path: resolves the file
    /// once, then finds its dirty stretches by word scans of its dirty
    /// bitmap. A file with no dirty pages resolves to nothing.
    pub(crate) fn file_view(&self, file: FileId) -> DirtyFileView<'_> {
        DirtyFileView {
            file: self.files.get(&file).filter(|f| f.pages > 0),
        }
    }

    /// Resolve (creating if needed) `file`'s dirty state once, for a run
    /// of stretches.
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
        self.total -= f.take_into(max, tagmem, &mut out);
        out
    }

    /// Remove every dirty page of `file`, returning the avoided ranges.
    pub(crate) fn free_file(&mut self, file: FileId, tagmem: &mut TagMem) -> Vec<PageRange> {
        let Some(mut f) = self.files.remove(&file) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        self.total -= f.take_into(u64::MAX, tagmem, &mut out);
        out
    }

    /// Files with dirty pages, ordered by their oldest dirty page.
    pub(crate) fn files_oldest_first(&mut self) -> Vec<FileId> {
        let mut v: Vec<(SimTime, FileId)> = self
            .files
            .iter_mut()
            .filter(|(_, f)| f.pages > 0)
            .map(|(id, f)| (f.oldest(), *id))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, f)| f).collect()
    }
}

/// The next pages of a run, classified by [`FileRun::stretch`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stretch {
    /// First page.
    pub(crate) page: u64,
    /// Number of pages.
    pub(crate) len: u64,
    /// Start of the span the pages are overwrites in; `None` when they
    /// are clean.
    span: Option<u64>,
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

    /// The same run, borrowed for one [`FileRun::commit`].
    pub(crate) fn reborrow(&mut self) -> FileRun<'_> {
        FileRun {
            file: &mut *self.file,
            total: &mut *self.total,
            prev: &mut *self.prev,
        }
    }

    /// Classify the longest stretch from `page`, of at most `max` pages,
    /// whose buffer-dirty events are identical, and return it with the
    /// event each of its pages gets if dirtied at `now`. Changes no page.
    pub(crate) fn stretch(
        &mut self,
        page: u64,
        max: u64,
        now: SimTime,
    ) -> (Stretch, DirtyEvent<'_>) {
        debug_assert!(max > 0, "an empty stretch");
        let f = &mut *self.file;
        if !f.dirty.get(page) {
            let next = f.dirty.first_from(page, page + max, true);
            let st = Stretch {
                page,
                len: next - page,
                span: None,
            };
            let ev = DirtyEvent {
                prev: None,
                new_bytes: PAGE_SIZE,
                first_dirtied: now,
            };
            return (st, ev);
        }
        let (start, span) = f.covering(page);
        let st = Stretch {
            page,
            len: max.min(start + span.len - page),
            span: Some(start),
        };
        let ev = DirtyEvent {
            prev: Some(&span.causes),
            new_bytes: 0,
            first_dirtied: span.dirtied_at,
        };
        (st, ev)
    }

    /// Dirty the first `n` pages of `st` (classified with the store as it
    /// still is) for `causes` at `now`, with the effects of `n` one-page
    /// dirties. Returns the event those pages got.
    pub(crate) fn commit(
        self,
        st: Stretch,
        n: u64,
        causes: &CauseSet,
        now: SimTime,
        tagmem: &mut TagMem,
    ) -> DirtyEvent<'a> {
        debug_assert!(
            0 < n && n <= st.len,
            "commit {n} of a {}-page stretch",
            st.len
        );
        let FileRun {
            file: f,
            total,
            prev,
        } = self;
        let Some(start) = st.span else {
            tagmem.alloc(n as usize * causes.heap_bytes());
            let causes = causes.clone();
            let span = Span {
                len: n,
                bytes: causes.heap_bytes(),
                causes,
                dirtied_at: now,
            };
            f.insert(st.page, span);
            f.pages += n;
            f.oldest = f.oldest.map(|t| t.min(now));
            *total += n;
            return DirtyEvent {
                prev: None,
                new_bytes: PAGE_SIZE,
                first_dirtied: now,
            };
        };
        if f.spans
            .get(start)
            .expect("start bit")
            .causes
            .is_superset_of(causes)
        {
            let span = f.spans.get(start).expect("start bit");
            return DirtyEvent {
                prev: Some(&span.causes),
                new_bytes: 0,
                first_dirtied: span.dirtied_at,
            };
        }
        // Cut the pages out of their span and re-tag them with the union.
        let mut span = f.remove(start);
        let (a, b, end) = (st.page, st.page + n, start + span.len);
        if start < a {
            f.put(start, span.part(a - start));
        }
        if b < end {
            f.put(b, span.part(end - b));
        }
        prev.clone_from(&span.causes);
        tagmem.free(n as usize * span.bytes);
        span.causes.union_with(causes);
        span.bytes = span.causes.heap_bytes();
        tagmem.alloc(n as usize * span.bytes);
        span.len = n;
        let first_dirtied = span.dirtied_at;
        f.insert(a, span);
        DirtyEvent {
            prev: Some(prev),
            new_bytes: 0,
            first_dirtied,
        }
    }
}

/// Read-only dirtiness view of one file (see [`DirtyStore::file_view`]).
pub(crate) struct DirtyFileView<'a> {
    file: Option<&'a FileDirty>,
}

impl DirtyFileView<'_> {
    /// The first run of dirty pages within `[from, to)`, as `(a, b)`;
    /// `(to, to)` if there is none.
    pub(crate) fn dirty_in(&self, from: u64, to: u64) -> (u64, u64) {
        self.file.map_or((to, to), |f| f.dirty_in(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{Pid, SimRng};

    /// Dirty one page, as a one-page stretch.
    fn dirty(
        s: &mut DirtyStore,
        f: FileId,
        page: u64,
        causes: &CauseSet,
        now: SimTime,
        tm: &mut TagMem,
    ) {
        let mut run = s.file_run(f);
        let (st, _) = run.stretch(page, 1, now);
        run.commit(st, 1, causes, now, tm);
    }

    #[test]
    fn take_ranges_coalesces_contiguous_pages() {
        let mut s = DirtyStore::new();
        let mut tm = TagMem::new();
        let f = FileId(1);
        for p in [0u64, 1, 2, 10, 11, 20] {
            dirty(
                &mut s,
                f,
                p,
                &CauseSet::of(Pid(1)),
                SimTime::from_nanos(p),
                &mut tm,
            );
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
            dirty(&mut s, f, p, &CauseSet::of(Pid(1)), SimTime::ZERO, &mut tm);
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
        // Spans on both sides of a 64-page bitmap word come out as one range.
        for p in 60..70 {
            dirty(
                &mut s,
                f,
                p,
                &CauseSet::of(Pid(1)),
                SimTime::from_nanos(p),
                &mut tm,
            );
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
        dirty(&mut s, f, 0, &CauseSet::of(Pid(1)), SimTime::ZERO, &mut tm);
        dirty(&mut s, f, 1, &CauseSet::of(Pid(2)), SimTime::ZERO, &mut tm);
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
        dirty(
            &mut s,
            f,
            0,
            &CauseSet::of(Pid(1)),
            SimTime::from_nanos(50),
            &mut tm,
        );
        dirty(
            &mut s,
            f,
            1,
            &CauseSet::of(Pid(1)),
            SimTime::from_nanos(10),
            &mut tm,
        );
        let ranges = s.take_ranges(f, 10, &mut tm);
        assert_eq!(ranges[0].oldest, SimTime::from_nanos(10));
    }

    /// Pages dirtied with one tag at one time are one span, whatever the
    /// order; a re-tag of the middle cuts it in three.
    #[test]
    fn spans_join_and_split() {
        let mut s = DirtyStore::new();
        let mut tm = TagMem::new();
        let f = FileId(1);
        for p in [5u64, 3, 4, 7, 6] {
            dirty(&mut s, f, p, &CauseSet::of(Pid(1)), SimTime::ZERO, &mut tm);
        }
        assert_eq!(s.files[&f].spans.len(), 1);
        dirty(&mut s, f, 5, &CauseSet::of(Pid(2)), SimTime::ZERO, &mut tm);
        assert_eq!(s.files[&f].spans.len(), 3);
        dirty(&mut s, f, 5, &CauseSet::of(Pid(1)), SimTime::ZERO, &mut tm);
        assert_eq!(
            s.files[&f].spans.len(),
            3,
            "a covered writer changes nothing"
        );
        s.audit_sum();
    }

    /// Writeback order from the cached per-file oldest time equals a full
    /// rescan of every span, under random dirties (at random, not
    /// monotone, times), takes and frees.
    #[test]
    fn cached_oldest_matches_a_full_rescan() {
        let rescan = |s: &DirtyStore| {
            let mut v: Vec<(SimTime, FileId)> = s
                .files
                .iter()
                .filter(|(_, f)| f.pages > 0)
                .map(|(id, f)| {
                    let oldest = f.spans.values().map(|d| d.dirtied_at).min();
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
                        dirty(&mut s, file, page, &CauseSet::of(Pid(1)), now, &mut tm);
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
