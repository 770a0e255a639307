//! Randomized tests: dirty-page conservation and residency laws, driven
//! by `SimRng` so the case set is deterministic and dependency-free.

use std::collections::{BTreeMap, BTreeSet};

use sim_cache::{CacheConfig, PageCache, PageRange};
use sim_core::rng::SimRng;
use sim_core::{CauseSet, FileId, Pid, SimTime, PAGE_SIZE};

#[derive(Debug, Clone)]
enum Op {
    Dirty { file: u8, page: u16, pid: u8 },
    Take { file: u8, max: u16 },
    Free { file: u8 },
    Fill { file: u8, page: u16, len: u8 },
}

fn rand_ops(rng: &mut SimRng) -> Vec<Op> {
    let n = 1 + rng.gen_range(199) as usize;
    (0..n)
        .map(|_| match rng.gen_range(4) {
            0 => Op::Dirty {
                file: rng.gen_range(4) as u8,
                page: rng.gen_range(512) as u16,
                pid: rng.gen_range(8) as u8,
            },
            1 => Op::Take {
                file: rng.gen_range(4) as u8,
                max: 1 + rng.gen_range(63) as u16,
            },
            2 => Op::Free {
                file: rng.gen_range(4) as u8,
            },
            _ => Op::Fill {
                file: rng.gen_range(4) as u8,
                page: rng.gen_range(512) as u16,
                len: 1 + rng.gen_range(31) as u8,
            },
        })
        .collect()
}

/// The dirty counter always equals (dirtied − taken − freed); tag
/// memory goes to zero when no dirty pages remain; taken ranges never
/// overlap and never exceed what was dirtied.
#[test]
fn dirty_accounting_is_conserved() {
    let mut rng = SimRng::seed_from_u64(0xCAC4E);
    for _ in 0..64 {
        let ops = rand_ops(&mut rng);
        let mut cache = PageCache::new(CacheConfig {
            mem_bytes: 16 << 20,
            ..Default::default()
        });
        let mut model: sim_core::FastSet<(u8, u16)> = Default::default();
        let mut t = 0u64;
        for op in &ops {
            t += 1;
            let now = SimTime::from_nanos(t);
            match *op {
                Op::Dirty { file, page, pid } => {
                    let ev = cache.dirty_page(
                        FileId(file as u64),
                        page as u64,
                        &CauseSet::of(Pid(pid as u32)),
                        now,
                    );
                    let fresh = model.insert((file, page));
                    assert_eq!(ev.prev.is_some(), !fresh, "overwrite detection");
                }
                Op::Take { file, max } => {
                    let ranges = cache.take_dirty_ranges(FileId(file as u64), max as u64);
                    let mut taken = 0;
                    for r in &ranges {
                        for p in r.start_page..r.start_page + r.len {
                            assert!(
                                model.remove(&(file, p as u16)),
                                "took a page that was not dirty"
                            );
                            taken += 1;
                        }
                    }
                    assert!(taken <= max as u64);
                }
                Op::Free { file } => {
                    let freed = cache.free_file(FileId(file as u64));
                    for r in &freed {
                        for p in r.start_page..r.start_page + r.len {
                            assert!(model.remove(&(file, p as u16)));
                        }
                    }
                    assert!(!model.iter().any(|&(f, _)| f == file));
                }
                Op::Fill { file, page, len } => {
                    cache.fill(FileId(file as u64), page as u64, len as u64);
                }
            }
            assert_eq!(
                cache.dirty_total(),
                model.len() as u64,
                "dirty counter drift"
            );
        }
        // Drain everything: tag memory returns to zero.
        for f in 0..4u8 {
            cache.free_file(FileId(f as u64));
        }
        assert_eq!(cache.dirty_total(), 0);
        assert_eq!(cache.tagmem().live_bytes(), 0, "leaked tag bytes");
    }
}

/// Dirtying a write as runs of stretches is indistinguishable from
/// dirtying it one page at a time. Twin caches follow one op stream:
/// `runs` dirties each write through [`PageCache::dirty_run`], stretch by
/// stretch — each cut at a random point, as extent seams cut it, and
/// committed only up to a random page, as a hook that queues a command
/// does — and sometimes finishes early and takes pages (a mid-write
/// writeback) before a fresh run does the rest; `pages` calls
/// [`PageCache::dirty_page`] per page and takes at the same point. Every
/// page's event must be the one its stretch was classified with. The
/// cache is small, so fills and dirtying evict.
#[test]
fn dirty_runs_match_page_at_a_time() {
    let mut rng = SimRng::seed_from_u64(0x2D1E7);
    for case in 0..48 {
        let cfg = CacheConfig {
            mem_bytes: (8 + rng.gen_range(56)) * 4096,
            ..Default::default()
        };
        let mut runs = PageCache::new(cfg);
        let mut pages = PageCache::new(cfg);
        for step in 0..400u64 {
            let now = SimTime::from_nanos(step);
            let file = FileId(rng.gen_range(3));
            let page = rng.gen_range(96);
            let at = format!("case {case} step {step}");
            match rng.gen_range(8) {
                0..=3 => {
                    let len = 1 + rng.gen_range(24);
                    let causes = CauseSet::of(Pid(rng.gen_range(6) as u32));
                    // Where the first run ends, and the pages taken then.
                    let split = page + 1 + rng.gen_range(len);
                    let take = rng.gen_range(3) * 8;
                    let end = page + len;
                    let mut run = runs.dirty_run(file, &causes, now);
                    let mut p = page;
                    while p < end {
                        if p == split {
                            run.finish();
                            assert_eq!(
                                runs.take_dirty_ranges(file, take),
                                pages.take_dirty_ranges(file, take),
                                "{at}: mid-write take"
                            );
                            run = runs.dirty_run(file, &causes, now);
                        }
                        let bound = if p < split { split } else { end };
                        let max = 1 + rng.gen_range(bound - p);
                        let (stretch, ev) = run.stretch(p, max);
                        assert!((1..=max).contains(&stretch), "{at}: stretch of {stretch}");
                        let n = 1 + rng.gen_range(stretch);
                        for q in p..p + n {
                            assert_eq!(
                                pages.dirty_page(file, q, &causes, now),
                                ev,
                                "{at}: page {q}"
                            );
                        }
                        run.commit(n);
                        p += n;
                    }
                    run.finish();
                }
                4 => {
                    let max = 1 + rng.gen_range(40);
                    assert_eq!(
                        runs.take_dirty_ranges(file, max),
                        pages.take_dirty_ranges(file, max),
                        "{at}: take"
                    );
                }
                5 => assert_eq!(runs.free_file(file), pages.free_file(file), "{at}: free"),
                6 => {
                    let len = 1 + rng.gen_range(32);
                    runs.fill(file, page, len);
                    pages.fill(file, page, len);
                }
                _ => {
                    let len = 1 + rng.gen_range(32);
                    assert_eq!(
                        runs.read_misses(file, page, len),
                        pages.read_misses(file, page, len),
                        "{at}: read"
                    );
                }
            }
            assert_eq!(runs.dirty_total(), pages.dirty_total(), "{at}");
            assert_eq!(runs.dirty_check_sum(), pages.dirty_check_sum(), "{at}");
            assert_eq!(runs.dirty_check_sum(), runs.dirty_total(), "{at}");
            assert_eq!(
                runs.tagmem().live_bytes(),
                pages.tagmem().live_bytes(),
                "{at}"
            );
            assert_eq!(
                runs.tagmem().max_bytes(),
                pages.tagmem().max_bytes(),
                "{at}"
            );
        }
        // Every page of every file reads the same at the end.
        for f in 0..3 {
            assert_eq!(
                runs.read_misses(FileId(f), 0, 128),
                pages.read_misses(FileId(f), 0, 128),
                "case {case}: final residency"
            );
        }
    }
}

/// A naive per-page reference for the dirty side: every dirty page's
/// cause set, first-dirty time and tag bytes, kept in plain ordered
/// collections. Tag bytes follow `CauseSet::heap_bytes`: 4 bytes a pid
/// for a set of up to three pids, and for a larger set the capacity its
/// allocation was made with — a clone allocates its length, a union of
/// `a` and `b` pids allocates `a + b`.
#[derive(Default)]
struct NaiveDirty {
    /// `(file, page)` to (causes, first dirtied, tag bytes).
    pages: BTreeMap<(u64, u64), (BTreeSet<Pid>, SimTime, u64)>,
    live: u64,
    max: u64,
}

impl NaiveDirty {
    /// Dirty one page; returns the expected (prev, new bytes, first
    /// dirtied).
    fn dirty(
        &mut self,
        file: u64,
        page: u64,
        causes: &BTreeSet<Pid>,
        now: SimTime,
    ) -> (Option<BTreeSet<Pid>>, u64, SimTime) {
        let pid_bytes = std::mem::size_of::<Pid>() as u64;
        match self.pages.get_mut(&(file, page)) {
            None => {
                let bytes = causes.len() as u64 * pid_bytes;
                self.pages
                    .insert((file, page), (causes.clone(), now, bytes));
                self.live += bytes;
                self.max = self.max.max(self.live);
                (None, PAGE_SIZE, now)
            }
            Some((set, at, bytes)) => {
                let prev = set.clone();
                if !causes.is_subset(set) {
                    let (a, b) = (set.len() as u64, causes.len() as u64);
                    set.extend(causes.iter().copied());
                    let n = set.len() as u64;
                    let new = if n <= 3 { n } else { a + b } * pid_bytes;
                    self.live = self.live - *bytes + new;
                    self.max = self.max.max(self.live);
                    *bytes = new;
                }
                (Some(prev), 0, *at)
            }
        }
    }

    /// Remove up to `max` of `file`'s dirty pages, lowest first, as
    /// coalesced ranges.
    fn take(&mut self, file: u64, max: u64) -> Vec<PageRange> {
        let pages: Vec<u64> = self
            .pages
            .range((file, 0)..(file + 1, 0))
            .map(|(&(_, p), _)| p)
            .take(max as usize)
            .collect();
        let mut out: Vec<(u64, u64, BTreeSet<Pid>, SimTime)> = Vec::new();
        for p in pages {
            let (set, at, bytes) = self.pages.remove(&(file, p)).expect("listed");
            self.live -= bytes;
            match out.last_mut() {
                Some((start, len, causes, oldest)) if *start + *len == p => {
                    *len += 1;
                    causes.extend(set);
                    *oldest = (*oldest).min(at);
                }
                _ => out.push((p, 1, set, at)),
            }
        }
        out.into_iter()
            .map(|(start_page, len, causes, oldest)| PageRange {
                start_page,
                len,
                causes: CauseSet::from_pids(causes),
                oldest,
            })
            .collect()
    }

    /// Whether `page` of `file` is dirty.
    fn is_dirty(&self, file: u64, page: u64) -> bool {
        self.pages.contains_key(&(file, page))
    }

    /// Dirty pages of `file`.
    fn pages_of(&self, file: u64) -> u64 {
        self.pages.range((file, 0)..(file + 1, 0)).count() as u64
    }

    /// Files with dirty pages, ordered by their oldest dirty page (ties
    /// by file id).
    fn files_oldest_first(&self) -> Vec<FileId> {
        let mut oldest: BTreeMap<u64, SimTime> = BTreeMap::new();
        for (&(file, _), &(_, at, _)) in &self.pages {
            let t = oldest.entry(file).or_insert(at);
            *t = (*t).min(at);
        }
        let mut v: Vec<(SimTime, u64)> = oldest.into_iter().map(|(f, t)| (t, f)).collect();
        v.sort_unstable();
        v.into_iter().map(|(_, f)| FileId(f)).collect()
    }
}

/// The dirty store against [`NaiveDirty`], driven by one op stream:
/// writes dirtied as stretches cut at random points (as extent seams
/// and mid-write commands cut them), each committed up to a random page;
/// takes whose `max` cuts spans; frees; and reads. Writers are one to six
/// of six pids, so pages are overwritten both by writers their tag
/// already covers (the no-op path) and by new ones (the union path),
/// tags spill past three pids, and unions of one value reach different
/// capacities; dirty times repeat, so spans join, and some writes are
/// long, so pages lie many bitmap words past their span's start. Checked: the
/// `DirtyEvent` (prev, new bytes, first-dirty time) of every page of
/// every stretch, every taken or freed `PageRange`, every read's misses,
/// and after every step the totals, per-file counts, tag memory's live
/// and peak bytes and writeback order. Runs are never finished, so no
/// page enters the clean LRU and a read's hits are exactly the dirty
/// pages.
#[test]
fn dirty_store_matches_a_naive_per_page_model() {
    let mut rng = SimRng::seed_from_u64(0x0DE1);
    for case in 0..96 {
        let mut cache = PageCache::new(CacheConfig {
            mem_bytes: 16 << 20,
            ..Default::default()
        });
        let mut model = NaiveDirty::default();
        let mut t = 0;
        for step in 0..300 {
            t += rng.gen_range(3);
            let now = SimTime::from_nanos(t);
            let file = rng.gen_range(3);
            let at = format!("case {case} step {step}");
            match rng.gen_range(10) {
                0..=5 => {
                    let mut all: Vec<Pid> = (0..6).map(Pid).collect();
                    rng.shuffle(&mut all);
                    let pids: BTreeSet<Pid> = all[..1 + rng.gen_range(6) as usize]
                        .iter()
                        .copied()
                        .collect();
                    let causes = CauseSet::from_pids(pids.iter().copied());
                    let mut p = rng.gen_range(48);
                    // One write in eight spans several bitmap words.
                    let long = rng.gen_range(8) == 0;
                    let end = p + 1 + rng.gen_range(if long { 160 } else { 20 });
                    let mut run = cache.dirty_run(FileId(file), &causes, now);
                    while p < end {
                        let max = 1 + rng.gen_range(end - p);
                        let (stretch, ev) = run.stretch(p, max);
                        assert!((1..=max).contains(&stretch), "{at}: stretch of {stretch}");
                        // A fresh stretch ends at a dirty page or at `max`.
                        if ev.prev.is_none() && stretch < max {
                            assert!(
                                model.is_dirty(file, p + stretch),
                                "{at}: short fresh stretch"
                            );
                        }
                        let got = ev.prev.map(|c| c.iter().collect::<BTreeSet<_>>());
                        let n = 1 + rng.gen_range(stretch);
                        for q in p..p + n {
                            let (prev, new_bytes, first) = model.dirty(file, q, &pids, now);
                            assert_eq!(got, prev, "{at}: page {q} prev");
                            assert_eq!(ev.new_bytes, new_bytes, "{at}: page {q}");
                            assert_eq!(ev.first_dirtied, first, "{at}: page {q}");
                        }
                        run.commit(n);
                        p += n;
                    }
                    drop(run);
                }
                6 | 7 => {
                    let max = 1 + rng.gen_range(24);
                    assert_eq!(
                        cache.take_dirty_ranges(FileId(file), max),
                        model.take(file, max),
                        "{at}: take {max}"
                    );
                }
                8 => assert_eq!(
                    cache.free_file(FileId(file)),
                    model.take(file, u64::MAX),
                    "{at}: free"
                ),
                _ => {
                    let from = rng.gen_range(192);
                    let to = from + rng.gen_range(64);
                    let mut want: Vec<(u64, u64)> = Vec::new();
                    for q in (from..to).filter(|&q| !model.is_dirty(file, q)) {
                        match want.last_mut() {
                            Some((a, n)) if *a + *n == q => *n += 1,
                            _ => want.push((q, 1)),
                        }
                    }
                    assert_eq!(
                        cache.read_misses(FileId(file), from, to - from),
                        want,
                        "{at}: read [{from}, {to})"
                    );
                }
            }
            assert_eq!(cache.dirty_total(), model.pages.len() as u64, "{at}: total");
            assert_eq!(
                cache.dirty_check_sum(),
                cache.dirty_total(),
                "{at}: audit sum"
            );
            for f in 0..3 {
                assert_eq!(cache.dirty_pages_of(FileId(f)), model.pages_of(f), "{at}");
            }
            assert_eq!(cache.tagmem().live_bytes(), model.live, "{at}: live");
            assert_eq!(cache.tagmem().max_bytes(), model.max, "{at}: max");
            assert_eq!(
                cache.dirty_files_oldest_first(),
                model.files_oldest_first(),
                "{at}: order"
            );
        }
    }
}

/// A dirty page is always a cache hit; a taken (cleaned) page stays
/// resident.
#[test]
fn dirty_pages_are_always_resident() {
    let mut rng = SimRng::seed_from_u64(0xD1237);
    for _ in 0..64 {
        let n = 1 + rng.gen_range(39) as usize;
        let pages: Vec<u16> = (0..n).map(|_| rng.gen_range(128) as u16).collect();
        let mut cache = PageCache::new(CacheConfig {
            mem_bytes: 64 << 20,
            ..Default::default()
        });
        let f = FileId(1);
        for &p in &pages {
            cache.dirty_page(f, p as u64, &CauseSet::of(Pid(1)), SimTime::ZERO);
            assert!(cache.read_misses(f, p as u64, 1).is_empty());
        }
        cache.take_dirty_ranges(f, u64::MAX);
        for &p in &pages {
            assert!(
                cache.read_misses(f, p as u64, 1).is_empty(),
                "cleaned pages remain readable"
            );
        }
    }
}
