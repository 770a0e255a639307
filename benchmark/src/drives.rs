//! Stand-alone drives: time calls into each crate's public functions over
//! a seeded op stream, with no kernel around them. Each reports the
//! median over batches of host ns (or µs) per op.
//!
//! Every constructor the drives need is public, so no layer is left out.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use sim_block::{BlockDeadline, Cfq, Dispatch, Elevator, IoPrio, MqDispatch, Noop, Request};
use sim_cache::{CacheConfig, PageCache};
use sim_check::{generate, GenConfig};
use sim_core::{
    BlockNo, CauseSet, EventQueue, FileId, Pid, RequestId, SimDuration, SimRng, SimTime, PAGE_SIZE,
};
use sim_device::{
    DiskModel, DiskRequestShape, HddModel, IoDir, QueuedDevice, QueuedDeviceConfig, SsdModel,
};
use sim_experiments::setup::{build_world, SchedChoice, Setup};
use sim_experiments::{KB, MB};
use sim_fs::alloc::{Allocator, ExtentMap};
use sim_fs::journal::{Journal, JournalConfig, MetaKey};
use sim_workloads::{FsyncAppender, RandReader};

use crate::measure::median;

/// Batches each drive times; the reported number is their median.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of host ns per op. `setup` builds a batch's
/// state outside the clock; `run` performs `ops` ops on it.
fn ns_per_op<S>(ops: u64, mut setup: impl FnMut(u64) -> S, mut run: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES as u64)
        .map(|batch| {
            let mut state = setup(batch);
            let t0 = Instant::now();
            run(&mut state);
            let ns = t0.elapsed().as_nanos() as f64;
            black_box(&state);
            ns / ops as f64
        })
        .collect();
    median(&samples)
}

/// The classic hold model: a queue kept at `depth` pending events; one op
/// pops the earliest and schedules a successor a random delay later.
fn eventq_hold(seed: u64, depth: u64) -> f64 {
    const OPS: u64 = 200_000;
    ns_per_op(
        OPS,
        |batch| {
            let mut rng = SimRng::stream(seed, batch);
            let mut q = EventQueue::new();
            for i in 0..depth {
                q.schedule(SimTime::from_nanos(rng.gen_range(10_000_000)), i);
            }
            (q, rng)
        },
        |(q, rng)| {
            for _ in 0..OPS {
                let ev = q.pop().expect("hold keeps the queue non-empty");
                let at = ev.time + SimDuration::from_nanos(1 + rng.gen_range(10_000_000));
                q.schedule(at, ev.payload);
            }
        },
    )
}

const DRIVE_FILE: FileId = FileId(1);

fn cache(mem_bytes: u64) -> PageCache {
    PageCache::new(CacheConfig {
        mem_bytes,
        ..CacheConfig::default()
    })
}

/// Dirty `pages` distinct pages; with `again`, time a second pass over
/// the same pages (the overwrite path) instead of the first.
fn cache_dirty(seed: u64, again: bool) -> f64 {
    const PAGES: u64 = 32_768;
    ns_per_op(
        PAGES,
        |batch| {
            let mut order: Vec<u64> = (0..PAGES).collect();
            SimRng::stream(seed, batch).shuffle(&mut order);
            let mut c = cache(512 * MB);
            if again {
                for &p in &order {
                    c.dirty_page(DRIVE_FILE, p, &CauseSet::of(Pid(7)), SimTime::ZERO);
                }
            }
            (c, order)
        },
        |(c, order)| {
            let causes = CauseSet::of(Pid(7));
            for &p in order.iter() {
                black_box(c.dirty_page(DRIVE_FILE, p, &causes, SimTime::from_nanos(p)));
            }
        },
    )
}

/// Reads of 16-page ranges that all hit a resident file.
fn cache_read_hit(seed: u64) -> f64 {
    const PAGES: u64 = 32_768;
    const RANGE: u64 = 16;
    const READS: u64 = 16_384;
    ns_per_op(
        READS * RANGE,
        |batch| {
            let mut c = cache(512 * MB);
            c.fill(DRIVE_FILE, 0, PAGES);
            (c, SimRng::stream(seed, batch), Vec::new())
        },
        |(c, rng, misses)| {
            for _ in 0..READS {
                let page = rng.gen_range(PAGES - RANGE);
                c.read_misses_into(DRIVE_FILE, page, RANGE, misses);
                black_box(misses.len());
            }
        },
    )
}

/// Streaming reads over eight times the cache's capacity: every range
/// misses, is filled, and evicts the oldest pages.
fn cache_read_miss_evict() -> f64 {
    const CAPACITY: u64 = 8_192;
    const RANGE: u64 = 64;
    const PAGES: u64 = 8 * CAPACITY;
    ns_per_op(
        PAGES,
        |_| {
            let mut c = cache(CAPACITY * PAGE_SIZE);
            c.fill(DRIVE_FILE, PAGES, CAPACITY);
            (c, Vec::new())
        },
        |(c, misses)| {
            for page in (0..PAGES).step_by(RANGE as usize) {
                c.read_misses_into(DRIVE_FILE, page, RANGE, misses);
                for &(p, len) in misses.iter() {
                    c.fill(DRIVE_FILE, p, len);
                }
            }
        },
    )
}

/// Writeback's side: take a file's dirty pages back out in batches of
/// 1024 (dirtied in every-other-page runs, so ranges do not coalesce).
fn cache_take_dirty() -> f64 {
    const PAGES: u64 = 32_768;
    ns_per_op(
        PAGES,
        |_| {
            let mut c = cache(512 * MB);
            let causes = CauseSet::of(Pid(7));
            for p in 0..PAGES {
                c.dirty_page(DRIVE_FILE, p * 2, &causes, SimTime::from_nanos(p));
            }
            c
        },
        |c| {
            while c.dirty_total() > 0 {
                black_box(c.take_dirty_ranges(DRIVE_FILE, 1024));
            }
        },
    )
}

fn request(id: u64, rng: &mut SimRng, capacity: u64) -> Request {
    let pid = Pid(1 + rng.gen_range(8) as u32);
    Request {
        id: RequestId(id),
        dir: if rng.gen_bool(0.5) {
            IoDir::Read
        } else {
            IoDir::Write
        },
        start: BlockNo(rng.gen_range(capacity - 64)),
        nblocks: 1 + rng.gen_range(32),
        submitter: pid,
        causes: CauseSet::of(pid),
        sync: rng.gen_bool(0.5),
        ioprio: IoPrio::best_effort(rng.gen_range(8) as u8),
        deadline: None,
        submitted_at: SimTime::ZERO,
        file: None,
        kind: Default::default(),
    }
}

fn requests(seed: u64, batch: u64, n: u64) -> Vec<Request> {
    let mut rng = SimRng::stream(seed, batch);
    let capacity = HddModel::new().capacity_blocks();
    (0..n).map(|i| request(i, &mut rng, capacity)).collect()
}

/// Add 64 requests from eight processes, then dispatch and complete them
/// all, over and over; one op is one request through add and dispatch.
fn elevator<E: Elevator>(seed: u64, new: impl Fn() -> E) -> f64 {
    const OPS: u64 = 32_768;
    const WINDOW: usize = 64;
    ns_per_op(
        OPS,
        |batch| (new(), requests(seed, batch, OPS), HddModel::new()),
        |(e, reqs, dev)| {
            let mut now = SimTime::ZERO;
            for window in reqs.chunks(WINDOW) {
                for r in window {
                    e.add(r.clone(), now);
                }
                let mut left = window.len();
                while left > 0 {
                    match e.dispatch(now, dev) {
                        Dispatch::Issue(r) => {
                            now += dev.service_time(&r.shape());
                            e.completed(&r, now);
                            left -= 1;
                        }
                        Dispatch::WaitUntil(t) => now = now.max(t),
                        Dispatch::Idle => break,
                    }
                }
            }
        },
    )
}

/// blk-mq staging: submit 64, pop them round-robin with the occupancy
/// bookkeeping a dispatch pump does.
fn mq_submit_pop(seed: u64) -> f64 {
    const OPS: u64 = 65_536;
    ns_per_op(
        OPS,
        |batch| (MqDispatch::new(8), requests(seed, batch, OPS)),
        |(mq, reqs)| {
            for window in reqs.chunks(64) {
                for r in window {
                    mq.submit(r.clone());
                }
                while let Some(r) = mq.pop_next() {
                    mq.note_accepted(r.submitter);
                    mq.note_done(r.submitter);
                }
            }
        },
    )
}

fn shapes(seed: u64, batch: u64, n: u64, capacity: u64) -> Vec<DiskRequestShape> {
    let mut rng = SimRng::stream(seed, batch);
    (0..n)
        .map(|_| {
            let dir = if rng.gen_bool(0.5) {
                IoDir::Read
            } else {
                IoDir::Write
            };
            DiskRequestShape::new(
                dir,
                BlockNo(rng.gen_range(capacity - 64)),
                1 + rng.gen_range(32),
            )
        })
        .collect()
}

fn service_time<M: DiskModel>(seed: u64, new: impl Fn() -> M) -> f64 {
    const OPS: u64 = 262_144;
    ns_per_op(
        OPS,
        |batch| {
            let model = new();
            let shapes = shapes(seed, batch, OPS, model.capacity_blocks());
            (model, shapes)
        },
        |(model, shapes)| {
            for s in shapes.iter() {
                black_box(model.service_time(s));
            }
        },
    )
}

/// A depth-8 SSD front-end kept full: accept until it refuses, then
/// complete the oldest request in service.
fn queued_accept_complete(seed: u64) -> f64 {
    const OPS: u64 = 65_536;
    ns_per_op(
        OPS,
        |batch| {
            let dev =
                QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(8));
            let shapes = shapes(seed, batch, OPS, dev.model().capacity_blocks());
            (dev, shapes, VecDeque::new())
        },
        |(dev, shapes, in_service)| {
            for (i, shape) in shapes.iter().enumerate() {
                if !dev.can_accept() {
                    let id = in_service
                        .pop_front()
                        .expect("a full device has work in service");
                    let (_, started) = dev.complete(id);
                    in_service.extend(started.iter().map(|s| s.id));
                }
                let (_, started) = dev.accept(RequestId(i as u64), *shape, None);
                in_service.extend(started.iter().map(|s| s.id));
            }
        },
    )
}

/// 64 metadata joins (inodes, shared directory and bitmap blocks), then
/// seal and commit the transaction; one op is one join.
fn journal_join_seal(seed: u64) -> f64 {
    const OPS: u64 = 65_536;
    ns_per_op(
        OPS,
        |batch| {
            (
                Journal::new(JournalConfig::default()),
                SimRng::stream(seed, batch),
            )
        },
        |(j, rng)| {
            for i in 0..OPS {
                let pid = Pid(1 + rng.gen_range(8) as u32);
                let key = match rng.gen_range(3) {
                    0 => MetaKey::Inode(FileId(rng.gen_range(256))),
                    1 => MetaKey::DirBlock(rng.gen_range(16) as u32),
                    _ => MetaKey::Bitmap(rng.gen_range(16) as u32),
                };
                j.join(key, &CauseSet::of(pid), SimTime::from_nanos(i));
                if i % 64 == 63 {
                    let txn = j.seal();
                    j.mark_committed(txn.id);
                    black_box(txn.meta_blocks);
                }
            }
        },
    )
}

/// Page lookups in a 4096-extent map.
fn extent_lookup(seed: u64) -> f64 {
    const OPS: u64 = 262_144;
    const EXTENTS: u64 = 4_096;
    const EXTENT_PAGES: u64 = 64;
    ns_per_op(
        OPS,
        |batch| {
            let mut map = ExtentMap::new();
            for e in 0..EXTENTS {
                map.insert(e * EXTENT_PAGES, BlockNo(e * 1_024), EXTENT_PAGES);
            }
            (map, SimRng::stream(seed, batch))
        },
        |(map, rng)| {
            for _ in 0..OPS {
                black_box(map.lookup(rng.gen_range(EXTENTS * EXTENT_PAGES)));
            }
        },
    )
}

/// 16-block allocations spread over 64 files' reservations.
fn fs_alloc(seed: u64) -> f64 {
    const OPS: u64 = 65_536;
    ns_per_op(
        OPS,
        |batch| {
            (
                Allocator::new(0, 1 << 32, 2_048, seed),
                SimRng::stream(seed, batch),
            )
        },
        |(a, rng)| {
            for _ in 0..OPS {
                black_box(a.alloc(FileId(rng.gen_range(64)), 16));
            }
        },
    )
}

/// Build one Split-Token world and drop it, µs.
fn world_build_us(seed: u64) -> f64 {
    const OPS: u64 = 64;
    ns_per_op(
        OPS,
        |_| (),
        |_| {
            for _ in 0..OPS {
                black_box(build_world(Setup::new(SchedChoice::SplitToken).seed(seed)));
            }
        },
    ) / 1e3
}

/// Generate one check program, µs.
fn generate_us(seed: u64) -> f64 {
    const OPS: u64 = 512;
    ns_per_op(
        OPS,
        |batch| batch,
        |batch| {
            for idx in 0..OPS {
                let mut rng = SimRng::stream(seed ^ *batch, idx);
                black_box(generate(&mut rng, &GenConfig::default()));
            }
        },
    ) / 1e3
}

/// Host time of a small fsync-and-scan world on the queued SSD with span
/// tracing enabled, over the same world with it off.
fn span_overhead_ratio(seed: u64) -> f64 {
    let run = |tracing: bool| {
        ns_per_op(
            1,
            |_| {
                let (mut w, k) = build_world(
                    Setup::new(SchedChoice::SplitToken)
                        .on_ssd()
                        .queue_depth(8)
                        .seed(seed),
                );
                if tracing {
                    w.enable_tracing(k);
                }
                let log = w.prealloc_file(k, 256 * MB, true);
                let scan = w.prealloc_file(k, 256 * MB, true);
                w.spawn(
                    k,
                    Box::new(FsyncAppender::new(
                        log,
                        64 * KB,
                        SimDuration::from_millis(5),
                    )),
                );
                w.spawn(k, Box::new(RandReader::new(scan, 256 * MB, 64 * KB, seed)));
                w
            },
            |w| w.run_for(SimDuration::from_millis(1_500)),
        )
    };
    run(true) / run(false)
}

/// Run every drive; names are those in [`crate::contract::PER_LAYER`].
pub fn run_all(seed: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("sim-core.eventq.hold_d64_ns", eventq_hold(seed, 64)),
        ("sim-core.eventq.hold_d16k_ns", eventq_hold(seed, 16_384)),
        ("sim-cache.dirty_new_ns_per_page", cache_dirty(seed, false)),
        (
            "sim-cache.dirty_overwrite_ns_per_page",
            cache_dirty(seed, true),
        ),
        ("sim-cache.read_hit_ns_per_page", cache_read_hit(seed)),
        (
            "sim-cache.read_miss_evict_ns_per_page",
            cache_read_miss_evict(),
        ),
        ("sim-cache.take_dirty_ns_per_page", cache_take_dirty()),
        ("sim-block.cfq.add_dispatch_ns", elevator(seed, Cfq::new)),
        (
            "sim-block.deadline.add_dispatch_ns",
            elevator(seed, BlockDeadline::new),
        ),
        ("sim-block.noop.add_dispatch_ns", elevator(seed, Noop::new)),
        ("sim-block.mq.submit_pop_ns", mq_submit_pop(seed)),
        (
            "sim-device.hdd.service_time_ns",
            service_time(seed, HddModel::new),
        ),
        (
            "sim-device.ssd.service_time_ns",
            service_time(seed, SsdModel::new),
        ),
        (
            "sim-device.queued.accept_complete_ns",
            queued_accept_complete(seed),
        ),
        ("sim-fs.journal.join_seal_ns", journal_join_seal(seed)),
        ("sim-fs.extent_lookup_ns", extent_lookup(seed)),
        ("sim-fs.alloc_ns", fs_alloc(seed)),
        ("sim-kernel.world_build_us", world_build_us(seed)),
        ("sim-check.generate_us_per_program", generate_us(seed)),
        ("sim-trace.span_overhead_ratio", span_overhead_ratio(seed)),
    ]
}
