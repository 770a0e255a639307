//! Table 1 of the paper, as executable assertions: which framework
//! supports cause mapping, cost estimation, and reordering.
//!
//! | need            | block | syscall | split |
//! |-----------------|-------|---------|-------|
//! | cause mapping   |  ✖    |   ✔     |  ✔    |
//! | cost estimation |  ✔    |   ✖     |  ✔    |
//! | reordering      |  ✖    |   ✔     |  ✔    |

use std::cell::RefCell;
use std::rc::Rc;

use split_level_io::block::{Dispatch, Request};
use split_level_io::framework::{IoSched, SchedCtx};
use split_level_io::prelude::*;

const MB: u64 = 1 << 20;

/// A probe scheduler that records what the framework shows it.
struct Probe {
    fifo: std::collections::VecDeque<Request>,
    log: Rc<RefCell<Vec<Request>>>,
}

impl IoSched for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
        self.log.borrow_mut().push(req.clone());
        self.fifo.push_back(req);
        ctx.kick_dispatch();
    }
    fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
        match self.fifo.pop_front() {
            Some(r) => Dispatch::Issue(r),
            None => Dispatch::Idle,
        }
    }
    fn queued(&self) -> usize {
        self.fifo.len()
    }
}

/// Cause mapping: delegated writeback I/O reaches the block level with
/// the *dirtier's* pid in its cause set, even though the submitter is the
/// writeback task — information a block-only scheduler does not have.
#[test]
fn split_framework_maps_delegated_writes_to_their_causes() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut world = World::new();
    // Small memory so the background-writeback threshold is crossed
    // quickly and the writeback task actually delegates.
    let mut cfg = KernelConfig::default();
    cfg.cache.mem_bytes = 128 * MB;
    let k = world.add_kernel(
        cfg,
        DeviceKind::hdd(),
        Box::new(Probe {
            fifo: Default::default(),
            log: log.clone(),
        }),
    );
    let file = world.prealloc_file(k, 256 * MB, true);
    let writer = world.spawn(k, Box::new(SeqWriter::new(file, 256 * MB, MB)));
    world.run_for(SimDuration::from_secs(3));

    let wb_pid = world.kernel(k).writeback_pid();
    let delegated: Vec<Request> = log
        .borrow()
        .iter()
        .filter(|r| !r.is_read() && r.submitter == wb_pid)
        .cloned()
        .collect();
    assert!(!delegated.is_empty(), "writeback must have submitted data");
    for r in &delegated {
        assert!(
            r.causes.contains(writer),
            "delegated write must carry the dirtier's cause tag: {r:?}"
        );
        assert!(
            !r.causes.contains(wb_pid),
            "the proxy itself is not a cause: {r:?}"
        );
    }
}

/// Cost estimation: the same number of bytes, radically different device
/// cost — visible only below the file system. The split framework lets a
/// scheduler see true device times; a syscall-level scheduler sees bytes.
#[test]
fn block_level_costs_differ_per_pattern_while_bytes_do_not() {
    let measure = |contiguous: bool| {
        let mut world = World::new();
        let k = world.add_kernel(
            KernelConfig::default(),
            DeviceKind::hdd(),
            Box::new(BlockOnly::new(Noop::new())),
        );
        let file = world.prealloc_file(k, 1 << 30, contiguous);
        let pid = if contiguous {
            world.spawn(k, Box::new(SeqReader::new(file, 1 << 30, 256 * 1024)))
        } else {
            world.spawn(k, Box::new(RandReader::new(file, 1 << 30, 4096, 5)))
        };
        world.run_for(SimDuration::from_secs(2));
        let st = world.kernel(k).stats.proc(pid).unwrap();
        let disk = world
            .kernel(k)
            .stats
            .disk_time
            .get(&pid)
            .copied()
            .unwrap_or(0.0);
        (st.read_bytes, disk)
    };
    let (seq_bytes, seq_time) = measure(true);
    let (rand_bytes, rand_time) = measure(false);
    // Per-byte device cost differs by orders of magnitude…
    let seq_cost = seq_time / seq_bytes as f64;
    let rand_cost = rand_time / rand_bytes as f64;
    assert!(
        rand_cost > 50.0 * seq_cost,
        "per-byte cost must differ wildly: {rand_cost:e} vs {seq_cost:e}"
    );
}

/// Reordering: the syscall-level gate lets a split scheduler reorder
/// *writes before the journal entangles them* — a held fsync never forces
/// others to wait. Demonstrated by Split-Deadline keeping A's fsyncs fast
/// while a block-level scheduler cannot (the Figure 12 effect).
#[test]
fn syscall_gating_reorders_what_the_block_level_cannot() {
    let run = |split: bool| {
        let mut world = World::new();
        let sched: Box<dyn IoSched> = if split {
            Box::new(SplitDeadline::new())
        } else {
            Box::new(BlockOnly::new(BlockDeadline::new()))
        };
        let cfg = KernelConfig {
            pdflush: !split,
            ..Default::default()
        };
        let k = world.add_kernel(cfg, DeviceKind::hdd(), sched);
        let fa = world.prealloc_file(k, 64 * MB, true);
        let fb = world.prealloc_file(k, 1 << 30, true);
        let a = world.spawn(
            k,
            Box::new(FsyncAppender::new(fa, 4096, SimDuration::from_millis(10))),
        );
        let _b = world.spawn(
            k,
            Box::new(BatchRandFsyncer::new(
                fb,
                1 << 30,
                1024,
                SimDuration::from_millis(50),
                3,
            )),
        );
        if split {
            world.configure(
                k,
                a,
                SchedAttr::FsyncDeadline(SimDuration::from_millis(100)),
            );
        }
        world.run_for(SimDuration::from_secs(10));
        let st = world.kernel(k).stats.proc(a).unwrap();
        let lat: Vec<f64> = st.fsyncs.iter().map(|(_, d)| d.as_millis_f64()).collect();
        split_level_io::core::stats::percentile(&lat, 95.0)
    };
    let block_p95 = run(false);
    let split_p95 = run(true);
    assert!(
        block_p95 > 2.0 * split_p95,
        "split gating must beat block-level reordering: {split_p95} vs {block_p95} ms"
    );
}

/// The memory-level hooks exist and fire: a split scheduler learns about
/// writes the moment buffers are dirtied, ~seconds before writeback.
#[test]
fn memory_hooks_report_dirtying_promptly() {
    struct DirtyCounter {
        fifo: std::collections::VecDeque<Request>,
        dirtied: Rc<RefCell<u64>>,
    }
    impl IoSched for DirtyCounter {
        fn name(&self) -> &'static str {
            "dirty-counter"
        }
        fn buffer_dirtied(
            &mut self,
            ev: &split_level_io::framework::BufferDirtied<'_>,
            _ctx: &mut SchedCtx<'_>,
        ) {
            *self.dirtied.borrow_mut() += ev.new_bytes;
        }
        fn block_add(&mut self, req: Request, ctx: &mut SchedCtx<'_>) {
            self.fifo.push_back(req);
            ctx.kick_dispatch();
        }
        fn block_dispatch(&mut self, _ctx: &mut SchedCtx<'_>) -> Dispatch {
            match self.fifo.pop_front() {
                Some(r) => Dispatch::Issue(r),
                None => Dispatch::Idle,
            }
        }
        fn queued(&self) -> usize {
            self.fifo.len()
        }
    }
    let dirtied = Rc::new(RefCell::new(0u64));
    let mut world = World::new();
    let k = world.add_kernel(
        KernelConfig::default(),
        DeviceKind::hdd(),
        Box::new(DirtyCounter {
            fifo: Default::default(),
            dirtied: dirtied.clone(),
        }),
    );
    let file = world.prealloc_file(k, 64 * MB, true);
    world.spawn(k, Box::new(SeqWriter::new(file, 64 * MB, MB)));
    // Well under the writeback delay: the scheduler already knows.
    world.run_for(SimDuration::from_millis(50));
    assert!(
        *dirtied.borrow() > 8 * MB,
        "buffer-dirty hooks must fire at write time, got {} bytes",
        *dirtied.borrow()
    );
}
