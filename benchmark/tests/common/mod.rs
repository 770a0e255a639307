//! Tiny workloads: a few simulated milliseconds each, so a test can put
//! them through the same rep loops as the real ones.

use sim_core::SimDuration;
use sim_experiments::setup::{build_world, SchedChoice, Setup};
use sim_experiments::{KB, MB};
use sim_workloads::{FsyncAppender, MemOverwriter, RandReader};
use splitbench::spans::Spans;
use splitbench::workloads::{Arm, Prepared, Workload};

/// Cached overwrites under CFQ on the serial HDD: page-cache calls, no
/// device traffic, no blk-mq.
fn overwrite(seed: u64, spans: &mut Spans) -> Prepared {
    let (mut w, k) = spans.scoped("build", |_| {
        build_world(Setup::new(SchedChoice::Cfq).seed(seed))
    });
    let file = w.prealloc_file(k, 8 * MB, true);
    w.spawn(k, Box::new(MemOverwriter::new(file, 4 * MB, 256 * KB)));
    Prepared::Kernel(vec![Arm::new("cfq", w, k, SimDuration::from_millis(40))])
}

/// Random reads and fsyncs under Split-Token on the queued SSD: the
/// blk-mq pump and the journal, which `overwrite` never touches.
fn scan(seed: u64, spans: &mut Spans) -> Prepared {
    let (mut w, k) = spans.scoped("build", |_| {
        build_world(
            Setup::new(SchedChoice::SplitToken)
                .on_ssd()
                .queue_depth(8)
                .seed(seed),
        )
    });
    let log = w.prealloc_file(k, 64 * MB, true);
    let data = w.prealloc_file(k, 64 * MB, true);
    w.spawn(
        k,
        Box::new(FsyncAppender::new(
            log,
            16 * KB,
            SimDuration::from_millis(2),
        )),
    );
    w.spawn(k, Box::new(RandReader::new(data, 64 * MB, 16 * KB, seed)));
    Prepared::Kernel(vec![Arm::new(
        "split-token",
        w,
        k,
        SimDuration::from_millis(60),
    )])
}

pub const OVERWRITE: Workload = Workload {
    name: "tiny_overwrite",
    setup: overwrite,
};

pub const SCAN: Workload = Workload {
    name: "tiny_scan",
    setup: scan,
};
