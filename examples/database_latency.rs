//! The database "fsync freeze" (§7.1): a WAL-committing transaction
//! worker plus a checkpointer, run under Block-Deadline and then
//! Split-Deadline. Split-Deadline holds the checkpointer's expensive
//! fsync at the syscall gate and drains it with asynchronous writeback,
//! so transaction commits never queue behind a checkpoint burst.
//!
//! ```sh
//! cargo run --release --example database_latency
//! ```

use split_level_io::apps::minidb::{Checkpointer, MiniDbConfig, MiniDbShared, TxnWorker};
use split_level_io::prelude::*;

fn percentile(xs: &[f64], p: f64) -> f64 {
    split_level_io::core::stats::percentile(xs, p)
}

fn run_db(split: bool) -> (usize, f64, f64) {
    let mut world = World::new();
    let sched: Box<dyn IoSched> = if split {
        Box::new(SplitDeadline::new())
    } else {
        Box::new(BlockOnly::new(BlockDeadline::new()))
    };
    let cfg = KernelConfig {
        pdflush: !split, // Split-Deadline owns writeback itself
        ..Default::default()
    };
    let kernel = world.add_kernel(cfg, DeviceKind::hdd(), sched);

    const MB: u64 = 1 << 20;
    let db_file = world.prealloc_file(kernel, 256 * MB, true);
    let wal_file = world.prealloc_file(kernel, 64 * MB, true);
    let shared = MiniDbShared::new();
    let db_cfg = MiniDbConfig {
        checkpoint_threshold: 500,
        ..Default::default()
    };
    let worker = world.spawn(kernel, Box::new(TxnWorker::new(shared.clone(), wal_file)));
    let cp = world.spawn(
        kernel,
        Box::new(Checkpointer::new(db_cfg, shared.clone(), db_file)),
    );
    if split {
        // Short deadline for log commits, long for checkpoints.
        world.configure(
            kernel,
            worker,
            SchedAttr::FsyncDeadline(SimDuration::from_millis(100)),
        );
        world.configure(
            kernel,
            cp,
            SchedAttr::FsyncDeadline(SimDuration::from_secs(10)),
        );
    }
    world.run_for(SimDuration::from_secs(25));
    let sh = shared.borrow();
    let lat: Vec<f64> = sh
        .txn_latencies
        .iter()
        .map(|(_, d)| d.as_millis_f64())
        .collect();
    (lat.len(), percentile(&lat, 99.0), percentile(&lat, 99.9))
}

fn main() {
    println!("SQLite-like workload, 25 simulated seconds, 500-buffer checkpoints\n");
    for (name, split) in [("Block-Deadline", false), ("Split-Deadline", true)] {
        let (txns, p99, p999) = run_db(split);
        println!("{name:>15}: {txns:6} txns   p99 {p99:7.1} ms   p99.9 {p999:7.1} ms");
    }
    println!("\nThe split scheduler removes the checkpoint-induced tail: the paper's");
    println!("Figure 18 reports a 4x improvement at this threshold.");
}
