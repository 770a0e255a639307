//! The benchmark's `threads_mem` recipe (Figure 15's write-mem arm at 256
//! threads), rebuilt from the public builders, must simulate exactly what
//! it simulated before Split-Token's waiter set moved into `TokenBuckets`.
//!
//! The three numbers were read from the traced splitbench run of the
//! commit *before* that change (seed 0: `sim-kernel.events`,
//! `sim-block.requests_dispatched`, `sim-device.bytes`). They are a record
//! of the old per-pid wake-up loop's behaviour — a change that moves them
//! is a model change, not a speed-up. Do not regenerate them.

use sim_core::{SimDuration, PAGE_SIZE};
use sim_experiments::{build_world, SchedChoice, Setup, GB, KB, MB};
use sim_workloads::{MemOverwriter, SeqReader};
use split_core::SchedAttr;

#[test]
fn threads_mem_recipe_simulates_what_the_per_pid_loop_simulated() {
    let (mut w, k) = build_world(Setup::new(SchedChoice::SplitToken).cores(32).seed(0));
    let a_file = w.prealloc_file(k, 4 * GB, true);
    let mem_file = w.prealloc_file(k, 8 * MB, true);
    w.kernel_mut(k)
        .cache_mut()
        .fill(mem_file, 0, 8 * MB / PAGE_SIZE);
    w.spawn(k, Box::new(SeqReader::new(a_file, 4 * GB, MB)));
    for i in 0..256 {
        let b = w.spawn(k, Box::new(MemOverwriter::new(mem_file, 2 * MB, 64 * KB)));
        w.configure(k, b, SchedAttr::TokenGroup(1));
        if i == 0 {
            w.configure(k, b, SchedAttr::TokenRate(MB));
        }
    }
    w.run_until(w.now() + SimDuration::from_secs(1));

    assert_eq!(w.events_processed(), 160_937);
    let stats = &w.kernel(k).stats;
    assert_eq!(stats.requests_dispatched, 98);
    assert_eq!(stats.device_bytes, 102_760_448);
}
