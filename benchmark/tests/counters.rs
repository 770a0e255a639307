//! Counter hygiene: what one workload did must not show in the next
//! one's numbers. (`run_panel`'s alloc counters accumulated across
//! targets; ROADMAP item 1.) One test function, so nothing else in this
//! process allocates or profiles while it runs.

mod common;

use sim_core::alloc_count;
use splitbench::measure::{profiled_rep, Profiled};
use splitbench::spans::Spans;

fn calls(p: &Profiled) -> Vec<u64> {
    p.prof.phases.iter().map(|ps| ps.calls).collect()
}

#[test]
fn the_second_workload_does_not_report_the_firsts_counts() {
    let mut spans = Spans::new(false);
    // B on its own, then A, then B again right after A.
    let b_alone = profiled_rep(&common::SCAN, 3, 1, &mut spans);
    let a = profiled_rep(&common::OVERWRITE, 3, 2, &mut spans);
    let b_after_a = profiled_rep(&common::SCAN, 3, 3, &mut spans);

    // The two workloads really differ, so leaked counts would show.
    assert!(a.rep.out.events > 0 && b_alone.rep.out.events > 0);
    assert_ne!(calls(&a), calls(&b_alone));
    let mq = sim_core::prof::Phase::MqPump as usize;
    assert_eq!(calls(&a)[mq], 0, "the serial HDD world never pumps blk-mq");
    assert!(calls(&b_alone)[mq] > 0);

    // Every profiler count, the queue gauges and the simulated result of
    // B are the same whether or not A ran first.
    assert_eq!(calls(&b_after_a), calls(&b_alone));
    assert_eq!(b_after_a.prof.depth_max, b_alone.prof.depth_max);
    assert_eq!(b_after_a.prof.depth_mean, b_alone.prof.depth_mean);
    assert_eq!(b_after_a.rep.out.digest, b_alone.rep.out.digest);
    assert_eq!(b_after_a.rep.out.sim, b_alone.rep.out.sim);

    // Allocator numbers are deltas around the rep, not totals since
    // process start (all zero in a build without `alloc-count`).
    assert_eq!(b_after_a.allocs, b_alone.allocs);
    assert_eq!(b_after_a.peak_bytes, b_alone.peak_bytes);
    if alloc_count::enabled() {
        assert!(a.allocs > 0 && b_alone.allocs > 0);
        assert_ne!(a.allocs, b_alone.allocs);
        let total = alloc_count::snapshot().allocs;
        assert!(b_after_a.allocs < total - a.allocs);
    } else {
        assert_eq!((a.allocs, a.peak_bytes), (0, 0));
    }
}
