//! Randomized tests for the foundation types, driven by the in-tree
//! `SimRng` so the suite needs no external property-testing crate and
//! every run exercises the same deterministic case set.

use sim_core::rng::SimRng;
use sim_core::{CauseSet, EventQueue, Pid, SimTime};

fn rand_pids(rng: &mut SimRng) -> Vec<u32> {
    let n = rng.gen_range(20) as usize;
    (0..n).map(|_| rng.gen_range(100) as u32).collect()
}

/// Union is commutative, associative and idempotent; the result
/// contains exactly the union of members.
#[test]
fn cause_set_union_laws() {
    let mut rng = SimRng::seed_from_u64(0xC0FFEE);
    for _ in 0..256 {
        let a = rand_pids(&mut rng);
        let b = rand_pids(&mut rng);
        let c = rand_pids(&mut rng);
        let sa = CauseSet::from_pids(a.iter().map(|&p| Pid(p)));
        let sb = CauseSet::from_pids(b.iter().map(|&p| Pid(p)));
        let sc = CauseSet::from_pids(c.iter().map(|&p| Pid(p)));
        // commutative
        assert_eq!(sa.clone().union(&sb), sb.clone().union(&sa));
        // associative
        assert_eq!(
            sa.clone().union(&sb).union(&sc),
            sa.clone().union(&sb.clone().union(&sc))
        );
        // idempotent
        assert_eq!(sa.clone().union(&sa), sa.clone());
        // membership
        let u = sa.clone().union(&sb);
        for &p in a.iter().chain(b.iter()) {
            assert!(u.contains(Pid(p)));
        }
        assert_eq!(
            u.len(),
            a.iter()
                .chain(b.iter())
                .collect::<sim_core::FastSet<_>>()
                .len()
        );
    }
}

/// Iteration is always sorted and duplicate-free.
#[test]
fn cause_set_is_sorted_and_deduped() {
    let mut rng = SimRng::seed_from_u64(0xBEEF);
    for _ in 0..256 {
        let a = rand_pids(&mut rng);
        let s = CauseSet::from_pids(a.iter().map(|&p| Pid(p)));
        let v: Vec<Pid> = s.iter().collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(v, sorted);
    }
}

/// Shares always sum to the full cost (when non-empty).
#[test]
fn cause_set_shares_conserve_cost() {
    let mut rng = SimRng::seed_from_u64(0xACE);
    for _ in 0..256 {
        let a = rand_pids(&mut rng);
        let cost = rng.gen_f64() * 1e9;
        let s = CauseSet::from_pids(a.iter().map(|&p| Pid(p)));
        let total: f64 = s.shares(cost).map(|(_, v)| v).sum();
        if s.is_empty() {
            assert_eq!(total, 0.0);
        } else {
            assert!((total - cost).abs() < 1e-6 * cost.max(1.0));
        }
    }
}

/// The event queue pops every scheduled event exactly once, in
/// non-decreasing time order, with FIFO among equal times.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    let mut rng = SimRng::seed_from_u64(0xD1CE);
    for _ in 0..128 {
        let n = 1 + rng.gen_range(99) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        let mut last = (SimTime::ZERO, 0u64);
        while let Some(ev) = q.pop() {
            assert!(ev.time >= last.0, "time went backwards");
            if ev.time == last.0 {
                assert!(ev.seq > last.1, "ties must pop in insertion order");
            }
            last = (ev.time, ev.seq);
            popped.push(ev.payload);
        }
        popped.sort_unstable();
        assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }
}

/// Percentile is always one of the inputs and monotone in p.
#[test]
fn percentile_is_monotone() {
    let mut rng = SimRng::seed_from_u64(0xFACE);
    for _ in 0..256 {
        let n = 1 + rng.gen_range(49) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 1e6).collect();
        let p50 = sim_core::stats::percentile(&xs, 50.0);
        let p90 = sim_core::stats::percentile(&xs, 90.0);
        let p100 = sim_core::stats::percentile(&xs, 100.0);
        assert!(xs.contains(&p50));
        assert!(p50 <= p90);
        assert!(p90 <= p100);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(p100, max);
    }
}

/// `Percentiles` agrees with the one-shot `percentile` helper on every
/// rank, sorting only once.
#[test]
fn percentiles_struct_matches_free_function() {
    let mut rng = SimRng::seed_from_u64(0x5EED);
    for _ in 0..128 {
        let n = 1 + rng.gen_range(60) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 1e6).collect();
        let ps = sim_core::stats::Percentiles::new(xs.clone());
        for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(ps.p(p), sim_core::stats::percentile(&xs, p), "p={p}");
        }
        assert_eq!(ps.p50(), sim_core::stats::percentile(&xs, 50.0));
        assert_eq!(ps.p95(), sim_core::stats::percentile(&xs, 95.0));
        assert_eq!(ps.p99(), sim_core::stats::percentile(&xs, 99.0));
        assert_eq!(ps.len(), xs.len());
    }
}

/// The 95% CI is a non-degenerate interval around the mean: the mean
/// sits inside its own bounds and the half-width matches the normal
/// approximation from the reported stddev and count.
#[test]
fn summary_ci_bounds_contain_the_mean() {
    let mut rng = SimRng::seed_from_u64(0xC1A0);
    for _ in 0..256 {
        let n = 2 + rng.gen_range(62) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 1e6 - 5e5).collect();
        let s = sim_core::stats::summarize(&xs);
        assert_eq!(s.n, n);
        assert_eq!(s.dropped, 0);
        assert!(s.stddev >= 0.0);
        assert!(s.ci95 >= 0.0);
        assert!(s.mean - s.ci95 <= s.mean && s.mean <= s.mean + s.ci95);
        let expect = 1.96 * s.stddev / (n as f64).sqrt();
        assert!((s.ci95 - expect).abs() <= 1e-9 * expect.max(1.0));
        let manual = xs.iter().sum::<f64>() / n as f64;
        assert!((s.mean - manual).abs() <= 1e-9 * manual.abs().max(1.0));
    }
}

/// Non-finite samples are counted as dropped and have no effect on the
/// aggregates: a poisoned sample set summarizes identically to its
/// finite subset.
#[test]
fn summary_drops_non_finite_without_poisoning() {
    let mut rng = SimRng::seed_from_u64(0xBAD5EED);
    let poisons = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for _ in 0..256 {
        let n = 1 + rng.gen_range(40) as usize;
        let finite: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 1e3).collect();
        // Splice a random number of poison values at random positions.
        let mut mixed = finite.clone();
        let k = 1 + rng.gen_range(8) as usize;
        for _ in 0..k {
            let at = rng.gen_range(mixed.len() as u64 + 1) as usize;
            let p = poisons[rng.gen_range(3) as usize];
            mixed.insert(at, p);
        }
        let clean = sim_core::stats::summarize(&finite);
        let dirty = sim_core::stats::summarize(&mixed);
        assert_eq!(dirty.dropped, k, "every poison sample must be counted");
        assert_eq!(dirty.n, clean.n);
        assert_eq!(dirty.mean, clean.mean, "mean poisoned by non-finite input");
        assert_eq!(dirty.stddev, clean.stddev);
        assert_eq!(dirty.ci95, clean.ci95);
        assert!(dirty.mean.is_finite() && dirty.stddev.is_finite());
    }
}

/// Degenerate sample counts: a single sample has zero spread and zero
/// CI (not NaN), and an all-poison set reports everything dropped.
#[test]
fn summary_degenerate_inputs() {
    let mut rng = SimRng::seed_from_u64(0x51);
    for _ in 0..64 {
        let x = rng.gen_f64() * 1e6;
        let s = sim_core::stats::summarize(&[x]);
        assert_eq!((s.n, s.dropped), (1, 0));
        assert_eq!(s.mean, x);
        assert_eq!(s.stddev, 0.0, "single-sample stddev must be 0, not NaN");
        assert_eq!(s.ci95, 0.0);
    }
    let s = sim_core::stats::summarize(&[f64::NAN, f64::INFINITY]);
    assert_eq!((s.n, s.dropped), (0, 2));
    assert_eq!((s.mean, s.stddev, s.ci95), (0.0, 0.0, 0.0));
    let empty = sim_core::stats::summarize(&[]);
    assert_eq!((empty.n, empty.dropped), (0, 0));
}
