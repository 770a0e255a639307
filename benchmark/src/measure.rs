//! The rep loops: timed reps for the end-to-end metrics, and the traced
//! reps (self-profiler installed, counting allocator compiled in) for the
//! in-situ layer numbers.
//!
//! Every counter a rep reports is either read from state the rep built
//! itself (its own worlds, a profiler created for it) or taken as a
//! before/after delta of a process-wide counter, so nothing one rep or
//! workload did shows in the next one's numbers.

use std::time::Instant;

use sim_core::alloc_count;
use sim_core::prof::{self, ProfSnapshot, Profiler};

use crate::spans::Spans;
use crate::workloads::{RepOutcome, Workload};

/// Extra set-ups timed before each rep, on top of the rep's own. Set-up
/// takes well under a millisecond on most workloads, so its median needs
/// many samples to hold still; taking them between reps spreads them over
/// the same stretch of host time as the runs.
const EXTRA_SETUPS_PER_REP: usize = 50;

/// Host seconds the extra set-ups before one rep may take (the fleet's
/// set-up builds 64 kernels; fifty of those would outlast the run).
const EXTRA_SETUP_BUDGET_S: f64 = 0.05;

/// Fewest reps a run reports on, however long they take.
const MIN_REPS: usize = 3;

/// One rep's host-side measurements and what the simulation produced.
pub struct Rep {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the run.
    pub wall_s: f64,
    /// Host seconds of each slice of the run, in order.
    pub slice_s: Vec<f64>,
    /// The simulated outcome.
    pub out: RepOutcome,
}

/// Median and quartiles as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), plus the extremes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quartiles {
    /// Samples.
    pub n: usize,
    /// Smallest.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest.
    pub max: f64,
}

/// Quartiles of a sample; all zero when it is empty.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Quartiles::default();
    }
    let at = |q: usize| {
        // Position q*(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = (q * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Quartiles {
        n,
        min: v[0],
        q1: at(1),
        median: at(2),
        q3: at(3),
        max: v[n - 1],
    }
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up and run one rep, recording its span tree:
/// workload → {setup → build / prealloc / spawn, run → slice\[i\], collect}.
pub fn one_rep(w: &Workload, seed: u64, rep: u32, spans: &mut Spans) -> Rep {
    spans.set_rep(rep);
    spans.scoped(w.name, |spans| {
        let t0 = Instant::now();
        let prepared = spans.scoped("setup", |s| (w.setup)(seed, s));
        let setup_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let ran = spans.scoped("run", |s| prepared.run(s));
        let wall_s = t0.elapsed().as_secs_f64();
        let slice_s = spans.take_slices();
        let out = spans.scoped("collect", |_| ran.collect());
        Rep {
            setup_s,
            wall_s,
            slice_s,
            out,
        }
    })
}

/// Host seconds of one rep's run with every slice taken from the rep
/// where it ran fastest.
///
/// Every rep does the same deterministic work, so slice i of every rep
/// is the same work. On a shared host every disturbance (a neighbour on
/// the sibling hyperthread, a polluted cache) adds time and none takes
/// any away, so the fastest observation of a slice is its least
/// disturbed one. Whole-rep medians move by a quarter and more between
/// runs on this host; this holds still as long as each slice met one
/// quiet moment in the run.
pub fn best_wall_s(reps: &[Rep]) -> f64 {
    let slices = reps.iter().map(|r| r.slice_s.len()).min().unwrap_or(0);
    (0..slices)
        .map(|i| {
            reps.iter()
                .map(|r| r.slice_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The timed run: profiler, span recorder and counting allocator absent.
pub struct Timed {
    /// Every timed rep, in order.
    pub reps: Vec<Rep>,
    /// Host seconds of every set-up made (the extra ones and the reps').
    pub setup_s: Vec<f64>,
}

/// Run reps until `seconds` of run time have been measured, timing a
/// few extra set-ups before each.
pub fn timed(w: &Workload, seed: u64, seconds: f64) -> Timed {
    let mut spans = Spans::new(false);
    let mut setup_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < MIN_REPS || measured < seconds {
        let mut spent = 0.0;
        for _ in 0..EXTRA_SETUPS_PER_REP {
            if spent >= EXTRA_SETUP_BUDGET_S {
                break;
            }
            let t0 = Instant::now();
            let prepared = (w.setup)(seed, &mut spans);
            let dt = t0.elapsed().as_secs_f64();
            drop(prepared);
            setup_s.push(dt);
            spent += dt;
        }
        let rep = one_rep(w, seed, reps.len() as u32 + 1, &mut spans);
        measured += rep.wall_s;
        setup_s.push(rep.setup_s);
        reps.push(rep);
    }
    Timed { reps, setup_s }
}

/// What one profiled rep measured on the host.
pub struct Profiled {
    /// The rep.
    pub rep: Rep,
    /// The self-profiler's phases over the rep.
    pub prof: ProfSnapshot,
    /// Allocations made during the rep (set-up, run and collect).
    pub allocs: u64,
    /// Peak live bytes during the rep, above what was live before it.
    pub peak_bytes: u64,
}

/// The traced run: plain reps and profiled reps alternate, so the
/// profiler's overhead is a ratio of medians taken seconds apart.
pub struct Traced {
    /// Reps with no profiler installed (the overhead ratio's base).
    pub plain: Vec<Rep>,
    /// Reps with the profiler installed and enabled.
    pub profiled: Vec<Profiled>,
}

impl Traced {
    /// Median run time of the plain reps.
    pub fn plain_wall_s(&self) -> f64 {
        median(&self.plain.iter().map(|r| r.wall_s).collect::<Vec<_>>())
    }
}

/// One rep with a profiler of its own installed. Allocator numbers are
/// deltas of the process-wide counters around the rep.
pub fn profiled_rep(w: &Workload, seed: u64, rep: u32, spans: &mut Spans) -> Profiled {
    let profiler = Profiler::new();
    profiler.set_enabled(true);
    prof::install_thread(&profiler);
    alloc_count::reset_peak();
    let before = alloc_count::snapshot();
    let rep = one_rep(w, seed, rep, spans);
    let after = alloc_count::snapshot();
    prof::uninstall_thread();
    Profiled {
        rep,
        prof: profiler.snapshot(),
        allocs: after.allocs - before.allocs,
        peak_bytes: after.peak_bytes.saturating_sub(before.current_bytes),
    }
}

/// Alternate plain and profiled reps until `seconds` of run time have
/// been measured, with at least two of each.
pub fn traced(w: &Workload, seed: u64, seconds: f64, spans: &mut Spans) -> Traced {
    let mut t = Traced {
        plain: Vec::new(),
        profiled: Vec::new(),
    };
    let mut off = Spans::new(false);
    let mut measured = 0.0;
    let mut rep = 0;
    while t.profiled.len() < 2 || measured < seconds {
        rep += 1;
        let plain = one_rep(w, seed, rep, &mut off);
        measured += plain.wall_s;
        t.plain.push(plain);
        rep += 1;
        let profiled = profiled_rep(w, seed, rep, spans);
        measured += profiled.rep.wall_s;
        t.profiled.push(profiled);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!((q.n, q.min, q.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[]).n, 0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn best_wall_takes_each_slice_from_the_rep_where_it_ran_fastest() {
        let rep = |slice_s: Vec<f64>| Rep {
            setup_s: 0.0,
            wall_s: slice_s.iter().sum(),
            slice_s,
            out: RepOutcome::default(),
        };
        let reps = [rep(vec![1.0, 5.0, 2.0]), rep(vec![3.0, 2.0, 2.5])];
        assert_eq!(best_wall_s(&reps), 1.0 + 2.0 + 2.0);
        assert_eq!(best_wall_s(&[]), 0.0);
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
