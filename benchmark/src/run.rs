//! One run of one workload, as the driver invokes it: measure, check,
//! print every metric by name, and end with the result line.

use std::path::Path;

use crate::contract::{END_TO_END, PER_LAYER};
use crate::layers::{check_extras, fleet_extras, in_situ, LayerTable};
use crate::measure::{best_wall_s, peak_rss_mb, quartiles, timed, traced, Rep};
use crate::report::{num, quartile_row, result_line, Reported};
use crate::spans::Spans;
use crate::workloads::Workload;
use crate::{drives, srcloc};

/// What one run found: printed by [`RunResult::print`].
pub struct RunResult {
    /// Whether every output checked out.
    pub correct: bool,
    /// Ops attempted over all reps.
    pub attempted: u64,
    /// Ops failed over all reps.
    pub failed: u64,
    /// Digest of the simulated result (identical across reps when correct).
    pub sim_digest: u64,
    /// The metrics, in contract order.
    pub metrics: Vec<Reported>,
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
}

impl RunResult {
    /// Print the human-readable lines, then the result line last.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        println!("sim_digest {:016x}", self.sim_digest);
        println!(
            "{}",
            result_line(self.correct, self.attempted, self.failed, &self.metrics)
        );
    }
}

/// Ops attempted and failed over `reps`. The simulation is a pure
/// function of the seed (and the profiler a side channel), so besides
/// each rep's own failures, every rep whose simulated result differs from
/// the first's is one more: counted, never skipped.
fn tally(reps: &[&Rep], lines: &mut Vec<String>) -> (u64, u64) {
    let first = &reps[0].out;
    for p in first.problems.iter().take(20) {
        lines.push(format!("FAILED {p}"));
    }
    let mut attempted = 0;
    let mut failed = 0;
    for (i, r) in reps.iter().enumerate() {
        attempted += r.out.ops;
        failed += r.out.failed;
        if r.out.digest != first.digest || r.out.sim != first.sim {
            failed += 1;
            lines.push(format!(
                "FAILED rep {} sim_digest {:016x} differs from rep 1's {:016x}",
                i + 1,
                r.out.digest,
                first.digest
            ));
        }
    }
    (attempted, failed)
}

/// The timed run (`--trace 0`): every end-to-end metric.
pub fn run_timed(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let t = timed(w, seed, seconds);
    let mut lines = vec![format!(
        "{} seed {seed}: {} timed rep(s), {} set-up(s)",
        w.name,
        t.reps.len(),
        t.setup_s.len()
    )];
    let (attempted, failed) = tally(&t.reps.iter().collect::<Vec<_>>(), &mut lines);
    // Whole-rep and per-set-up spreads, for the reader; the reported values
    // are built from the least disturbed observations (see `best_wall_s`).
    lines.push(quartile_row(
        "rep wall",
        "s",
        &quartiles(&t.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    ));
    lines.push(quartile_row("set-up", "s", &quartiles(&t.setup_s)));
    let wall_s = best_wall_s(&t.reps);
    let first = &t.reps[0].out;
    let metrics: Vec<Reported> = END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "wall_s" => wall_s,
                "events_per_s" => first.events as f64 / wall_s,
                "host_ns_per_op" => wall_s * 1e9 / first.ops.max(1) as f64,
                "peak_rss_mb" => peak_rss_mb(),
                "setup_s" => t.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                other => unreachable!("no measurement for end-to-end metric {other}"),
            };
            lines.push(format!("{:<16} {:>22} {}", m.name, num(value), m.unit));
            Reported {
                name: m.name,
                unit: m.unit,
                value,
            }
        })
        .collect();
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        sim_digest: t.reps[0].out.digest,
        metrics,
        lines,
    }
}

/// The traced run (`--trace 1`): every per-layer metric, and the span
/// file `benchmark/out/trace_<workload>.json` under `root`.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, root: &Path) -> RunResult {
    let mut spans = Spans::new(true);
    let t = traced(w, seed, seconds, &mut spans);
    let mut lines = vec![format!(
        "{} seed {seed}: {} profiled rep(s) alternating with {} plain; host times are medians",
        w.name,
        t.profiled.len(),
        t.plain.len()
    )];
    let reps: Vec<&Rep> = t
        .plain
        .iter()
        .chain(t.profiled.iter().map(|p| &p.rep))
        .collect();
    let (attempted, mut failed) = tally(&reps, &mut lines);
    for p in &t.profiled[1..] {
        let same_calls = p
            .prof
            .phases
            .iter()
            .zip(&t.profiled[0].prof.phases)
            .all(|(a, b)| a.calls == b.calls);
        if !same_calls {
            failed += 1;
            lines.push("FAILED profiler call counts differ between reps".to_string());
        }
    }

    let mut table = LayerTable::default();
    in_situ(&t, &mut table);
    match w.name {
        "check_batch" => {
            let failing = check_extras(seed, &t, &mut table);
            lines.push(format!(
                "layered arm (left out of the timed matrix) fails on program(s) {failing:?}"
            ));
        }
        "fleet" => {
            if let Some(problem) = fleet_extras(seed, &t, &mut table) {
                failed += 1;
                lines.push(format!("FAILED {problem}"));
            }
        }
        _ => {}
    }
    let t0 = std::time::Instant::now();
    for (name, value) in drives::run_all(seed) {
        table.set(name, value);
    }
    lines.push(format!(
        "stand-alone drives took {:.2} s",
        t0.elapsed().as_secs_f64()
    ));
    table.set("repo.src_loc", srcloc::repo_src_loc(root) as f64);

    // The phase table rides on the last `run` span as its self-time split.
    for m in PER_LAYER
        .iter()
        .filter(|m| m.name.ends_with(".ns_per_event") && !m.name.starts_with("sched."))
    {
        spans.attach("run", m.name, table.get(m.name));
    }
    let out_dir = root.join("benchmark").join("out");
    let trace_path = out_dir.join(format!("trace_{}.json", w.name));
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&trace_path, spans.to_json(w.name)))
    {
        Ok(()) => lines.push(format!(
            "{} span(s) written to {}",
            spans.spans().len(),
            trace_path.display()
        )),
        Err(e) => lines.push(format!("could not write {}: {e}", trace_path.display())),
    }

    let metrics: Vec<Reported> = PER_LAYER
        .iter()
        .map(|m| {
            let value = table.get(m.name);
            lines.push(format!("{:<44} {:>18} {}", m.name, num(value), m.unit));
            Reported {
                name: m.name,
                unit: m.unit,
                value,
            }
        })
        .collect();
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        sim_digest: reps[0].out.digest,
        metrics,
        lines,
    }
}
