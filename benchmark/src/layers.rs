//! The per-crate layer table of one traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use sim_cluster::run_cluster;
use sim_core::prof::Phase;

use crate::contract::PER_LAYER;
use crate::measure::{median, Profiled, Traced};
use crate::workloads::{
    check_layered_arm, check_programs, fleet_config, single_layer_vs_flat, CHECK_PROGRAMS,
};

/// Layer metric values by name. Reported in [`PER_LAYER`] order; a name
/// the run never set reads 0 (the layer was not exercised).
#[derive(Default)]
pub struct LayerTable(BTreeMap<&'static str, f64>);

impl LayerTable {
    /// Set `name`, which must be one of [`PER_LAYER`]'s.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(m.name, value);
    }

    /// Value of `name`; 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The profiler phase behind each in-situ row.
const PHASE_ROWS: [(Phase, &str); 7] = [
    (Phase::EventPush, "sim-core.event_push"),
    (Phase::EventPop, "sim-core.event_pop"),
    (Phase::Sched, "split-core.sched_hooks"),
    (Phase::Cache, "sim-cache"),
    (Phase::Writeback, "sim-fs.writeback"),
    (Phase::Journal, "sim-fs.journal"),
    (Phase::MqPump, "sim-block.mq_pump"),
];

fn phase_nanos(p: &Profiled, phase: Phase) -> u64 {
    p.prof.phases[phase as usize].nanos
}

/// Fill in everything the alternating plain/profiled reps measured.
/// Host times are medians over the profiled reps; counts are the first
/// profiled rep's (every rep's are identical, which the caller checks).
pub fn in_situ(t: &Traced, table: &mut LayerTable) {
    let first = &t.profiled[0];
    let events = first.rep.out.events.max(1) as f64;
    let over = |f: &dyn Fn(&Profiled) -> f64| -> f64 {
        median(&t.profiled.iter().map(f).collect::<Vec<_>>())
    };
    for (phase, row) in PHASE_ROWS {
        table.set(
            &format!("{row}.calls"),
            first.prof.phases[phase as usize].calls as f64,
        );
        table.set(
            &format!("{row}.ns_per_event"),
            over(&|p| phase_nanos(p, phase) as f64) / events,
        );
    }
    // What no phase claims, so the rows sum to the rep's set-up and run.
    table.set(
        "sim-kernel.unattributed.ns_per_event",
        over(&|p| (p.rep.setup_s + p.rep.wall_s) * 1e9 - p.prof.total_nanos() as f64) / events,
    );
    table.set("sim-core.queue_depth.mean", first.prof.depth_mean);
    table.set("sim-core.queue_depth.max", first.prof.depth_max as f64);
    table.set(
        "sim-core.prof_overhead_ratio",
        over(&|p| p.rep.wall_s) / t.plain_wall_s(),
    );
    table.set(
        "sim-core.allocs_per_kevent",
        first.allocs as f64 / (events / 1e3),
    );
    table.set("sim-core.alloc_peak_mb", first.peak_bytes as f64 / 1e6);

    let out = &first.rep.out;
    let sim = &out.sim;
    table.set("sim-kernel.events", out.events as f64);
    table.set("sim-kernel.syscalls", sim.syscalls as f64);
    table.set(
        "sim-kernel.gated_share",
        sim.gated_ns as f64 / sim.proc_ns.max(1) as f64,
    );
    table.set("sim-kernel.io_errors", sim.io_errors as f64);
    table.set("sim-core.late_schedules", sim.late_schedules as f64);
    table.set(
        "sim-block.requests_dispatched",
        sim.requests_dispatched as f64,
    );
    table.set("sim-device.bytes", sim.device_bytes as f64);
    table.set(
        "sim-device.busy_share",
        if sim.sim_s > 0.0 {
            sim.device_busy_s / sim.sim_s
        } else {
            0.0
        },
    );
    table.set("sim.goodput_mbps", out.goodput_mbps);
    table.set("sim.p99_ms", out.p99_ms);
    // `sched.*` and `sim-cluster.*` rows the workload timed itself, as
    // medians over the plain reps (no profiler in the way).
    for (i, (name, _)) in t.plain[0].out.layer.iter().enumerate() {
        let values: Vec<f64> = t.plain.iter().map(|r| r.out.layer[i].1).collect();
        table.set(name, median(&values));
    }
}

/// `check_batch`'s extra passes: the layered arm the timed matrix leaves
/// out, and the one-layer wrapper against its flat scheduler.
/// Returns the indices of the programs the layered arm fails on.
pub fn check_extras(seed: u64, t: &Traced, table: &mut LayerTable) -> Vec<usize> {
    let programs = check_programs(seed);
    let layered = check_layered_arm(&programs);
    table.set("sched.layered.ns_per_event", layered.ns_per_event);
    table.set(
        "split-layered.check_failed_cells",
        layered.failed_cells as f64,
    );
    table.set(
        "split-layered.single_layer_vs_flat",
        single_layer_vs_flat(&programs[..programs.len().min(150)]),
    );
    table.set(
        "sim-sweep.check.programs_per_s",
        CHECK_PROGRAMS as f64 / t.plain_wall_s(),
    );
    layered.failed_programs
}

/// This process's user and system CPU seconds so far.
fn cpu_seconds() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (100 per second
    // on every Linux this runs on); the command name in field 2 may hold
    // spaces, so count from the closing parenthesis.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let mut fields = stat.rsplit(')').next().unwrap_or("").split_whitespace();
    let mut tick = |n: usize| {
        fields
            .nth(n)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let utime = tick(11);
    let stime = tick(0);
    (utime / 100.0, stime / 100.0)
}

/// `fleet`'s extra pass: the same fleet on every core. The parallel path
/// is a layer number, not a workload: on two shared cores it measures
/// the OS scheduler. Returns a problem if its report is not byte-identical
/// to the sequential one.
pub fn fleet_extras(seed: u64, t: &Traced, table: &mut LayerTable) -> Option<String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = fleet_config(seed);
    let (user0, sys0) = cpu_seconds();
    let t0 = Instant::now();
    let par = run_cluster(&cfg, jobs);
    let wall = t0.elapsed().as_secs_f64();
    let (user1, sys1) = cpu_seconds();
    table.set("sim-cluster.par.wall_ratio", wall / t.plain_wall_s());
    let (user, sys) = (user1 - user0, sys1 - sys0);
    table.set(
        "sim-cluster.par.sys_share",
        if user + sys > 0.0 {
            sys / (user + sys)
        } else {
            0.0
        },
    );
    (par.render() != t.plain[0].out.report)
        .then(|| format!("fleet report at jobs={jobs} is not byte-identical to jobs=1"))
}
