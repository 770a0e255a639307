//! The names, units and directions of everything the benchmark reports.
//! `BENCHMARK.json` lists the same tables; `tests/contract.rs` holds the
//! two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with `--trace 0`, on
/// the host's clock, from the least disturbed observation of each piece
/// of a rep (see `measure::best_wall_s`).
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_ns_per_op",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload with `--trace 1`.
pub struct PerLayer {
    /// Name: the crate, then what is measured.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether the value is a count made by the simulation, which repeats
    /// exactly for a seed (as opposed to a host time, which does not).
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn higher(m: PerLayer) -> PerLayer {
    PerLayer {
        better: Better::Higher,
        ..m
    }
}

/// The per-layer metrics, in report order. A metric that belongs to one
/// workload (`sched.*` and `sim-sweep.*` to `check_batch`, `sim-cluster.*`
/// to `fleet`) reads 0 on the others.
pub const PER_LAYER: [PerLayer; 68] = [
    // In situ: the self-profiler's phases over the traced rep.
    exact("sim-core.event_push.calls", "count"),
    host("sim-core.event_push.ns_per_event", "ns"),
    exact("sim-core.event_pop.calls", "count"),
    host("sim-core.event_pop.ns_per_event", "ns"),
    exact("split-core.sched_hooks.calls", "count"),
    host("split-core.sched_hooks.ns_per_event", "ns"),
    exact("sim-cache.calls", "count"),
    host("sim-cache.ns_per_event", "ns"),
    exact("sim-fs.writeback.calls", "count"),
    host("sim-fs.writeback.ns_per_event", "ns"),
    exact("sim-fs.journal.calls", "count"),
    host("sim-fs.journal.ns_per_event", "ns"),
    exact("sim-block.mq_pump.calls", "count"),
    host("sim-block.mq_pump.ns_per_event", "ns"),
    host("sim-kernel.unattributed.ns_per_event", "ns"),
    exact("sim-core.queue_depth.mean", "count"),
    exact("sim-core.queue_depth.max", "count"),
    host("sim-core.prof_overhead_ratio", "ratio"),
    exact("sim-core.allocs_per_kevent", "count"),
    exact("sim-core.alloc_peak_mb", "MB"),
    // Simulated counters.
    exact("sim-kernel.events", "count"),
    exact("sim-kernel.syscalls", "count"),
    exact("sim-kernel.gated_share", "share"),
    exact("sim-kernel.io_errors", "count"),
    exact("sim-core.late_schedules", "count"),
    exact("sim-block.requests_dispatched", "count"),
    exact("sim-device.bytes", "count"),
    exact("sim-device.busy_share", "share"),
    higher(exact("sim.goodput_mbps", "MB/s")),
    exact("sim.p99_ms", "ms"),
    // Stand-alone drives of each crate's public functions.
    host("sim-core.eventq.hold_d64_ns", "ns"),
    host("sim-core.eventq.hold_d16k_ns", "ns"),
    host("sim-cache.dirty_new_ns_per_page", "ns"),
    host("sim-cache.dirty_overwrite_ns_per_page", "ns"),
    host("sim-cache.read_hit_ns_per_page", "ns"),
    host("sim-cache.read_miss_evict_ns_per_page", "ns"),
    host("sim-cache.take_dirty_ns_per_page", "ns"),
    host("sim-block.cfq.add_dispatch_ns", "ns"),
    host("sim-block.deadline.add_dispatch_ns", "ns"),
    host("sim-block.noop.add_dispatch_ns", "ns"),
    host("sim-block.mq.submit_pop_ns", "ns"),
    host("sim-device.hdd.service_time_ns", "ns"),
    host("sim-device.ssd.service_time_ns", "ns"),
    host("sim-device.queued.accept_complete_ns", "ns"),
    host("sim-fs.journal.join_seal_ns", "ns"),
    host("sim-fs.extent_lookup_ns", "ns"),
    host("sim-fs.alloc_ns", "ns"),
    host("sim-kernel.world_build_us", "us"),
    host("sim-check.generate_us_per_program", "us"),
    host("sim-trace.span_overhead_ratio", "ratio"),
    // From check_batch's own per-arm timing.
    host("sched.noop.ns_per_event", "ns"),
    host("sched.cfq.ns_per_event", "ns"),
    host("sched.block-deadline.ns_per_event", "ns"),
    host("sched.scs-token.ns_per_event", "ns"),
    host("sched.afq.ns_per_event", "ns"),
    host("sched.split-deadline.ns_per_event", "ns"),
    host("sched.split-pdflush.ns_per_event", "ns"),
    host("sched.split-token.ns_per_event", "ns"),
    host("sched.split-noop.ns_per_event", "ns"),
    host("sched.layered.ns_per_event", "ns"),
    host("split-layered.single_layer_vs_flat", "ratio"),
    exact("split-layered.check_failed_cells", "count"),
    higher(host("sim-sweep.check.programs_per_s", "1/s")),
    // From fleet.
    exact("sim-cluster.events_per_window", "count"),
    exact("sim-cluster.inflight_at_end", "count"),
    host("sim-cluster.par.wall_ratio", "ratio"),
    host("sim-cluster.par.sys_share", "share"),
    // The repository.
    exact("repo.src_loc", "count"),
];

/// Whether `name` may be a metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` may be a unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
