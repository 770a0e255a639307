//! The six workloads.
//!
//! Each workload is a figure-shaped world the benchmark builds itself
//! from the simulator's public builders, so it holds the `World` and can
//! time set-up and run separately. Sizes are fixed here, once: a rep is
//! a fixed amount of *simulated* work (so every simulated counter
//! repeats exactly for a seed) sized to about a second of host time.
//!
//! Loop type: simulated processes in the single-kernel workloads and in
//! `check_batch` are closed-loop (each issues its next syscall when the
//! previous one completes). `fleet` traffic is open-loop Poisson at a
//! fixed rate, with latency taken from simulated arrival time.

use std::time::Instant;

use sim_block::IoPrio;
use sim_check::{generate, AuditPlane, GenConfig, LayerAuditor, ProgramSpec};
use sim_cluster::{run_cluster, ArrivalKind, ClusterConfig, ClusterReport, ReqKind};
use sim_core::stats::Percentiles;
use sim_core::{KernelId, Pid, SimDuration, SimRng, PAGE_SIZE};
use sim_experiments::fig_layers::tenant_tree;
use sim_experiments::setup::{build_layered, build_world, build_world_with, SchedChoice, Setup};
use sim_experiments::{GB, KB, MB};
use sim_kernel::World;
use sim_sweep::check::{run_one, run_one_single_layer, Obs, RunOutcome, ALL_DEVICES, ALL_SCHEDS};
use sim_workloads::{FsyncAppender, MemOverwriter, RandReader, SeqReader, SeqWriter};
use split_core::SchedAttr;
use split_layered::LayeredConfig;

use crate::spans::Spans;

/// One workload: a name and its set-up. Why each is in the panel is on
/// its set-up function, in `BENCHMARK.json` and in the README.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Builds the inputs and worlds for one rep from the seed.
    pub setup: fn(u64, &mut Spans) -> Prepared,
}

/// Every workload, in panel order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "threads_mem",
        setup: threads_mem,
    },
    Workload {
        name: "mem_overwrite",
        setup: mem_overwrite,
    },
    Workload {
        name: "buffered_write",
        setup: buffered_write,
    },
    Workload {
        name: "layers_qd8",
        setup: layers_qd8,
    },
    Workload {
        name: "check_batch",
        setup: check_batch,
    },
    Workload {
        name: "fleet",
        setup: fleet,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Slices one arm's simulated duration (or `check_batch`'s program list)
/// is run in. Every rep does the same deterministic work, so slice i of
/// every rep is the same work, timed separately.
const SLICES: u64 = 64;

/// Which counter a tenant's goodput is read from.
#[derive(Clone, Copy)]
enum Dir {
    Read,
    Write,
}

/// One built, not yet run, single-kernel world.
pub struct Arm {
    label: &'static str,
    w: World,
    k: KernelId,
    duration: SimDuration,
    /// Tenants whose summed MB/s is the workload's goodput.
    goodput: Vec<(Pid, Dir)>,
    /// Tenant whose fsync p99 is the workload's latency.
    p99_of: Option<Pid>,
}

impl Arm {
    /// A world to run for `duration`, with no named tenants. Public so a
    /// test can put a tiny world of its own through the rep loops.
    pub fn new(label: &'static str, w: World, k: KernelId, duration: SimDuration) -> Arm {
        Arm {
            label,
            w,
            k,
            duration,
            goodput: Vec::new(),
            p99_of: None,
        }
    }
}

/// A workload's inputs, ready to run.
pub enum Prepared {
    /// One or more single-kernel worlds, run in order.
    Kernel(Vec<Arm>),
    /// Generated programs for the scheduler x device matrix.
    Check(Vec<ProgramSpec>),
    /// A fleet configuration (`run_cluster` builds its shards itself;
    /// [`fleet`] times that build with a zero-length pass).
    Fleet(ClusterConfig),
}

/// Simulated counters of one rep; every field repeats exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounters {
    /// Completed simulated syscalls (reads + writes + fsyncs + meta).
    pub syscalls: u64,
    /// Nanoseconds processes spent parked at the syscall gate.
    pub gated_ns: u64,
    /// Process-nanoseconds available (simulated duration x processes).
    pub proc_ns: u64,
    /// Syscalls that ended in an I/O error.
    pub io_errors: u64,
    /// Events scheduled in the past and clamped.
    pub late_schedules: u64,
    /// Block requests dispatched.
    pub requests_dispatched: u64,
    /// Bytes the device moved.
    pub device_bytes: u64,
    /// Simulated seconds the device was busy.
    pub device_busy_s: f64,
    /// Simulated seconds run.
    pub sim_s: f64,
}

/// What one rep produced.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// Simulated events processed.
    pub events: u64,
    /// Ops attempted (see the README for what an op is per workload).
    pub ops: u64,
    /// Ops failed.
    pub failed: u64,
    /// FNV digest of the simulated counters.
    pub digest: u64,
    /// Simulated counters.
    pub sim: SimCounters,
    /// Simulated MB/s of the named tenants (0 where the workload names none).
    pub goodput_mbps: f64,
    /// Simulated p99 (ms) of the named operation (0 where none is named).
    pub p99_ms: f64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Workload-specific layer metrics (`sched.*`, `sim-cluster.*`).
    pub layer: Vec<(String, f64)>,
    /// The fleet's rendered report (empty elsewhere): what the parallel
    /// pass must reproduce byte for byte.
    pub report: String,
}

// ---- digest ---------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Mix bytes in.
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Mix a `u64` in.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    fn finish(self) -> u64 {
        self.0
    }
}

// ---- single-kernel workloads ----------------------------------------------

/// fig15-shaped: Split-Token on 32 cores, reader A (4 GB, 1 MB requests)
/// against 256 `MemOverwriter` threads sharing one token bucket over a
/// 2 MB resident set. Scheduler hooks are most of the host time; the
/// device and journal are idle. Goodput is A's MB/s.
fn threads_mem(seed: u64, spans: &mut Spans) -> Prepared {
    const THREADS: usize = 256;
    let (mut w, k) = spans.scoped("build", |_| {
        build_world(Setup::new(SchedChoice::SplitToken).cores(32).seed(seed))
    });
    let (a_file, mem_file) = spans.scoped("prealloc", |_| {
        let a_file = w.prealloc_file(k, 4 * GB, true);
        let mem_file = w.prealloc_file(k, 8 * MB, true);
        w.kernel_mut(k)
            .cache_mut()
            .fill(mem_file, 0, 8 * MB / PAGE_SIZE);
        (a_file, mem_file)
    });
    let a = spans.scoped("spawn", |_| {
        let a = w.spawn(k, Box::new(SeqReader::new(a_file, 4 * GB, MB)));
        for i in 0..THREADS {
            let b = w.spawn(k, Box::new(MemOverwriter::new(mem_file, 2 * MB, 64 * KB)));
            w.configure(k, b, SchedAttr::TokenGroup(1));
            if i == 0 {
                w.configure(k, b, SchedAttr::TokenRate(MB));
            }
        }
        a
    });
    Prepared::Kernel(vec![Arm {
        label: "split-token",
        w,
        k,
        duration: SimDuration::from_millis(1000),
        goodput: vec![(a, Dir::Read)],
        p99_of: None,
    }])
}

/// fig11(d)-shaped: eight priority levels of `MemOverwriter`, under CFQ
/// and then AFQ. Only eight processes, so the per-page `sim-cache` dirty
/// path dominates. Goodput is the summed MB/s over both arms.
fn mem_overwrite(seed: u64, spans: &mut Spans) -> Prepared {
    let arms = [("cfq", SchedChoice::Cfq), ("afq", SchedChoice::Afq)]
        .into_iter()
        .map(|(label, sched)| {
            let (mut w, k) = spans.scoped("build", |_| build_world(Setup::new(sched).seed(seed)));
            let files: Vec<_> = spans.scoped("prealloc", |_| {
                (0..8).map(|_| w.prealloc_file(k, 8 * MB, true)).collect()
            });
            let goodput = spans.scoped("spawn", |_| {
                files
                    .into_iter()
                    .enumerate()
                    .map(|(level, file)| {
                        let pid = w.spawn(k, Box::new(MemOverwriter::new(file, 4 * MB, 256 * KB)));
                        w.set_ioprio(k, pid, IoPrio::best_effort(level as u8));
                        (pid, Dir::Write)
                    })
                    .collect()
            });
            Arm {
                label,
                w,
                k,
                duration: SimDuration::from_secs(3),
                goodput,
                p99_of: None,
            }
        })
        .collect();
    Prepared::Kernel(arms)
}

/// fig10-shaped: 2 GB of RAM at dirty ratio 0.35, reader A against eight
/// `SeqWriter` tenants (4 GB each, 1 MB requests), under Split-Token and
/// then CFQ. Disk-bound with few events: writeback range scans and cache
/// inserts through the flush side. Goodput is A's MB/s.
fn buffered_write(seed: u64, spans: &mut Spans) -> Prepared {
    let arms = [
        ("split-token", SchedChoice::SplitToken),
        ("cfq", SchedChoice::Cfq),
    ]
    .into_iter()
    .map(|(label, sched)| {
        let (mut w, k) = spans.scoped("build", |_| {
            build_world(Setup::new(sched).mem(2 * GB).dirty_ratio(0.35).seed(seed))
        });
        let (a_file, files): (_, Vec<_>) = spans.scoped("prealloc", |_| {
            (
                w.prealloc_file(k, 4 * GB, true),
                (0..8).map(|_| w.prealloc_file(k, 4 * GB, true)).collect(),
            )
        });
        let a = spans.scoped("spawn", |_| {
            let a = w.spawn(k, Box::new(SeqReader::new(a_file, 4 * GB, MB)));
            for file in files {
                w.spawn(k, Box::new(SeqWriter::new(file, 4 * GB, MB)));
            }
            a
        });
        Arm {
            label,
            w,
            k,
            duration: SimDuration::from_secs(160),
            goodput: vec![(a, Dir::Read)],
            p99_of: None,
        }
    })
    .collect();
    Prepared::Kernel(arms)
}

/// fig_layers-shaped, on SSD at hardware queue depth 8: a latency tenant
/// (`FsyncAppender`), a noisy `RandReader` over 1 GB and a capped
/// `SeqWriter`, under the `tenant_tree` arbiter with the `LayerAuditor`
/// armed and then under flat CFQ. The only workload on the blk-mq and
/// `QueuedDevice` path, the arbiter, journal commits under fsync and the
/// clean-cache miss/evict side. p99 is the latency tenant's fsync under
/// the arbiter.
fn layers_qd8(seed: u64, spans: &mut Spans) -> Prepared {
    const CAP: u64 = 4 * MB;
    let arms = [("layered", true), ("flat-cfq", false)]
        .into_iter()
        .map(|(label, layered)| {
            let sched = if layered {
                SchedChoice::Layered
            } else {
                SchedChoice::Cfq
            };
            let setup = Setup::new(sched).on_ssd().queue_depth(8).seed(seed);
            let (mut w, k) = spans.scoped("build", |_| {
                if !layered {
                    return build_world(setup);
                }
                let specs = tenant_tree(CAP);
                let lcfg = LayeredConfig {
                    dirty_budget: Some(48 * MB),
                    eager_wb_bytes: Some(64 * KB),
                    ..LayeredConfig::default()
                };
                let arbiter =
                    build_layered(specs.clone(), lcfg).expect("tenant tree children resolve");
                let (mut w, k) = build_world_with(setup, Box::new(arbiter));
                w.kernel_mut(k)
                    .install_audit_plane(AuditPlane::new(vec![Box::new(LayerAuditor::new(specs))]));
                (w, k)
            });
            let (lat_file, noisy_file, capped_file) = spans.scoped("prealloc", |_| {
                (
                    w.prealloc_file(k, GB, true),
                    w.prealloc_file(k, GB, true),
                    w.prealloc_file(k, GB, true),
                )
            });
            // Spawn order is what binds tenants to `tenant_tree`'s pid rules.
            let lat = spans.scoped("spawn", |_| {
                let lat = w.spawn(
                    k,
                    Box::new(FsyncAppender::new(
                        lat_file,
                        256 * KB,
                        SimDuration::from_millis(20),
                    )),
                );
                w.spawn(
                    k,
                    Box::new(RandReader::new(noisy_file, GB, 64 * KB, seed ^ 0x0151)),
                );
                w.spawn(k, Box::new(SeqWriter::new(capped_file, GB, 64 * KB)));
                lat
            });
            Arm {
                label,
                w,
                k,
                duration: SimDuration::from_secs(70),
                goodput: Vec::new(),
                p99_of: layered.then_some(lat),
            }
        })
        .collect();
    Prepared::Kernel(arms)
}

fn run_arms(arms: &mut [Arm], spans: &mut Spans) {
    for arm in arms {
        // Absolute deadlines: `run_for` counts from the last event popped,
        // which would make the simulated end depend on the slicing.
        let start = arm.w.now();
        let slice_ns = arm.duration.as_nanos() / SLICES;
        spans.scoped(arm.label, |spans| {
            for i in 1..=SLICES {
                let deadline = start + SimDuration::from_nanos(slice_ns * i);
                spans.slice(|| arm.w.run_until(deadline));
            }
        });
    }
}

fn collect_arms(arms: Vec<Arm>) -> RepOutcome {
    let mut out = RepOutcome::default();
    let mut digest = Fnv::default();
    for arm in arms {
        let Arm {
            label,
            w,
            k,
            duration,
            goodput,
            p99_of,
        } = arm;
        let stats = &w.kernel(k).stats;
        let sim_s = duration.as_secs_f64();
        out.events += w.events_processed();
        out.sim.late_schedules += w.late_schedules();
        out.sim.requests_dispatched += stats.requests_dispatched;
        out.sim.device_bytes += stats.device_bytes;
        out.sim.device_busy_s += stats.disk_time.values().sum::<f64>();
        out.sim.sim_s += sim_s;
        out.sim.proc_ns += duration.as_nanos() * stats.procs.len() as u64;
        digest.u64(w.events_processed());
        digest.u64(stats.requests_dispatched);
        digest.u64(stats.device_bytes);
        let mut pids: Vec<_> = stats.procs.keys().copied().collect();
        pids.sort();
        for pid in pids {
            let p = &stats.procs[&pid];
            out.sim.syscalls +=
                p.reads + p.writes + p.fsyncs.len() as u64 + p.meta_ops.len() as u64;
            out.sim.io_errors += p.io_errors;
            out.sim.gated_ns += p.gated_time.as_nanos();
            digest.u64(p.read_bytes);
            digest.u64(p.write_bytes);
            for (_, d) in &p.fsyncs {
                digest.u64(d.as_nanos());
            }
        }
        for (pid, dir) in goodput {
            out.goodput_mbps += match dir {
                Dir::Read => stats.read_mbps(pid, duration),
                Dir::Write => stats.write_mbps(pid, duration),
            };
        }
        if let Some(pid) = p99_of {
            let ms: Vec<f64> = stats
                .proc(pid)
                .map(|s| s.fsyncs.iter().map(|(_, d)| d.as_millis_f64()).collect())
                .unwrap_or_default();
            out.p99_ms = Percentiles::new(ms).p99();
        }
        if let Some(plane) = w.kernel(k).audit_plane() {
            for v in plane.violations() {
                out.failed += 1;
                out.problems.push(format!("{label}: auditor: {v}"));
            }
        }
    }
    out.ops = out.sim.syscalls + out.sim.io_errors;
    out.failed += out.sim.io_errors + out.sim.late_schedules;
    if out.sim.io_errors > 0 {
        out.problems.push(format!(
            "{} syscall(s) ended in an I/O error",
            out.sim.io_errors
        ));
    }
    if out.sim.late_schedules > 0 {
        out.problems
            .push(format!("{} late schedule(s)", out.sim.late_schedules));
    }
    out.digest = digest.finish();
    out
}

// ---- check_batch ------------------------------------------------------------

/// Generated programs per rep.
pub const CHECK_PROGRAMS: u64 = 700;

/// The matrix the timed rep replays: every flat scheduler. The layered
/// arm never quiesces on about one program in twenty today, and timed
/// workloads are ones on which no operation fails, so that arm runs in
/// the traced rep only (see [`check_layered_arm`]) and its failures are
/// a named layer metric instead of a silent skip.
fn flat_scheds() -> impl Iterator<Item = SchedChoice> {
    ALL_SCHEDS
        .into_iter()
        .filter(|&s| s != SchedChoice::Layered)
}

/// Generated programs through every flat scheduler on both devices, with
/// the differential comparison against the noop reference done here.
/// Thousands of short-lived worlds: construction, allocation and auditor
/// cost dominate. CI's main battery.
fn check_batch(seed: u64, spans: &mut Spans) -> Prepared {
    Prepared::Check(spans.scoped("generate", |_| check_programs(seed)))
}

/// The programs `check_batch` replays for `seed`.
pub fn check_programs(seed: u64) -> Vec<ProgramSpec> {
    (0..CHECK_PROGRAMS)
        .map(|idx| generate(&mut SimRng::stream(seed, idx), &GenConfig::default()))
        .collect()
}

/// Read `dispatched=` and `device_bytes=` back out of a check fingerprint
/// (the only place `RunOutcome` carries them).
fn fingerprint_counters(fp: &str) -> (u64, u64) {
    let field = |key: &str| {
        fp.split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("dispatched="), field("device_bytes="))
}

/// Why a cell failed, if it did: an auditor violation (non-quiescence and
/// late schedules are reported as violations too), an I/O error, or
/// outcomes that differ from the noop reference on the same device.
fn cell_failure(r: &RunOutcome, reference: Option<&Vec<Vec<Obs>>>) -> Option<String> {
    if let Some(v) = r.violations.first() {
        return Some(v.clone());
    }
    if r.io_errors > 0 {
        return Some(format!("{} I/O error(s)", r.io_errors));
    }
    reference
        .is_some_and(|want| *want != r.per_proc)
        .then(|| "outcomes diverge from the noop reference".to_string())
}

/// Host cost of one scheduler arm of the matrix.
#[derive(Clone, Copy, Default)]
struct ArmCost {
    ns: u64,
    events: u64,
}

impl ArmCost {
    fn ns_per_event(self) -> f64 {
        self.ns as f64 / self.events.max(1) as f64
    }
}

fn run_check(programs: &[ProgramSpec], spans: &mut Spans) -> RepOutcome {
    let mut out = RepOutcome::default();
    let mut digest = Fnv::default();
    let mut fsync_ms = Vec::new();
    let scheds: Vec<SchedChoice> = flat_scheds().collect();
    let mut cost = vec![ArmCost::default(); scheds.len()];
    let per_slice = programs.len().div_ceil(SLICES as usize).max(1);
    for (i, chunk) in programs.chunks(per_slice).enumerate() {
        spans.slice(|| {
            for (j, spec) in chunk.iter().enumerate() {
                for &device in &ALL_DEVICES {
                    let mut reference: Option<Vec<Vec<Obs>>> = None;
                    for (si, &sched) in scheds.iter().enumerate() {
                        let t0 = Instant::now();
                        let r = run_one(spec, sched, device, None);
                        cost[si].ns += t0.elapsed().as_nanos() as u64;
                        cost[si].events += r.events;
                        let ops = r.per_proc.iter().map(|p| p.len() as u64).sum::<u64>();
                        out.events += r.events;
                        out.ops += ops;
                        out.sim.io_errors += r.io_errors;
                        let (dispatched, bytes) = fingerprint_counters(&r.fingerprint);
                        out.sim.requests_dispatched += dispatched;
                        out.sim.device_bytes += bytes;
                        digest.u64(r.events);
                        digest.bytes(r.fingerprint.as_bytes());
                        if let Some(why) = cell_failure(&r, reference.as_ref()) {
                            out.failed += ops.max(1);
                            out.problems.push(format!(
                                "program {} {}/{device:?}: {why}",
                                i * per_slice + j,
                                sched.name()
                            ));
                        }
                        fsync_ms.extend_from_slice(&r.fsync_ms);
                        reference.get_or_insert(r.per_proc);
                    }
                }
            }
        });
    }
    out.sim.syscalls = out.ops;
    out.p99_ms = Percentiles::new(fsync_ms).p99();
    out.digest = digest.finish();
    for (sched, c) in scheds.iter().zip(&cost) {
        out.layer.push((
            format!("sched.{}.ns_per_event", sched.name()),
            c.ns_per_event(),
        ));
    }
    out
}

/// What the layered arm of the matrix did on `programs`.
pub struct LayeredArm {
    /// Host ns per simulated event, as for the flat arms.
    pub ns_per_event: f64,
    /// (program, device) cells that failed.
    pub failed_cells: u64,
    /// Indices of the programs with a failed cell.
    pub failed_programs: Vec<usize>,
}

/// Replay `programs` under the default layer tree on both devices and
/// compare with the noop reference: the arm the timed rep leaves out.
pub fn check_layered_arm(programs: &[ProgramSpec]) -> LayeredArm {
    let mut cost = ArmCost::default();
    let mut failed_cells = 0;
    let mut failed_programs = Vec::new();
    for (index, spec) in programs.iter().enumerate() {
        for &device in &ALL_DEVICES {
            let reference = run_one(spec, ALL_SCHEDS[0], device, None).per_proc;
            let t0 = Instant::now();
            let r = run_one(spec, SchedChoice::Layered, device, None);
            cost.ns += t0.elapsed().as_nanos() as u64;
            cost.events += r.events;
            if cell_failure(&r, Some(&reference)).is_some() {
                failed_cells += 1;
                if failed_programs.last() != Some(&index) {
                    failed_programs.push(index);
                }
            }
        }
    }
    LayeredArm {
        ns_per_event: cost.ns_per_event(),
        failed_cells,
        failed_programs,
    }
}

/// Host time of Split-Token wrapped in a one-layer tree over host time of
/// flat Split-Token, on the same programs (the two are proven to produce
/// the same event stream, so the ratio is the arbiter's pass-through cost).
pub fn single_layer_vs_flat(programs: &[ProgramSpec]) -> f64 {
    let (mut wrapped, mut flat) = (0u64, 0u64);
    for spec in programs {
        for &device in &ALL_DEVICES {
            let t0 = Instant::now();
            std::hint::black_box(run_one_single_layer(spec, SchedChoice::SplitToken, device));
            wrapped += t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            std::hint::black_box(run_one(spec, SchedChoice::SplitToken, device, None));
            flat += t0.elapsed().as_nanos() as u64;
        }
    }
    wrapped as f64 / flat.max(1) as f64
}

// ---- fleet ------------------------------------------------------------------

/// 64 kernels in groups of three, Split-Token on HDD, open-loop Poisson
/// at 20 requests/s per group for 60 simulated seconds. `sim-cluster`'s
/// window executor, traffic and routing are the work; kernel phases are
/// under half. p99 is put end-to-end.
fn fleet(seed: u64, spans: &mut Spans) -> Prepared {
    let cfg = fleet_config(seed);
    // `run_cluster` builds its shards and traffic itself. A zero-length
    // pass does exactly that build and nothing else, which puts the build
    // inside the timed set-up; the run then pays it a second time.
    spans.scoped("build", |_| {
        std::hint::black_box(run_cluster(
            &ClusterConfig {
                duration: SimDuration::ZERO,
                ..cfg
            },
            1,
        ))
    });
    Prepared::Fleet(cfg)
}

/// The fleet `fleet` runs for `seed`.
pub fn fleet_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        kernels: 64,
        replication: 3,
        arrival: ArrivalKind::Poisson { rate: 20.0 },
        duration: SimDuration::from_secs(60),
        seed,
        ..ClusterConfig::default()
    }
}

/// Digest of a fleet report: its rendered summary (what CI diffs across
/// `--jobs`) plus every sample's completion time.
fn fleet_digest(r: &ClusterReport) -> u64 {
    let mut d = Fnv::default();
    d.bytes(r.render().as_bytes());
    for s in &r.samples {
        d.u64(s.req);
        d.u64(s.done.as_nanos());
    }
    d.finish()
}

fn collect_fleet(cfg: &ClusterConfig, r: &ClusterReport) -> RepOutcome {
    let mut out = RepOutcome::default();
    let done = r.samples.len() as u64;
    // An open loop cut off at a fixed instant always has the requests that
    // arrived in its last few milliseconds in flight: Little's law gives
    // the steady-state count as rate x mean latency. Only what is in
    // flight beyond four times that is a backlog, and counts as failed.
    let mean_e2e_s = r.samples.iter().map(|s| s.e2e_ms).sum::<f64>() / 1e3 / done.max(1) as f64;
    let steady = done as f64 / r.duration_s * mean_e2e_s;
    let backlog = r
        .inflight
        .saturating_sub((4.0 * steady).ceil() as u64 + r.groups as u64);
    out.events = r.events;
    out.ops = done + r.inflight;
    out.failed = backlog + r.late;
    if backlog > 0 {
        out.problems.push(format!(
            "{} request(s) in flight at the end against a steady state of {steady:.1}",
            r.inflight
        ));
    }
    if r.late > 0 {
        out.problems.push(format!("{} late schedule(s)", r.late));
    }
    out.sim.syscalls = done;
    out.sim.late_schedules = r.late;
    out.sim.sim_s = r.duration_s;
    out.p99_ms = r.slo.put_e2e.p99;
    let puts = r.samples.iter().filter(|s| s.kind == ReqKind::Put).count() as u64;
    out.goodput_mbps =
        (puts * cfg.wal_bytes + (done - puts) * cfg.get_bytes) as f64 / 1e6 / r.duration_s;
    out.digest = fleet_digest(r);
    out.report = r.render();
    let lookahead = cfg.net.lookahead().as_nanos().max(1);
    let windows = cfg.duration.as_nanos().div_ceil(lookahead).max(1);
    out.layer.push((
        "sim-cluster.events_per_window".to_string(),
        r.events as f64 / windows as f64,
    ));
    out.layer
        .push(("sim-cluster.inflight_at_end".to_string(), r.inflight as f64));
    out
}

// ---- run and collect --------------------------------------------------------

/// A rep that has run to its fixed simulated end and not been read yet.
pub enum Ran {
    /// The advanced worlds.
    Kernel(Vec<Arm>),
    /// The matrix folds its outcomes as it goes: holding ten thousand
    /// `RunOutcome`s to read later would be the benchmark's memory, not
    /// the checker's.
    Check(Box<RepOutcome>),
    /// The fleet's report.
    Fleet(ClusterConfig, Box<ClusterReport>),
}

impl Prepared {
    /// Run to the fixed simulated end. This is what `wall_s` times.
    pub fn run(self, spans: &mut Spans) -> Ran {
        match self {
            Prepared::Kernel(mut arms) => {
                run_arms(&mut arms, spans);
                Ran::Kernel(arms)
            }
            Prepared::Check(programs) => Ran::Check(Box::new(run_check(&programs, spans))),
            // `run_cluster` is one call: the fleet's run is one slice.
            Prepared::Fleet(cfg) => Ran::Fleet(cfg, Box::new(spans.slice(|| run_cluster(&cfg, 1)))),
        }
    }
}

impl Ran {
    /// Read the simulated counters and check the outputs.
    pub fn collect(self) -> RepOutcome {
        match self {
            Ran::Kernel(arms) => collect_arms(arms),
            Ran::Check(out) => *out,
            Ran::Fleet(cfg, report) => collect_fleet(&cfg, &report),
        }
    }
}
