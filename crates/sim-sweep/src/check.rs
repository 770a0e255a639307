//! `runner check` — generative differential checking of the whole stack.
//!
//! Each generated program (see `sim-check`) is replayed under every
//! scheduler on both device models with the invariant auditor plane
//! installed. Two independent oracles run per program:
//!
//! 1. **Auditors** — cause-tag conservation, dirty-page accounting,
//!    journal write ordering, scheduler ledgers, and event-queue sanity,
//!    checked continuously inside the kernel.
//! 2. **Differential** — the per-process sequence of syscall outcomes
//!    (bytes read/written, fsync durability, creat/unlink completions)
//!    must be identical to the `noop` reference on the same device:
//!    schedulers reorder and delay I/O but must never change results.
//!
//! A failing program is minimized with `sim-check`'s delta-debugging
//! shrinker (`--shrink`) and printed as a replayable spec; feed the text
//! back with `--replay FILE` to reproduce a report without re-fuzzing.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sim_check::{
    generate, shrink, AuditPlane, FileRef, GenConfig, LayerAuditor, OpSpec, ProgramSpec, Sabotaged,
    Trigger,
};
use sim_core::{run_indexed, FileId, IoErrorKind, SimDuration, SimRng};
use sim_experiments::setup::{
    build_layered, default_layer_tree, kernel_config, DeviceChoice, SchedChoice, Setup,
};
use sim_fault::{ChaosConfig, DeviceFaultPlane};
use sim_kernel::{Outcome, ProcAction, ProcessLogic, World};
use split_core::{IoSched, SyscallKind};
use split_layered::{LayerRule, LayerSpec, Layered, LayeredConfig};

/// Every scheduler the matrix covers; `ALL_SCHEDS[0]` is the reference.
pub const ALL_SCHEDS: [SchedChoice; 10] = SchedChoice::ALL;

/// Both device models.
pub const ALL_DEVICES: [DeviceChoice; 2] = DeviceChoice::ALL;

/// A syscall outcome normalized for cross-scheduler comparison: file ids
/// and cache-hit flags depend on scheduling order, results do not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Obs {
    /// A read returned this many bytes.
    Read(u64),
    /// A write buffered this many bytes.
    Written(u64),
    /// An fsync became durable.
    Synced,
    /// A creat finished.
    Created,
    /// A mkdir/unlink finished.
    Meta,
    /// The call failed with this error kind.
    Failed(IoErrorKind),
}

/// One simulation's observable result.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-process outcome sequences, in spec order.
    pub per_proc: Vec<Vec<Obs>>,
    /// Auditor violations (plus harness-level failures like non-quiescence).
    pub violations: Vec<String>,
    /// The kernel's I/O error count (fault-injection composition checks).
    pub io_errors: u64,
    /// Deterministic digest of the kernel's end-of-run counters
    /// (dispatches, device bytes, per-pid traffic and fsync latencies).
    /// Two runs that scheduled the same events produce equal strings —
    /// `tests/golden/check_fingerprints.txt` pins these across builds.
    pub fingerprint: String,
    /// Events the world processed (the bench harness's unit of work).
    pub events: u64,
    /// Completed fsync latencies, milliseconds, ordered by pid then
    /// completion (deterministic; feeds the bench report's SLO
    /// percentiles).
    pub fsync_ms: Vec<f64>,
}

/// Render the counters that must match between two runs of the same
/// simulation into one comparable line.
fn fingerprint(stats: &sim_kernel::KernelStats) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "dispatched={} device_bytes={}",
        stats.requests_dispatched, stats.device_bytes
    );
    let mut pids: Vec<_> = stats.procs.keys().copied().collect();
    pids.sort();
    for pid in pids {
        let p = &stats.procs[&pid];
        let _ = write!(
            out,
            " pid{}[r={} w={} fsync_ns={:?}]",
            pid.0,
            p.read_bytes,
            p.write_bytes,
            p.fsyncs
                .iter()
                .map(|(_, d)| d.as_nanos())
                .collect::<Vec<_>>()
        );
    }
    out
}

/// Replays one process's op list, mapping file references to real ids as
/// creats complete.
struct Replayer {
    ops: Vec<OpSpec>,
    idx: usize,
    shared: Rc<Vec<FileId>>,
    own: Vec<FileId>,
    obs: Rc<RefCell<Vec<Obs>>>,
    exited: Rc<Cell<usize>>,
}

impl Replayer {
    fn file(&self, r: FileRef) -> FileId {
        match r {
            FileRef::Shared(i) => self.shared[i],
            FileRef::Own(i) => self.own[i],
        }
    }
}

impl ProcessLogic for Replayer {
    fn next(&mut self, _now: sim_core::SimTime, last: &Outcome) -> ProcAction {
        match last {
            Outcome::None => {}
            Outcome::Read { bytes, .. } => self.obs.borrow_mut().push(Obs::Read(*bytes)),
            Outcome::Written { bytes } => self.obs.borrow_mut().push(Obs::Written(*bytes)),
            Outcome::Synced => self.obs.borrow_mut().push(Obs::Synced),
            Outcome::Created(f) => {
                self.own.push(*f);
                self.obs.borrow_mut().push(Obs::Created);
            }
            Outcome::MetaDone => self.obs.borrow_mut().push(Obs::Meta),
            Outcome::Failed(e) => self.obs.borrow_mut().push(Obs::Failed(e.kind)),
        }
        let Some(op) = self.ops.get(self.idx).cloned() else {
            self.exited.set(self.exited.get() + 1);
            return ProcAction::Exit;
        };
        self.idx += 1;
        match op {
            OpSpec::Read { file, offset, len } => ProcAction::Syscall(SyscallKind::Read {
                file: self.file(file),
                offset,
                len,
            }),
            OpSpec::Write { file, offset, len } => ProcAction::Syscall(SyscallKind::Write {
                file: self.file(file),
                offset,
                len,
            }),
            OpSpec::Fsync { file } => ProcAction::Syscall(SyscallKind::Fsync {
                file: self.file(file),
            }),
            OpSpec::Creat => ProcAction::Syscall(SyscallKind::Create),
            OpSpec::Unlink { own } => ProcAction::Syscall(SyscallKind::Unlink {
                file: self.own[own],
            }),
            OpSpec::Mkdir => ProcAction::Syscall(SyscallKind::Mkdir),
            OpSpec::Sleep { micros } => ProcAction::Sleep(SimDuration::from_micros(micros)),
            OpSpec::Compute { micros } => ProcAction::Compute(SimDuration::from_micros(micros)),
        }
    }
}

/// Drain cap: a generated program lasts a few simulated seconds; a run
/// that has not quiesced after this much simulated time is itself a bug.
const QUIESCE_CAP_SECS: u64 = 600;

/// Everything [`run_with`] can turn on besides the scheduler/device
/// pair; `RunOpts::default()` is the plain run at queue depth 1.
pub struct RunOpts {
    /// Wrap the scheduler with the cause-corrupting shim, armed by this
    /// trigger: after N block adds (mutation testing of the audit plane),
    /// or once a data request outlives a dwell horizon (mutation testing
    /// of the chaos plane — that race is unreachable without adversarial
    /// timing, so a plain run must stay clean and a chaos run must trip
    /// the cause-tag auditor).
    pub sabotage: Option<Trigger>,
    /// Install a device fault plan: faults must surface as errors (in
    /// outcomes and `io_errors`) rather than tripping auditors or
    /// vanishing.
    pub faults: Option<DeviceFaultPlane>,
    /// Hardware queue depth (1 by default). `tests/queue_equivalence.rs`
    /// pins the default's outcomes and holds deeper queues to the same
    /// syscall results.
    pub queue_depth: u32,
    /// Plant one deliberately-late event after the drain (the `runner
    /// check --inject-late` probe): the run must then fail through both
    /// the event-queue auditor and the drain gate.
    pub inject_late: bool,
    /// Install the chaos plane.
    pub chaos: Option<ChaosConfig>,
    /// Custom layer tree: replaces the scheduler under test with a
    /// layered arbiter over these specs (`runner check --layers`, the
    /// layer mutation tests). Kernel flags follow `sched`, so pass
    /// [`SchedChoice::Layered`].
    pub layers: Option<Vec<LayerSpec>>,
    /// Plant the cap-leak bug in the layered arbiter (mutation testing
    /// of the `LayerAuditor`): every Nth bucket charge is skipped.
    /// Meaningful only together with `layers`.
    pub cap_leak: Option<u64>,
    /// Wrap the flat scheduler in [`Layered::single`] — a one-layer tree
    /// with no cap and no dirty budget, which must be byte-identical to
    /// the flat scheduler in every field including `fingerprint`
    /// (`tests/layer_equivalence.rs`).
    pub wrap_single_layer: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            sabotage: None,
            faults: None,
            queue_depth: 1,
            inject_late: false,
            chaos: None,
            layers: None,
            cap_leak: None,
            wrap_single_layer: false,
        }
    }
}

/// Replay `spec` under one scheduler/device pair with auditors installed.
/// `sabotage` wraps the scheduler with the cause-corrupting shim after
/// that many block adds (mutation testing).
pub fn run_one(
    spec: &ProgramSpec,
    sched: SchedChoice,
    device: DeviceChoice,
    sabotage: Option<u64>,
) -> RunOutcome {
    run_with(
        spec,
        sched,
        device,
        RunOpts {
            sabotage: sabotage.map(Trigger::AfterAdds),
            ..Default::default()
        },
    )
}

/// [`run_one`] with the flat scheduler wrapped in a single-layer tree
/// (see [`RunOpts::wrap_single_layer`]).
pub fn run_one_single_layer(
    spec: &ProgramSpec,
    sched: SchedChoice,
    device: DeviceChoice,
) -> RunOutcome {
    run_with(
        spec,
        sched,
        device,
        RunOpts {
            wrap_single_layer: true,
            ..Default::default()
        },
    )
}

/// Replay `spec` under one scheduler/device pair with auditors installed,
/// on the planes and with the planted bugs `opts` selects.
pub fn run_with(
    spec: &ProgramSpec,
    sched: SchedChoice,
    device: DeviceChoice,
    opts: RunOpts,
) -> RunOutcome {
    let mut setup = Setup::new(sched);
    setup.device = device;
    setup.queue_depth = opts.queue_depth;
    setup.chaos = opts.chaos;
    let cfg = kernel_config(setup);
    // The layer plane gets its own auditor battery on top of the
    // standard one: classification replay needs the tree, so the
    // harness mirrors whichever tree the run installs (custom specs,
    // the default tree for `SchedChoice::Layered`, or the degenerate
    // single-layer wrapper).
    let audit_tree: Option<Vec<LayerSpec>> = match (&opts.layers, opts.wrap_single_layer) {
        (Some(specs), _) => Some(specs.clone()),
        (None, true) => Some(vec![LayerSpec::new(
            "all",
            LayerRule::Default,
            sched.name(),
        )]),
        (None, false) if sched == SchedChoice::Layered => Some(default_layer_tree()),
        (None, false) => None,
    };
    let mut plane = AuditPlane::standard();
    if let Some(tree) = audit_tree {
        plane.push(Box::new(LayerAuditor::new(tree)));
    }
    let base: Box<dyn IoSched> = match (&opts.layers, opts.wrap_single_layer) {
        (Some(specs), _) => {
            let lcfg = LayeredConfig {
                cap_leak_every: opts.cap_leak,
                ..Default::default()
            };
            Box::new(build_layered(specs.clone(), lcfg).expect("caller-validated layer tree"))
        }
        (None, true) => Box::new(Layered::single(sched.build())),
        (None, false) => sched.build(),
    };
    let sched_box: Box<dyn IoSched> = match opts.sabotage {
        Some(trigger) => Box::new(Sabotaged::new(base, trigger)),
        None => base,
    };
    let mut w = World::new();
    let k = w.add_kernel(cfg, device.build(), sched_box);
    w.kernel_mut(k).install_audit_plane(plane);
    if let Some(faults) = opts.faults {
        w.kernel_mut(k).install_fault_plane(faults);
    }

    let shared = Rc::new(
        (0..spec.shared_files)
            .map(|_| w.prealloc_file(k, spec.shared_bytes, true))
            .collect::<Vec<FileId>>(),
    );
    let exited = Rc::new(Cell::new(0usize));
    let sinks: Vec<Rc<RefCell<Vec<Obs>>>> = spec
        .procs
        .iter()
        .map(|p| {
            let obs = Rc::new(RefCell::new(Vec::new()));
            w.spawn(
                k,
                Box::new(Replayer {
                    ops: p.ops.clone(),
                    idx: 0,
                    shared: Rc::clone(&shared),
                    own: Vec::new(),
                    obs: Rc::clone(&obs),
                    exited: Rc::clone(&exited),
                }),
            );
            obs
        })
        .collect();

    // Drain: run until every process exited and the block layer idles,
    // then one grace window so the periodic journal commit flushes the
    // final transaction (dirty pages below the writeback threshold
    // legitimately remain).
    let mut elapsed = 0u64;
    let mut quiesced = false;
    while elapsed < QUIESCE_CAP_SECS {
        w.run_for(SimDuration::from_secs(1));
        elapsed += 1;
        if exited.get() == spec.procs.len() && w.kernel(k).block_idle() {
            w.run_for(SimDuration::from_secs(10));
            elapsed += 10;
            if w.kernel(k).block_idle() {
                quiesced = true;
                break;
            }
        }
    }
    if opts.inject_late {
        w.inject_late_schedule();
    }
    if quiesced {
        w.audit_quiesce(k);
    } else {
        w.audit_stalled(k);
    }

    let mut violations: Vec<String> = w
        .kernel(k)
        .audit_plane()
        .map(|p| p.violations().iter().map(|v| v.to_string()).collect())
        .unwrap_or_default();
    if !quiesced {
        violations.push(format!(
            "program failed to quiesce within {QUIESCE_CAP_SECS} simulated seconds"
        ));
    }
    // Drain gate: independent of the auditor plane, a drained run with a
    // nonzero late-schedule count can never pass — release builds clamp
    // late events instead of asserting, and the clamp means an event
    // fired at the wrong simulated time.
    let late = w.late_schedules();
    if late > 0 {
        violations.push(format!(
            "drain gate: {late} event(s) scheduled in the past were clamped to now"
        ));
    }
    let stats = &w.kernel(k).stats;
    let mut fsync_ms: Vec<f64> = Vec::new();
    let mut pids: Vec<_> = stats.procs.keys().copied().collect();
    pids.sort();
    for pid in pids {
        fsync_ms.extend(
            stats.procs[&pid]
                .fsyncs
                .iter()
                .map(|(_, d)| d.as_millis_f64()),
        );
    }
    RunOutcome {
        per_proc: sinks.into_iter().map(|s| s.take()).collect(),
        violations,
        io_errors: stats.io_errors,
        fingerprint: fingerprint(stats),
        events: w.events_processed(),
        fsync_ms,
    }
}

/// Run the full scheduler × device matrix on one program, on the planes
/// `planes` selects (its generation fields — `programs`, `jobs`,
/// `root_seed`, `shrink` — play no part). Returns one message per problem
/// found (empty means the program checks clean).
///
/// The differential oracle is the same on every plane: a deep queue may
/// be exploited but must never change syscall results, and under chaos
/// the noop reference replays under the *same* chaos config — syscall
/// outcomes are timing-invariant, so schedulers must still agree with it
/// while the auditors watch every perturbed interleaving. `inject_late`
/// poisons every run with one deliberately-late event, so a passing gate
/// proves `runner check --inject-late` exits nonzero.
pub fn check_program(spec: &ProgramSpec, planes: &CheckConfig) -> Vec<String> {
    let run = |sched: SchedChoice, device| {
        // A custom tree (`--layers`) replaces the default tree on the
        // layered arm of the matrix; flat arms are unaffected.
        let layers = match (sched, &planes.layers) {
            (SchedChoice::Layered, Some(tree)) => Some(tree.clone()),
            _ => None,
        };
        run_with(
            spec,
            sched,
            device,
            RunOpts {
                queue_depth: planes.queue_depth,
                inject_late: planes.inject_late,
                chaos: planes.chaos,
                layers,
                ..Default::default()
            },
        )
    };
    let mut problems = Vec::new();
    for &device in &ALL_DEVICES {
        let reference = run(ALL_SCHEDS[0], device);
        for v in &reference.violations {
            problems.push(format!("noop/{}: {v}", device.name()));
        }
        for &sched in &ALL_SCHEDS[1..] {
            let r = run(sched, device);
            let label = format!("{}/{}", sched.name(), device.name());
            for v in &r.violations {
                problems.push(format!("{label}: {v}"));
            }
            if r.per_proc != reference.per_proc {
                for (pi, (got, want)) in r.per_proc.iter().zip(&reference.per_proc).enumerate() {
                    if got != want {
                        problems.push(format!(
                            "{label}: proc {pi} outcomes diverge from noop reference \
                             (got {got:?}, want {want:?})"
                        ));
                    }
                }
            }
        }
    }
    problems
}

/// `runner check` parameters.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Programs to generate and check.
    pub programs: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Root seed; `(root_seed, index)` names each program.
    pub root_seed: u64,
    /// Minimize failing programs before reporting.
    pub shrink: bool,
    /// Hardware queue depth of every run (`runner check --queue-depth`).
    pub queue_depth: u32,
    /// Plant one deliberately-late event per run so the late-schedule
    /// gate can be demonstrated to fail (`runner check --inject-late`).
    pub inject_late: bool,
    /// Chaos plane for every run in the batch (`runner check --chaos`).
    pub chaos: Option<ChaosConfig>,
    /// Custom layer tree for the layered arm of the matrix
    /// (`runner check --layers SPEC`); `None` uses the default tree.
    pub layers: Option<Vec<LayerSpec>>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            programs: 50,
            jobs: 1,
            root_seed: 0,
            shrink: false,
            queue_depth: 1,
            inject_late: false,
            chaos: None,
            layers: None,
        }
    }
}

/// One failing program, ready to print.
#[derive(Debug)]
pub struct CheckFailure {
    /// Generation index under the root seed (u64::MAX for `--replay`).
    pub index: u64,
    /// Everything that went wrong.
    pub problems: Vec<String>,
    /// The failing program's replayable spec.
    pub program: String,
    /// The minimized spec, when shrinking ran and made progress.
    pub shrunk: Option<String>,
}

/// What a check run found.
#[derive(Debug)]
pub struct CheckReport {
    /// Programs checked.
    pub programs: usize,
    /// Failures, in generation order.
    pub failures: Vec<CheckFailure>,
}

impl CheckReport {
    /// Human-readable report (what `runner check` prints).
    pub fn render(&self, root_seed: u64) -> String {
        let mut out = String::new();
        if self.failures.is_empty() {
            out.push_str(&format!(
                "check: {} program(s) clean across {} scheduler(s) x {} device(s)\n",
                self.programs,
                ALL_SCHEDS.len(),
                ALL_DEVICES.len()
            ));
            return out;
        }
        for f in &self.failures {
            out.push_str(&format!(
                "FAIL program {} (seed {root_seed}, stream {}):\n",
                f.index, f.index
            ));
            for p in &f.problems {
                out.push_str(&format!("  {p}\n"));
            }
            match &f.shrunk {
                Some(s) => out.push_str(&format!("  minimized reproducer:\n{s}\n")),
                None => out.push_str(&format!("  program:\n{}\n", f.program)),
            }
        }
        out.push_str(&format!(
            "check: {} of {} program(s) FAILED\n",
            self.failures.len(),
            self.programs
        ));
        out
    }
}

fn fail_from(
    spec: &ProgramSpec,
    index: u64,
    problems: Vec<String>,
    cfg: &CheckConfig,
) -> CheckFailure {
    // Shrinking replays the whole matrix per candidate, under the same
    // planes that caught the failure — a chaos-only bug must stay
    // reproducible at every shrink step. Injected late-schedule failures
    // are in the harness, not the program, so there is nothing for the
    // shrinker to minimize.
    let shrunk = if cfg.shrink && !cfg.inject_late {
        let small = shrink(spec, |p| !check_program(p, cfg).is_empty());
        (small.syscall_count() < spec.syscall_count()).then(|| small.to_string())
    } else {
        None
    };
    CheckFailure {
        index,
        problems,
        program: spec.to_string(),
        shrunk,
    }
}

/// Generate and check `cfg.programs` programs in parallel.
pub fn run_check(cfg: &CheckConfig) -> CheckReport {
    let indices: Vec<u64> = (0..cfg.programs as u64).collect();
    let results = run_indexed(indices, cfg.jobs, |&idx| {
        let spec = generate(
            &mut SimRng::stream(cfg.root_seed, idx),
            &GenConfig::default(),
        );
        let problems = check_program(&spec, cfg);
        (idx, spec, problems)
    });
    // Shrinking stays on the (rare) failure path and out of the
    // parallel section.
    let failures = results
        .into_iter()
        .filter(|(_, _, problems)| !problems.is_empty())
        .map(|(idx, spec, problems)| fail_from(&spec, idx, problems, cfg))
        .collect();
    CheckReport {
        programs: cfg.programs,
        failures,
    }
}

/// Most shared files a replay file may ask for. Each is preallocated
/// before the first op runs; the generator never makes more than 3.
const MAX_REPLAY_SHARED: usize = 64;

/// A replay file is outside input: refuse — never repair — a program the
/// harness cannot run as written. Valid programs (anything the generator
/// or the shrinker printed) are fixed points of [`ProgramSpec::sanitize`];
/// one it would alter has a file reference with nothing behind it (the
/// replayer would index out of bounds) or an operand beyond the fuzzer's
/// limits (a 16 PiB write). Names the first offender.
fn refuse_invalid(spec: &ProgramSpec) -> Result<(), String> {
    if spec.shared_files > MAX_REPLAY_SHARED {
        return Err(format!(
            "program header: shared={} exceeds the limit of {MAX_REPLAY_SHARED}",
            spec.shared_files
        ));
    }
    let valid = spec.sanitize();
    if valid.shared_bytes != spec.shared_bytes {
        return Err(format!(
            "program header: bytes={} is out of range (nearest valid: {})",
            spec.shared_bytes, valid.shared_bytes
        ));
    }
    for (pi, (given, kept)) in spec.procs.iter().zip(&valid.procs).enumerate() {
        // `sanitize` drops or rewrites ops but never reorders them, so the
        // first position where the two lists part is the first bad op.
        let mismatch = given.ops.iter().zip(&kept.ops).position(|(g, k)| g != k);
        let oi = mismatch.unwrap_or(kept.ops.len());
        if oi == given.ops.len() {
            continue;
        }
        return Err(format!(
            "proc {pi} op {oi}: `{}` names a file that does not exist at that point \
             or an operand out of range",
            given.ops[oi]
        ));
    }
    Ok(())
}

/// Check one program parsed from a replay file (see [`ProgramSpec::parse`])
/// on the planes `cfg` selects — a reproducer minted by `check --chaos`,
/// `--queue-depth`, `--layers` or `--inject-late` needs the same planes to
/// reproduce. `cfg`'s generation fields (`programs`, `jobs`, `root_seed`)
/// do not apply; the runner refuses them beside `--replay`.
pub fn run_replay(text: &str, cfg: &CheckConfig) -> Result<CheckReport, String> {
    let spec = ProgramSpec::parse(text)?;
    refuse_invalid(&spec)?;
    let problems = check_program(&spec, cfg);
    let failures = if problems.is_empty() {
        Vec::new()
    } else {
        vec![fail_from(&spec, u64::MAX, problems, cfg)]
    };
    Ok(CheckReport {
        programs: 1,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trivial_program_runs_clean_on_the_reference() {
        let spec = ProgramSpec::parse(
            "program shared=1 bytes=65536\n\
             proc\n\
             write s0 0 8192\n\
             fsync s0\n\
             end\n",
        )
        .unwrap();
        let r = run_one(&spec, SchedChoice::Noop, DeviceChoice::Ssd, None);
        assert_eq!(r.violations, Vec::<String>::new());
        assert_eq!(
            r.per_proc,
            vec![vec![Obs::Written(8192), Obs::Synced]],
            "outcome sequence"
        );
        assert_eq!(r.io_errors, 0);
    }

    #[test]
    fn injected_late_schedule_fails_an_otherwise_clean_run() {
        let spec = ProgramSpec::parse(
            "program shared=1 bytes=65536\n\
             proc\n\
             write s0 0 8192\n\
             fsync s0\n\
             end\n",
        )
        .unwrap();
        let r = run_with(
            &spec,
            SchedChoice::Noop,
            DeviceChoice::Ssd,
            RunOpts {
                inject_late: true,
                ..Default::default()
            },
        );
        // Both the event-queue auditor and the harness's drain gate
        // must flag the planted late event.
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("scheduled in the past") && !v.contains("drain gate")),
            "auditor violation missing: {:?}",
            r.violations
        );
        assert!(
            r.violations.iter().any(|v| v.contains("drain gate")),
            "drain gate violation missing: {:?}",
            r.violations
        );
    }

    #[test]
    fn outcomes_match_across_schedulers_for_a_small_program() {
        let spec = ProgramSpec::parse(
            "program shared=2 bytes=65536\n\
             proc\n\
             write s0 0 16384\n\
             creat\n\
             write o0 0 4096\n\
             fsync o0\n\
             read s1 0 8192\n\
             unlink o0\n\
             end\n\
             proc\n\
             write s1 4096 100\n\
             fsync s1\n\
             end\n",
        )
        .unwrap();
        let problems = check_program(&spec, &CheckConfig::default());
        assert_eq!(problems, Vec::<String>::new());
    }
}
