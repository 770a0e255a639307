//! Experiment runner: regenerates the paper's tables and figures, and
//! drives parameter sweeps.
//!
//! The synopsis, the target list (one name per row of
//! `sim_experiments::registry::FIGURES`, plus `all`, the default) and
//! the scheduler, device, arrival and chaos-class names are the usage
//! text, which any usage error prints (there is no `--help` flag, so
//! `runner --help` is one). What the synopsis cannot say is below.
//!
//! `--paper` uses the longer paper-scale configurations; the default
//! quick profiles finish in seconds each (release build recommended).
//! `--csv` additionally writes raw per-figure series under `results/`.
//! `--trace` runs fig12 with span tracing on and writes Chrome
//! trace-event JSON (open in Perfetto / `chrome://tracing`) under
//! `results/`. Either is refused when no selected target takes it.
//! `--faults` (or the `faults` target) runs the fault-injection sweep;
//! it is *not* part of `all` — the figures stay a fault-free,
//! bit-reproducible baseline — and it is the one target that can fail
//! the run (exit code 1 on a consistency violation).
//!
//! `--jobs N` runs figures on N worker threads. Scenarios are seeded
//! per cell, not per thread, so the output is byte-identical to
//! `--jobs 1`.
//!
//! `sweep` replicates each selected figure across `--seeds N` seeds
//! (default 3) split deterministically from `--root-seed` (default 0),
//! aggregates every metric to mean / stddev / 95% CI, prints the table,
//! and writes `results/sweeps/sweep.{csv,json}`. `--sched` / `--device`
//! add grid axes, applied to the figures that support them and refused
//! when no selected figure does.
//!
//! `check` fuzzes `--programs N` generated syscall programs (default 50)
//! through every scheduler on both devices with the invariant auditors
//! installed, comparing outcomes against the noop reference. `--shrink`
//! minimizes any failure to a small replayable spec; `--replay FILE`
//! re-checks a previously printed spec instead of generating, on the
//! planes the other flags select (so `--programs`, `--jobs` and
//! `--root-seed` do not combine with it).
//! `--queue-depth N` replays the matrix at hardware queue depth N
//! instead of the default 1.
//! `--chaos` installs the chaos plane: every run's writeback wakeups,
//! CPU slices, journal commit timing, and device completion
//! order are perturbed within legal bounds, seeded by `--chaos-seed N`
//! (default 0) so a failing batch replays identically.
//! `--chaos-classes wb,cpu,journal,complete` restricts perturbation to
//! the listed classes (each draws from an independent seed stream, so
//! the others' draws are unchanged). The differential oracle is
//! unchanged under chaos: the noop reference runs under the same chaos
//! config, and shrinking replays candidates under it too.
//! `--inject-late` plants one deliberately-late event per run, proving
//! the event-queue late-schedule gate fails the run (the exit code must
//! be 1 with it, 0 without). `--layers SPEC` replaces the layered arm's
//! default 3-layer tree with a custom one (grammar:
//! `NAME:RULE:POLICY:CHILD` joined by `;`, see `split-layered`);
//! malformed specs — unknown policy, zero cap, duplicate layer name,
//! unknown child scheduler — are a usage error (exit code 2).
//! Exit code 1 on any violation.
//!
//! `profile FIGURE` runs one figure with the DES self-profiler on,
//! prints the per-phase wall-clock table, and writes
//! `results/profile_<fig>.{json,csv}`. Profiling reads host time only;
//! the figure's simulated output is byte-identical to an unprofiled
//! run.
//!
//! `cluster` runs the sharded serving fleet: `--kernels N` simulated
//! kernels (default 16) in replication groups of 3, open-loop
//! `--arrival poisson|diurnal|flash` traffic at `--rate R` req/s per
//! group, for `--duration SECS` simulated seconds, under
//! `--sched split-token|cfq`, and prints the fleet-wide SLO table.
//! `--jobs N` runs the replication groups, each its own conservative
//! window loop, on N worker threads; the output is byte-identical to
//! `--jobs 1` (CI diffs the two). `--csv` writes the raw per-request
//! samples under `results/`.
//!
//! Unknown targets or flags, and flags the selected subcommand does not
//! take, are an error: usage goes to stderr and the exit code is 2, so
//! a misspelled `fig99` can't silently run nothing and exit 0, and
//! `fig03 --shrink` can't silently ignore the flag. Host-cost
//! measurement lives in `benchmark/` (splitbench), not here.

use sim_experiments as exp;

use exp::registry::{self, Figure, Takes, FIGURES};
use exp::setup::{DeviceChoice, SchedChoice};
use sim_core::alloc_count;
use sim_core::prof::{self, Phase, Profiler};
use sim_core::SimDuration;
use sim_fault::{ChaosClass, ChaosConfig};
use sim_sweep::{run_check, run_figures, run_replay, run_sweep, CheckConfig, SweepSpec};

const SYNOPSIS: &str = "\
usage: runner [--paper] [--csv] [--trace] [--faults] [--jobs N] [TARGET...]
       runner sweep [FIGURE...] [--seeds N] [--jobs N] [--root-seed N]
                    [--sched NAME]... [--device NAME]... [--paper]
       runner check [--programs N] [--jobs N] [--root-seed N] [--shrink]
                    [--queue-depth N] [--chaos] [--chaos-seed N]
                    [--chaos-classes LIST] [--inject-late] [--layers SPEC]
                    [--replay FILE]
       runner profile FIGURE [--paper]
       runner cluster [--kernels N] [--jobs N] [--arrival NAME] [--rate R]
                      [--duration SECS] [--seed N] [--sched NAME] [--csv]";

fn die(msg: &str) -> ! {
    eprintln!("runner: {msg}");
    eprintln!("{SYNOPSIS}\n");
    eprintln!("{}", registry::usage_targets());
    let subcommands: Vec<_> = Mode::SUBCOMMANDS.iter().map(|m| m.name()).collect();
    let scheds: Vec<_> = SchedChoice::ALL.iter().map(|s| s.name()).collect();
    let devices: Vec<_> = DeviceChoice::ALL.iter().map(|d| d.name()).collect();
    eprintln!("subcommands: {}", subcommands.join(" "));
    eprintln!("arrivals: poisson diurnal flash");
    eprintln!("chaos classes: wb cpu journal complete");
    eprintln!("scheds: {}", scheds.join(" "));
    eprintln!("devices: {}", devices.join(" "));
    std::process::exit(2);
}

/// Write a raw artifact (CSV series, Chrome trace) under `dir`.
fn write_result(dir: &str, name: &str, content: &str) {
    let dir = std::path::Path::new(dir);
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, content).is_ok() {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// What a command line selects: one of the four subcommands, or plain
/// figure targets when it names none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Figures,
    Sweep,
    Check,
    Profile,
    Cluster,
}

use Mode::{Check, Cluster, Figures, Profile, Sweep};

impl Mode {
    const SUBCOMMANDS: [Mode; 4] = [Sweep, Check, Profile, Cluster];

    fn name(self) -> &'static str {
        match self {
            Figures => "figure targets",
            Sweep => "sweep",
            Check => "check",
            Profile => "profile",
            Cluster => "cluster",
        }
    }

    fn parse(name: &str) -> Option<Mode> {
        Mode::SUBCOMMANDS.into_iter().find(|m| m.name() == name)
    }
}

#[derive(Default)]
struct Cli {
    paper: bool,
    csv: bool,
    trace: bool,
    faults: bool,
    jobs: Option<usize>,
    seeds: Option<u32>,
    root_seed: Option<u64>,
    programs: Option<usize>,
    queue_depth: Option<u32>,
    inject_late: bool,
    chaos: bool,
    chaos_seed: Option<u64>,
    chaos_classes: Option<Vec<ChaosClass>>,
    shrink: bool,
    layers: Option<Vec<split_layered::LayerSpec>>,
    replay: Option<String>,
    kernels: Option<usize>,
    arrival: Option<String>,
    rate: Option<f64>,
    duration: Option<SimDuration>,
    seed: Option<u64>,
    scheds: Vec<SchedChoice>,
    devices: Vec<DeviceChoice>,
    /// Subcommand words, in command-line order.
    modes: Vec<Mode>,
    /// Row names and `all`.
    targets: Vec<String>,
}

/// How a flag reads the command line: a bare switch, or a value stored
/// into the [`Cli`] (`Err` says what was expected instead).
enum Arg {
    Switch(fn(&mut Cli)),
    Value(fn(&mut Cli, &str) -> Result<(), String>),
}
use Arg::{Switch, Value};

/// One flag: its name, how it parses, and the subcommands it applies to.
struct Flag(&'static str, Arg, &'static [Mode]);

/// An integer flag value no smaller than `min`.
fn at_least<T: std::str::FromStr + PartialOrd + std::fmt::Display>(
    v: &str,
    min: T,
) -> Result<T, String> {
    let n = v.parse().ok().filter(|n| *n >= min);
    n.ok_or_else(|| format!("expected an integer >= {min}"))
}

/// A finite, strictly positive flag value.
fn positive(v: &str) -> Result<f64, String> {
    let x = v.parse().ok().filter(|x: &f64| *x > 0.0 && x.is_finite());
    x.ok_or_else(|| "expected a positive number".to_string())
}

/// Deepest hardware queue `--queue-depth` accepts: NVMe's per-queue
/// maximum. The device's storage grows only with the requests actually
/// in flight, so any depth up to this costs the same to build.
const MAX_QUEUE_DEPTH: u32 = 65_536;

fn queue_depth(v: &str) -> Result<u32, String> {
    let d = v.parse().ok().filter(|d| (1..=MAX_QUEUE_DEPTH).contains(d));
    d.ok_or_else(|| format!("expected an integer in 1..={MAX_QUEUE_DEPTH}"))
}

/// A positive number of seconds whose nanoseconds fit simulated time with
/// room for the arithmetic on top of it (under 2^63 ns, ~292 years).
fn duration_secs(v: &str) -> Result<SimDuration, String> {
    let nanos = positive(v)? * 1e9;
    if nanos < (1u64 << 63) as f64 {
        Ok(SimDuration::from_nanos(nanos as u64))
    } else {
        Err("expected fewer than 2^63 nanoseconds (~292 years)".to_string())
    }
}

fn parse_chaos_classes(list: &str) -> Result<Vec<ChaosClass>, String> {
    list.split(',')
        .map(|c| ChaosClass::parse(c.trim()).ok_or_else(|| format!("unknown chaos class: {c}")))
        .collect()
}

/// Parse and fully validate a `--layers` spec: grammar, tree-level
/// invariants (unique names, positive caps/weights, trailing default),
/// and child-scheduler resolution all fail as usage errors (exit 2).
fn parse_layers_arg(spec: &str) -> Result<Vec<split_layered::LayerSpec>, String> {
    let specs = split_layered::parse_layers(spec).map_err(|e| e.to_string())?;
    let orphan = specs
        .iter()
        .find(|s| exp::setup::resolve_layer_child(&s.child).is_none());
    match orphan {
        Some(s) => Err(format!(
            "unknown child scheduler '{}' in layer '{}'",
            s.child, s.name
        )),
        None => Ok(specs),
    }
}

/// A scheduler, device or arrival looked up by name.
fn named<T>(found: Option<T>) -> Result<T, String> {
    found.ok_or_else(|| "not one of the names listed below".to_string())
}

/// Every flag the runner knows. `main` rejects a flag on any subcommand
/// its row does not name, so none is ever silently ignored.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag("--paper", Switch(|c| c.paper = true), &[Figures, Sweep, Profile]),
    Flag("--csv", Switch(|c| c.csv = true), &[Figures, Cluster]),
    Flag("--trace", Switch(|c| c.trace = true), &[Figures]),
    Flag("--faults", Switch(|c| c.faults = true), &[Figures]),
    Flag("--jobs", Value(|c, v| at_least(v, 1).map(|n| c.jobs = Some(n))),
        &[Figures, Sweep, Check, Cluster]),
    Flag("--seeds", Value(|c, v| at_least(v, 1).map(|n| c.seeds = Some(n))), &[Sweep]),
    Flag("--root-seed", Value(|c, v| at_least(v, 0).map(|n| c.root_seed = Some(n))),
        &[Sweep, Check]),
    Flag("--sched", Value(|c, v| named(SchedChoice::parse(v)).map(|s| c.scheds.push(s))),
        &[Sweep, Cluster]),
    Flag("--device", Value(|c, v| named(DeviceChoice::parse(v)).map(|d| c.devices.push(d))),
        &[Sweep]),
    Flag("--programs", Value(|c, v| at_least(v, 1).map(|n| c.programs = Some(n))), &[Check]),
    Flag("--shrink", Switch(|c| c.shrink = true), &[Check]),
    Flag("--queue-depth", Value(|c, v| queue_depth(v).map(|n| c.queue_depth = Some(n))), &[Check]),
    Flag("--chaos", Switch(|c| c.chaos = true), &[Check]),
    Flag("--chaos-seed", Value(|c, v| at_least(v, 0).map(|n| c.chaos_seed = Some(n))), &[Check]),
    Flag("--chaos-classes", Value(|c, v| parse_chaos_classes(v).map(|l| c.chaos_classes = Some(l))),
        &[Check]),
    Flag("--inject-late", Switch(|c| c.inject_late = true), &[Check]),
    Flag("--layers", Value(|c, v| parse_layers_arg(v).map(|l| c.layers = Some(l))), &[Check]),
    Flag("--replay", Value(|c, v| { c.replay = Some(v.to_string()); Ok(()) }), &[Check]),
    Flag("--kernels", Value(|c, v| at_least(v, 1).map(|n| c.kernels = Some(n))), &[Cluster]),
    Flag("--arrival", Value(|c, v| {
        named(sim_cluster::ArrivalKind::parse(v, 1.0)).map(|_| c.arrival = Some(v.to_string()))
    }), &[Cluster]),
    Flag("--rate", Value(|c, v| positive(v).map(|r| c.rate = Some(r))), &[Cluster]),
    Flag("--duration", Value(|c, v| duration_secs(v).map(|d| c.duration = Some(d))), &[Cluster]),
    Flag("--seed", Value(|c, v| at_least(v, 0).map(|n| c.seed = Some(n))), &[Cluster]),
];

/// Parse the command line into the [`Cli`] plus the flags it used.
fn parse_cli(args: &[String]) -> (Cli, Vec<&'static Flag>) {
    let mut cli = Cli::default();
    let mut seen = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            match Mode::parse(arg) {
                Some(m) => cli.modes.push(m),
                None if registry::parse(arg).is_some() || arg == "all" => {
                    cli.targets.push(arg.clone())
                }
                None => die(&format!("unknown target: {arg}")),
            }
            continue;
        }
        // Accept both `--flag value` and `--flag=value`.
        let (name, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (arg.as_str(), None),
        };
        let Some(flag) = FLAGS.iter().find(|f| f.0 == name) else {
            die(&format!("unknown flag: {name}"));
        };
        seen.push(flag);
        match flag.1 {
            Switch(_) if inline.is_some() => die(&format!("{name} takes no value")),
            Switch(set) => set(&mut cli),
            Value(set) => {
                let v = match inline {
                    Some(v) => v,
                    None => match it.next() {
                        Some(v) if !v.starts_with("--") => v,
                        _ => die(&format!("{name} requires a value")),
                    },
                };
                if let Err(why) = set(&mut cli, v) {
                    die(&format!("invalid {name} value {v:?}: {why}"));
                }
            }
        }
    }
    (cli, seen)
}

/// The configuration scale `--paper` selects.
fn scale(cli: &Cli) -> exp::registry::Profile {
    if cli.paper {
        exp::registry::Profile::Paper
    } else {
        exp::registry::Profile::Quick
    }
}

/// Refuse a flag that none of the selected rows takes, so it cannot
/// silently do nothing.
fn require_taker(flag: &str, given: bool, figs: &[&'static Figure], what: Takes) {
    if given && !figs.iter().any(|f| f.takes(what)) {
        let takers = FIGURES.iter().filter(|f| f.takes(what));
        let takers: Vec<_> = takers.map(|f| f.name).collect();
        die(&format!(
            "{flag} applies to none of the selected targets; it applies to: {}",
            takers.join(", ")
        ));
    }
}

fn sweep_main(cli: &Cli) {
    let figures: Vec<&'static Figure> = if cli.targets.is_empty() {
        registry::all().collect()
    } else {
        cli.targets
            .iter()
            .map(|t| {
                registry::parse(t)
                    .unwrap_or_else(|| die(&format!("sweep expects figure targets, got: {t}")))
            })
            .collect()
    };
    require_taker(
        "--sched",
        !cli.scheds.is_empty(),
        &figures,
        Takes::SchedAxis,
    );
    require_taker(
        "--device",
        !cli.devices.is_empty(),
        &figures,
        Takes::DeviceAxis,
    );
    let mut spec = SweepSpec::new(figures);
    spec.profile = scale(cli);
    spec.replicates = cli.seeds.unwrap_or(3);
    spec.root_seed = cli.root_seed.unwrap_or(0);
    if !cli.scheds.is_empty() {
        spec.scheds = std::iter::once(None)
            .chain(cli.scheds.iter().map(|&s| Some(s)))
            .collect();
    }
    if !cli.devices.is_empty() {
        spec.devices = std::iter::once(None)
            .chain(cli.devices.iter().map(|&d| Some(d)))
            .collect();
    }
    let jobs = cli.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let n_cells = spec.cells().len();
    eprintln!(
        "sweep: {} cell(s) x {} seed(s) on {} job(s), root seed {}",
        n_cells / spec.replicates.max(1) as usize,
        spec.replicates,
        jobs,
        spec.root_seed
    );
    let (report, _) = run_sweep(&spec, jobs);
    print!("{}", report.render());
    write_result("results/sweeps", "sweep.csv", &report.to_csv());
    write_result("results/sweeps", "sweep.json", &report.to_json());
}

/// The chaos configuration the CLI flags describe, `None` without
/// `--chaos`.
fn chaos_config(cli: &Cli) -> Option<ChaosConfig> {
    if !cli.chaos {
        return None;
    }
    let seed = cli.chaos_seed.unwrap_or(0);
    Some(match &cli.chaos_classes {
        Some(classes) => ChaosConfig::only(seed, classes),
        None => ChaosConfig::with_seed(seed),
    })
}

fn check_main(cli: &Cli) {
    let cfg = CheckConfig {
        programs: cli.programs.unwrap_or(50),
        jobs: cli.jobs.unwrap_or(1),
        root_seed: cli.root_seed.unwrap_or(0),
        shrink: cli.shrink,
        queue_depth: cli.queue_depth.unwrap_or(1),
        inject_late: cli.inject_late,
        chaos: chaos_config(cli),
        layers: cli.layers.clone(),
    };
    let report = match &cli.replay {
        Some(path) => {
            if cli.programs.is_some() || cli.jobs.is_some() || cli.root_seed.is_some() {
                die("--replay checks the one program in FILE; \
                     --programs, --jobs and --root-seed do not apply to it");
            }
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            run_replay(&text, &cfg).unwrap_or_else(|e| die(&format!("bad replay spec: {e}")))
        }
        None => {
            let shaken = match &cfg.chaos {
                Some(c) => {
                    let names: Vec<&str> = c.classes().iter().map(|cl| cl.name()).collect();
                    format!(", chaos seed {} [{}]", c.seed, names.join(","))
                }
                None => String::new(),
            };
            eprintln!(
                "check: {} program(s) on {} job(s), root seed {}, queue depth {}{shaken}",
                cfg.programs, cfg.jobs, cfg.root_seed, cfg.queue_depth
            );
            run_check(&cfg)
        }
    };
    print!("{}", report.render(cfg.root_seed));
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

fn cluster_main(cli: &Cli) {
    let mut cfg = sim_cluster::ClusterConfig {
        kernels: cli.kernels.unwrap_or(16),
        seed: cli.seed.unwrap_or(0),
        ..Default::default()
    };
    if let Some(d) = cli.duration {
        cfg.duration = d;
    }
    let rate = cli.rate.unwrap_or(20.0);
    let arrival = cli.arrival.as_deref().unwrap_or("poisson");
    cfg.arrival = sim_cluster::ArrivalKind::parse(arrival, rate).expect("validated by --arrival");
    match cli.scheds.as_slice() {
        [] => {}
        [s] => {
            cfg.sched = match s {
                SchedChoice::SplitToken => sim_cluster::ClusterSched::SplitToken,
                SchedChoice::Cfq => sim_cluster::ClusterSched::Cfq,
                _ => die("cluster supports --sched split-token or cfq"),
            }
        }
        _ => die("cluster takes at most one --sched"),
    }
    let jobs = cli.jobs.unwrap_or(1);
    eprintln!(
        "cluster: {} kernel(s) on {} job(s), {} arrivals at {} req/s per group, seed {}",
        cfg.kernels,
        jobs,
        cfg.arrival.name(),
        rate,
        cfg.seed
    );
    let report = sim_cluster::run_cluster(&cfg, jobs);
    print!("{}", report.render());
    if cli.csv {
        let mut out = String::from("req,shard,kind,arrival_s,done_s,e2e_ms,service_ms,repl_ms\n");
        for s in &report.samples {
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{:.3},{:.3},{:.3}\n",
                s.req,
                s.shard,
                match s.kind {
                    sim_cluster::ReqKind::Put => "put",
                    sim_cluster::ReqKind::Get => "get",
                },
                s.arrival.as_secs_f64(),
                s.done.as_secs_f64(),
                s.e2e_ms,
                s.service_ms,
                s.repl_ms
            ));
        }
        write_result("results", "cluster_samples.csv", &out);
    }
}

fn profile_main(cli: &Cli) {
    let name = match cli.targets.as_slice() {
        [one] => one.as_str(),
        _ => die("profile expects exactly one figure target"),
    };
    let fig = registry::parse(name)
        .unwrap_or_else(|| die(&format!("profile expects a figure target, got: {name}")));

    let p = Profiler::new();
    p.set_enabled(true);
    prof::install_thread(&p);
    let t0 = std::time::Instant::now();
    // jobs=1 keeps the figure on this thread, so every world it builds
    // picks up the installed profiler.
    let outputs = run_figures(&[fig], scale(cli), 0, 1, false, false);
    let wall_s = t0.elapsed().as_secs_f64();
    prof::uninstall_thread();
    let snap = p.snapshot();
    let alloc = alloc_count::snapshot();

    for out in &outputs {
        print!("{}", out.summary);
    }
    print!("{}", sim_trace::render_profile(fig.name, &snap, &alloc));
    // Every pop is one processed event, summed across the figure's worlds.
    let events = snap
        .phases
        .iter()
        .find(|ps| ps.phase == Phase::EventPop)
        .map(|ps| ps.calls)
        .unwrap_or(0);
    // The counters also ride the standard metrics plumbing: export into
    // a Registry and write its summary CSV next to the JSON sidecar.
    let mut reg = sim_trace::Registry::new();
    sim_trace::export_profile(&mut reg, &snap);
    write_result(
        "results",
        &format!("profile_{}.csv", fig.name),
        &reg.summary_csv(),
    );
    write_result(
        "results",
        &format!("profile_{}.json", fig.name),
        &sim_trace::profile_json(fig.name, &snap, &alloc, events, wall_s),
    );
}

fn figures_main(cli: &Cli) {
    let mut named: Vec<&str> = cli.targets.iter().map(|s| s.as_str()).collect();
    if cli.faults {
        named.push("faults");
    }
    // No target at all means `all`; rows `all` skips run only by name.
    let all = named.is_empty() || named.contains(&"all");
    let figs: Vec<&'static Figure> = FIGURES
        .iter()
        .filter(|f| (all && f.in_all) || named.contains(&f.name))
        .collect();
    require_taker("--csv", cli.csv, &figs, Takes::Csv);
    require_taker("--trace", cli.trace, &figs, Takes::Trace);
    let outputs = run_figures(
        &figs,
        scale(cli),
        0,
        cli.jobs.unwrap_or(1),
        cli.csv,
        cli.trace,
    );
    let mut failed = false;
    for out in &outputs {
        print!("{}", out.summary);
        for a in &out.artifacts {
            write_result("results", &a.name, &a.content);
        }
        if let Some(why) = &out.failure {
            eprintln!("FAIL: {why}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cli, seen) = parse_cli(&args);
    let mode = match cli.modes[..] {
        [] => Figures,
        [m] => m,
        _ => die("subcommands do not combine with each other"),
    };
    for Flag(name, _, modes) in seen {
        if !modes.contains(&mode) {
            let takers: Vec<_> = modes.iter().map(|m| m.name()).collect();
            die(&format!(
                "{name} does not apply to {}; it only applies to: {}",
                mode.name(),
                takers.join(", ")
            ));
        }
    }
    if !cli.chaos && (cli.chaos_seed.is_some() || cli.chaos_classes.is_some()) {
        die("--chaos-seed/--chaos-classes require --chaos");
    }
    if matches!(mode, Check | Cluster) && !cli.targets.is_empty() {
        die(&format!(
            "{} does not combine with other targets",
            mode.name()
        ));
    }
    match mode {
        Cluster => cluster_main(&cli),
        Check => check_main(&cli),
        Profile => profile_main(&cli),
        Sweep => sweep_main(&cli),
        Figures => figures_main(&cli),
    }
}
