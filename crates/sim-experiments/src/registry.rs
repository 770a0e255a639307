//! The figure table: every `runner` target is one row of [`FIGURES`].
//!
//! A row names the target, points at its module's `cell` function and
//! declares which sweep axes and artifact flags the target takes and
//! whether `all` includes it. Everything that enumerates targets — the
//! runner's usage text and argument check, `runner all`, the sweep
//! engine's axis collapsing, the golden digests — reads this table, so
//! adding a figure is one module plus one row.
//!
//! A cell returns the exact text the sequential runner prints (so
//! parallel `runner all` output is byte-identical to the sequential
//! path), a flat list of named scalar metrics for statistical
//! aggregation, and any raw artifacts (CSV series, Chrome traces) for
//! the caller to write to disk. Cells are pure apart from the
//! simulation itself: no printing, no file writes, no global state.

use crate::setup::{DeviceChoice, SchedChoice};
// Every figure module, so that a new figure's row is the only edit here.
use crate::*;
use sim_core::SimDuration;

/// What a target can take beyond a profile and a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// The sweep's `--sched` axis ([`CellRequest::sched`]).
    SchedAxis,
    /// The sweep's `--device` axis ([`CellRequest::device`]).
    DeviceAxis,
    /// `--csv`: raw series as CSV artifacts.
    Csv,
    /// `--trace`: span tracing, Chrome trace-event JSON artifacts.
    Trace,
}
use Takes::{Csv, DeviceAxis, SchedAxis, Trace};

/// One runnable target.
#[derive(Debug)]
pub struct Figure {
    /// CLI name (`fig01`, `ablations`, ...).
    pub name: &'static str,
    /// The module's entry point.
    pub cell: fn(&CellRequest) -> CellOutput,
    /// The axes and artifact flags the target takes; it ignores the rest.
    pub takes: &'static [Takes],
    /// Part of `runner all`.
    pub in_all: bool,
}

impl Figure {
    /// Whether the target takes `what`.
    pub fn takes(&self, what: Takes) -> bool {
        self.takes.contains(&what)
    }
}

/// A row that `all` includes.
const fn row(
    name: &'static str,
    cell: fn(&CellRequest) -> CellOutput,
    takes: &'static [Takes],
) -> Figure {
    Figure {
        name,
        cell,
        takes,
        in_all: true,
    }
}

/// Every target, in the order the runner prints them. The fault sweep
/// is opt-in (`faults` / `--faults`): `all` stays the fault-free,
/// bit-reproducible baseline, and it is the one row that can fail a run.
pub static FIGURES: &[Figure] = &[
    Figure {
        in_all: false,
        ..row("faults", fault_sweep::cell, &[Csv])
    },
    row("fig01", fig01_write_burst::cell, &[Csv]),
    row("fig01_qd", fig01_qd::cell, &[]),
    row("fig03", fig03_cfq_async_unfair::cell, &[]),
    row("fig05", fig05_latency_dependency::cell, &[]),
    row("fig06", fig06_scs_isolation::cell, &[SchedAxis]),
    row("fig09", fig09_time_overhead::cell, &[]),
    row("fig10", fig10_space_overhead::cell, &[]),
    row("fig11", fig11_afq::cell, &[]),
    row(
        "fig12",
        fig12_fsync_isolation::cell,
        &[DeviceAxis, Csv, Trace],
    ),
    row("fig13", fig06_scs_isolation::cell_fig13, &[SchedAxis]),
    row("fig14", fig14_token_comparison::cell, &[]),
    row("fig15", fig15_thread_scaling::cell, &[]),
    row("fig16", fig06_scs_isolation::cell_fig16, &[SchedAxis]),
    row("fig17", fig17_metadata::cell, &[]),
    row("fig18", fig18_sqlite::cell, &[]),
    row("fig19", fig19_postgres::cell, &[]),
    row("fig20", fig20_qemu::cell, &[]),
    row("ablations", ablations::cell, &[]),
    row("breakdown", breakdown::cell, &[DeviceAxis]),
    row("fig21", fig21_hdfs::cell, &[]),
    row("fig_cluster", fig_cluster::cell, &[]),
    row("fig_layers", fig_layers::cell, &[DeviceAxis]),
];

/// The row a CLI target name selects.
pub fn parse(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The rows `runner all` runs, in order.
pub fn all() -> impl Iterator<Item = &'static Figure> {
    FIGURES.iter().filter(|f| f.in_all)
}

/// The `targets:` line of the runner's usage text.
pub fn usage_targets() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    format!("targets: {} all", names.join(" "))
}

/// Which configuration scale to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds per figure.
    Quick,
    /// The paper-scale runs.
    Paper,
}

impl Profile {
    /// The value this scale selects.
    pub(crate) fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Profile::Quick => quick,
            Profile::Paper => paper,
        }
    }

    /// The simulated run time, in seconds, this scale selects.
    pub(crate) fn secs(self, quick: u64, paper: u64) -> SimDuration {
        SimDuration::from_secs(self.pick(quick, paper))
    }
}

/// The configuration of a figure whose scenario is otherwise fixed: how
/// long each run lasts — `QUICK` seconds, `PAPER` at paper scale — and
/// its seed. Such a module names its instance `Config`.
#[derive(Debug, Clone, Copy)]
pub struct Timed<const QUICK: u64, const PAPER: u64> {
    /// Simulated run time (per point, where the figure is a sweep).
    pub duration: SimDuration,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl<const QUICK: u64, const PAPER: u64> Timed<QUICK, PAPER> {
    /// The configuration at `profile`'s scale.
    pub fn at(profile: Profile, seed: u64) -> Self {
        Timed {
            duration: profile.secs(QUICK, PAPER),
            seed,
        }
    }
}

/// One scenario: a figure at a profile and seed, with optional axis
/// overrides for figures that support them.
#[derive(Debug, Clone, Copy)]
pub struct CellRequest {
    /// Which figure.
    pub fig: &'static Figure,
    /// Configuration scale.
    pub profile: Profile,
    /// Experiment seed (0 reproduces the historical single-seed run).
    pub seed: u64,
    /// Scheduler override (rows that take [`SchedAxis`]).
    pub sched: Option<SchedChoice>,
    /// Device override (rows that take [`DeviceAxis`]).
    pub device: Option<DeviceChoice>,
    /// Also produce CSV artifacts (rows that take [`Csv`]).
    pub csv: bool,
    /// Trace the run and emit Chrome JSON (rows that take [`Trace`]).
    pub trace: bool,
}

impl CellRequest {
    /// A plain request: no overrides, no artifacts.
    pub fn new(fig: &'static Figure, profile: Profile, seed: u64) -> Self {
        CellRequest {
            fig,
            profile,
            seed,
            sched: None,
            device: None,
            csv: false,
            trace: false,
        }
    }
}

/// A raw artifact produced by a cell (the caller decides where it goes).
#[derive(Debug, Clone)]
pub struct Artifact {
    /// File name, e.g. `fig01_write_burst.csv`.
    pub name: String,
    /// File contents.
    pub content: String,
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellOutput {
    /// Exactly what the sequential runner prints for this target
    /// (including trailing blank lines).
    pub summary: String,
    /// Named scalar metrics, aggregated by the sweep layer.
    pub metrics: Vec<(String, f64)>,
    /// Raw artifacts (CSV / trace JSON) to write under `results/`.
    pub artifacts: Vec<Artifact>,
    /// Why the run must exit non-zero (the fault sweep's consistency
    /// violations); `None` everywhere else.
    pub failure: Option<String>,
}

impl CellOutput {
    /// The usual cell: the result's table followed by a blank line, its
    /// metrics, no artifacts.
    pub(crate) fn of(result: &impl std::fmt::Display, metrics: Vec<(String, f64)>) -> Self {
        CellOutput {
            summary: format!("{result}\n\n"),
            metrics,
            artifacts: Vec::new(),
            failure: None,
        }
    }

    /// Attach an artifact.
    pub(crate) fn push_artifact(&mut self, name: impl Into<String>, content: String) {
        self.artifacts.push(Artifact {
            name: name.into(),
            content,
        });
    }
}

/// Run one scenario cell.
pub fn run_cell(req: &CellRequest) -> CellOutput {
    (req.fig.cell)(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `FigureId::ALL` as it stood before the table replaced the enum.
    const LEGACY_ALL_ORDER: [&str; 22] = [
        "fig01",
        "fig01_qd",
        "fig03",
        "fig05",
        "fig06",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "ablations",
        "breakdown",
        "fig21",
        "fig_cluster",
        "fig_layers",
    ];

    #[test]
    fn the_table_is_self_consistent() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate row name: {names:?}");
        for f in FIGURES {
            assert!(std::ptr::eq(parse(f.name).expect("round-trips"), f));
        }
        assert!(parse("fig99").is_none());
        assert!(parse("all").is_none(), "`all` is a selector, not a row");

        // Figures added since keep the legacy ones in their legacy order.
        let in_all: Vec<&str> = all()
            .map(|f| f.name)
            .filter(|n| LEGACY_ALL_ORDER.contains(n))
            .collect();
        assert_eq!(in_all, LEGACY_ALL_ORDER, "`runner all` order is pinned");
        assert!(!parse("faults").unwrap().in_all, "`all` stays fault-free");

        let usage = usage_targets();
        let listed: Vec<&str> = usage
            .strip_prefix("targets: ")
            .expect("the line is labelled")
            .split(' ')
            .collect();
        assert_eq!(listed, [&names[..], &["all"]].concat());
    }

    #[test]
    fn axes_and_artifacts_are_declared_per_row() {
        let takers = |what| -> Vec<&str> {
            FIGURES
                .iter()
                .filter(|f| f.takes(what))
                .map(|f| f.name)
                .collect()
        };
        assert_eq!(takers(SchedAxis), ["fig06", "fig13", "fig16"]);
        assert_eq!(takers(DeviceAxis), ["fig12", "breakdown", "fig_layers"]);
        assert_eq!(takers(Csv), ["faults", "fig01", "fig12"]);
        assert_eq!(takers(Trace), ["fig12"]);
    }

    #[test]
    fn a_cell_produces_summary_and_metrics() {
        // fig03 is the cheapest deterministic figure.
        let fig03 = parse("fig03").unwrap();
        let out = run_cell(&CellRequest::new(fig03, Profile::Quick, 0));
        assert!(out.summary.contains("Figure 3"));
        assert!(out.summary.ends_with("\n\n"));
        assert!(out.metrics.iter().any(|(k, _)| k == "deviation"));
        assert!(out.artifacts.is_empty());
        assert!(out.failure.is_none());
    }
}
