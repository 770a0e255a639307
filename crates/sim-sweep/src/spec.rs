//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] is the cross product of figures × schedulers ×
//! devices × seed replicates at one profile. [`SweepSpec::cells`]
//! expands it into concrete [`Cell`]s, each carrying its own
//! decorrelated seed derived from the root seed and the cell's *label*
//! (not its position), so adding a figure or an axis value to a spec
//! never changes the seeds — and therefore the results — of the cells
//! that were already in it.

use sim_core::stream_seed;
use sim_experiments::registry::{CellRequest, Figure, Profile, Takes};
use sim_experiments::setup::{DeviceChoice, SchedChoice};

/// A declarative sweep: the grid axes plus replication settings.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Figures to run.
    pub figures: Vec<&'static Figure>,
    /// Configuration scale for every cell.
    pub profile: Profile,
    /// Scheduler axis; applied only to figures that support it
    /// (`None` entries mean "the figure's own default").
    pub scheds: Vec<Option<SchedChoice>>,
    /// Device axis; applied only to figures that support it.
    pub devices: Vec<Option<DeviceChoice>>,
    /// Seed replicates per grid cell.
    pub replicates: u32,
    /// Root seed all per-cell seeds are derived from.
    pub root_seed: u64,
}

impl SweepSpec {
    /// A spec over `figures` with no axis overrides.
    pub fn new(figures: Vec<&'static Figure>) -> Self {
        SweepSpec {
            figures,
            profile: Profile::Quick,
            scheds: vec![None],
            devices: vec![None],
            replicates: 3,
            root_seed: 0,
        }
    }
}

/// One concrete scenario produced by expanding a [`SweepSpec`].
#[derive(Debug, Clone)]
pub struct Cell {
    /// Grid-cell label, e.g. `fig06/sched=cfq` — stable across spec
    /// growth, shared by all replicates of the cell.
    pub label: String,
    /// The fully-resolved request to run.
    pub request: CellRequest,
}

/// FNV-1a over the label: cheap, stable, and good enough to key seed
/// streams on (collisions across a sweep's handful of labels are
/// covered by a unit test on realistic grids).
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed for one replicate of one labelled cell.
pub(crate) fn cell_seed(root: u64, label: &str, replicate: u32) -> u64 {
    stream_seed(stream_seed(root, fnv1a(label)), replicate as u64)
}

impl SweepSpec {
    /// Expand the grid into concrete cells, replicates innermost.
    ///
    /// Axes a figure does not support are collapsed for that figure
    /// (fig01 under a 3-scheduler axis still contributes one cell, not
    /// three identical ones).
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &fig in &self.figures {
            let scheds: &[Option<SchedChoice>] = if fig.takes(Takes::SchedAxis) {
                &self.scheds
            } else {
                &[None]
            };
            let devices: &[Option<DeviceChoice>] = if fig.takes(Takes::DeviceAxis) {
                &self.devices
            } else {
                &[None]
            };
            for &sched in scheds {
                for &device in devices {
                    let mut label = fig.name.to_string();
                    if let Some(s) = sched {
                        label.push_str("/sched=");
                        label.push_str(s.name());
                    }
                    if let Some(d) = device {
                        label.push_str("/device=");
                        label.push_str(d.name());
                    }
                    for replicate in 0..self.replicates.max(1) {
                        let mut request = CellRequest::new(fig, self.profile, 0);
                        request.seed = cell_seed(self.root_seed, &label, replicate);
                        request.sched = sched;
                        request.device = device;
                        out.push(Cell {
                            label: label.clone(),
                            request,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_experiments::registry::{parse, FIGURES};

    fn figs<const N: usize>(names: [&str; N]) -> Vec<&'static Figure> {
        names.map(|n| parse(n).expect("a row of the table")).into()
    }

    #[test]
    fn expansion_collapses_unsupported_axes() {
        let mut spec = SweepSpec::new(figs(["fig01", "fig06"]));
        spec.scheds = vec![None, Some(SchedChoice::Cfq), Some(SchedChoice::SplitToken)];
        spec.replicates = 2;
        let cells = spec.cells();
        // fig01 ignores the sched axis: 1 label; fig06 honours it: 3.
        let labels: std::collections::BTreeSet<_> = cells.iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels.len(), 4, "{labels:?}");
        assert_eq!(cells.len(), 4 * 2);
    }

    #[test]
    fn seeds_are_stable_under_spec_growth() {
        let small = SweepSpec::new(figs(["fig06"]));
        let big = SweepSpec::new(figs(["fig01", "fig06"]));
        // Replicates are innermost: fig06's second cell is replicate 1.
        let seed_of = |spec: &SweepSpec| {
            spec.cells()
                .iter()
                .filter(|c| c.label == "fig06")
                .nth(1)
                .map(|c| c.request.seed)
                .unwrap()
        };
        assert_eq!(seed_of(&small), seed_of(&big));
    }

    #[test]
    fn seeds_do_not_collide_on_a_realistic_grid() {
        let mut spec = SweepSpec::new(FIGURES.iter().collect());
        spec.scheds = vec![None, Some(SchedChoice::Cfq), Some(SchedChoice::SplitToken)];
        spec.devices = vec![None, Some(DeviceChoice::Hdd), Some(DeviceChoice::Ssd)];
        spec.replicates = 8;
        let cells = spec.cells();
        let seeds: std::collections::BTreeSet<_> = cells.iter().map(|c| c.request.seed).collect();
        assert_eq!(seeds.len(), cells.len(), "seed collision in the grid");
    }

    #[test]
    fn replicates_differ_and_depend_on_root() {
        assert_ne!(cell_seed(0, "fig01", 0), cell_seed(0, "fig01", 1));
        assert_ne!(cell_seed(0, "fig01", 0), cell_seed(1, "fig01", 0));
        assert_ne!(cell_seed(0, "fig01", 0), cell_seed(0, "fig03", 0));
    }
}
