//! `runner breakdown` — where does an fsync's latency go?
//!
//! Runs the Figure 12 contention workload (A: small log appends +
//! fsync; B: large random checkpoints + fsync) with span tracing on,
//! then decomposes every completed fsync into per-layer components
//! using the span tree (see [`sim_trace::breakdown`]). This is the
//! paper's Figure 5 dependency argument as a table: under a
//! block-level scheduler most of A's fsync time is data flushing and
//! journal entanglement it did not cause; Split-Deadline moves that
//! work out of the foreground path.
//!
//! The components tile each fsync's `[enter, complete]` interval by
//! construction, so the table always sums to the end-to-end latency.

use sim_core::SimDuration;
use sim_trace::breakdown::{FSYNC_COMPONENTS, FSYNC_COMPONENT_LAYERS};
use sim_trace::{fsync_breakdown, layer_totals, FsyncBreakdown, Layer};

use crate::fig12_fsync_isolation::{Contention, B_BLOCKS, CONTENDERS};
use crate::registry::{CellOutput, CellRequest, Profile};
use crate::setup::{DeviceChoice, SchedChoice, Setup};
use crate::table::Table;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Simulated run time.
    pub duration: SimDuration,
    /// Device.
    pub device: DeviceChoice,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// 20 s quick, 60 s at paper scale, on the HDD.
    pub(crate) fn at(profile: Profile, seed: u64) -> Self {
        Config {
            duration: profile.secs(20, 60),
            device: DeviceChoice::Hdd,
            seed,
        }
    }
}

/// One scheduler's decomposition.
#[derive(Debug, Clone)]
pub(crate) struct SchedBreakdown {
    /// Scheduler name.
    pub sched: &'static str,
    /// Aggregated fsync decomposition (all fsyncs, A and B).
    pub fsync: FsyncBreakdown,
    /// Total closed-span time per layer (activity profile).
    pub layers: [(Layer, f64); 7],
}

/// Full result: one decomposition per scheduler.
#[derive(Debug, Clone)]
pub(crate) struct BreakdownResult {
    /// Per-scheduler rows.
    pub rows: Vec<SchedBreakdown>,
    /// Config used.
    pub cfg: Config,
}

impl BreakdownResult {
    /// The sweep metrics: mean end-to-end fsync latency per scheduler.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let per_row = |row: &SchedBreakdown| {
            (
                format!("{}_fsync_mean_ms", row.sched.replace('-', "_")),
                row.fsync.mean_ms(),
            )
        };
        self.rows.iter().map(per_row).collect()
    }
}

fn run_one(cfg: &Config, sched: SchedChoice) -> SchedBreakdown {
    let setup = Setup {
        device: cfg.device,
        seed: cfg.seed,
        ..Setup::new(sched)
    };
    // Figure 12's scenario, with the HDD deadlines on either device.
    let scenario = Contention::fig12(DeviceChoice::Hdd);
    let (mut w, k, _, _) = scenario.world(setup, |w, k| w.enable_tracing(k));
    w.run_for(cfg.duration);
    let spans = w.tracer(k).expect("traced").spans();
    SchedBreakdown {
        sched: sched.name(),
        fsync: fsync_breakdown(&spans),
        layers: layer_totals(&spans),
    }
}

/// Run the decomposition under Block-Deadline and Split-Deadline.
pub(crate) fn run(cfg: &Config) -> BreakdownResult {
    BreakdownResult {
        rows: CONTENDERS.map(|sched| run_one(cfg, sched)).into(),
        cfg: *cfg,
    }
}

/// `runner breakdown`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let mut cfg = Config::at(req.profile, req.seed);
    cfg.device = req.device.unwrap_or(cfg.device);
    let r = run(&cfg);
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for BreakdownResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fsync latency breakdown ({:?}, B: {} random blocks + fsync)",
            self.cfg.device, B_BLOCKS
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "\n{} — {} fsyncs, mean {:.2} ms end-to-end:",
                row.sched,
                row.fsync.count,
                row.fsync.mean_ms()
            )?;
            let mut t = Table::new(["component", "layer", "total ms", "mean ms", "share"]);
            let total = row.fsync.total_ms.max(f64::MIN_POSITIVE);
            let n = row.fsync.count.max(1) as f64;
            for (i, name) in FSYNC_COMPONENTS.iter().enumerate() {
                let ms = row.fsync.components[i];
                t.row([
                    name.to_string(),
                    FSYNC_COMPONENT_LAYERS[i].name().to_string(),
                    format!("{ms:.2}"),
                    format!("{:.3}", ms / n),
                    format!("{:.1}%", 100.0 * ms / total),
                ]);
            }
            t.row([
                "= end-to-end".to_string(),
                String::new(),
                format!("{:.2}", row.fsync.components_sum_ms()),
                format!("{:.3}", row.fsync.mean_ms()),
                "100.0%".to_string(),
            ]);
            write!(f, "{}", t.render())?;
            writeln!(f, "\nper-layer span activity (overlapping, ms):")?;
            let mut lt = Table::new(["layer", "total ms"]);
            for (layer, ms) in row.layers {
                lt.row([layer.name().to_string(), format!("{ms:.2}")]);
            }
            write!(f, "{}", lt.render())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum_to_end_to_end() {
        let mut cfg = Config::at(Profile::Quick, 0);
        cfg.duration = SimDuration::from_secs(8);
        let r = run(&cfg);
        for row in &r.rows {
            assert!(row.fsync.count > 0, "{}: no fsyncs decomposed", row.sched);
            let sum = row.fsync.components_sum_ms();
            let total = row.fsync.total_ms;
            assert!(
                (sum - total).abs() <= 0.05 * total,
                "{}: components {sum} vs end-to-end {total}",
                row.sched
            );
        }
    }
}
