//! Figure 1 (queue-depth sweep) — the write burst against a queued
//! device.
//!
//! The paper's Figure 1 was measured on a real disk whose NCQ queue the
//! burst could fill: once B's writeback requests occupy the device's
//! slots, A's read loses the firmware's shortest-positioning-time race
//! to a nearest-neighbour tour of scattered writes, and throughput
//! collapses rather than merely halving. This sweep replays the same
//! workload at hardware queue depths 1→32:
//! CFQ-with-idle-B degrades monotonically deeper as the queue gives the
//! burst more slots to pollute, while Split-Token — which charges the
//! burst at dirty time and holds B — keeps A flat at every depth.
//!
//! Depth 1 is the default device every other figure runs on, so its row
//! is the original `fig01` table.

use crate::fig01_write_burst::{self, Series, BURST_AT, BURST_LEN};
use crate::registry::{CellOutput, CellRequest};
use crate::setup::SchedChoice;
use crate::table::{f1, Table};

/// Queue depths the sweep visits.
pub(crate) const DEPTHS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The fig01 workload parameters, shared by every depth.
pub use crate::fig01_write_burst::Config;

/// Both schedulers' outcomes at one queue depth.
#[derive(Debug, Clone)]
pub(crate) struct DepthRow {
    /// Hardware queue depth.
    pub depth: u32,
    /// CFQ with B in the idle class.
    pub cfq: Series,
    /// Split-Token with B throttled to 1 MB/s.
    pub split: Series,
}

impl DepthRow {
    /// CFQ's throughput-loss factor: A's pre-burst rate over its
    /// after-burst rate (1.0 = unharmed; the paper's collapse is ≫ 4).
    pub(crate) fn cfq_degradation(&self) -> f64 {
        if self.cfq.after <= 0.0 {
            f64::INFINITY
        } else {
            self.cfq.before / self.cfq.after
        }
    }
}

/// Full sweep result.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// One row per depth, in [`DEPTHS`] order.
    pub rows: Vec<DepthRow>,
}

impl FigResult {
    /// The sweep metrics: per depth, A's after-burst rate under each
    /// system and CFQ's loss factor.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let per_depth = |row: &DepthRow| {
            let d = row.depth;
            [
                (format!("cfq_after_mbps_d{d}"), row.cfq.after),
                (format!("cfq_loss_d{d}"), row.cfq_degradation()),
                (format!("split_after_mbps_d{d}"), row.split.after),
            ]
        };
        self.rows.iter().flat_map(per_depth).collect()
    }
}

/// Run the sweep.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let run_one = |sched, depth| fig01_write_burst::run_one_with(cfg, sched, depth);
    let rows = DEPTHS
        .iter()
        .map(|&depth| DepthRow {
            depth,
            cfq: run_one(SchedChoice::Cfq, depth),
            split: run_one(SchedChoice::SplitToken, depth),
        })
        .collect();
    FigResult { rows }
}

/// `runner fig01_qd`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 1 (queue-depth sweep) — Write Burst vs NCQ depth (burst at t={}s for {}s)",
            BURST_AT.as_secs_f64(),
            BURST_LEN.as_secs_f64()
        )?;
        let mut t = Table::new([
            "depth",
            "cfq A before",
            "cfq A after",
            "cfq loss",
            "split A before",
            "split A after",
        ]);
        for r in &self.rows {
            t.row([
                r.depth.to_string(),
                format!("{} MB/s", f1(r.cfq.before)),
                format!("{} MB/s", f1(r.cfq.after)),
                format!("{}x", f1(r.cfq_degradation())),
                format!("{} MB/s", f1(r.split.before)),
                format!("{} MB/s", f1(r.split.after)),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Profile;
    use crate::setup::Setup;

    #[test]
    fn cfq_collapse_deepens_with_queue_depth_while_split_token_stays_flat() {
        let cfg = Config::at(Profile::Quick, 0);
        let r = run(&cfg);
        assert_eq!(r.rows.len(), DEPTHS.len());
        // CFQ's degradation deepens monotonically toward the paper's
        // near-collapse (small wobble tolerated; the trend must hold).
        let losses: Vec<f64> = r.rows.iter().map(|row| row.cfq_degradation()).collect();
        for w in losses.windows(2) {
            assert!(
                w[1] >= 0.9 * w[0],
                "deeper queues must not recover CFQ: {losses:?}"
            );
        }
        let shallow = losses[0];
        let deep = *losses.last().unwrap();
        assert!(
            deep > shallow,
            "depth 32 must hurt more than depth 1: {losses:?}"
        );
        assert!(
            deep >= 4.0,
            "depth 32 should approach the paper's collapse (≥4x): {losses:?}"
        );
        // Split-Token holds A flat within 5% of its pre-burst rate at
        // every depth.
        for row in &r.rows {
            assert!(
                row.split.after >= 0.95 * row.split.before,
                "split-token must stay flat at depth {}: {} vs {}",
                row.depth,
                row.split.after,
                row.split.before
            );
        }
    }

    /// Run the quick CFQ burst world to its end; events processed and
    /// A's per-bucket read throughput.
    fn burst_history(
        (mut w, k, a): (sim_kernel::World, sim_core::KernelId, sim_core::Pid),
    ) -> (u64, Vec<f64>) {
        w.run_for(Config::at(Profile::Quick, 0).duration);
        (w.events_processed(), w.kernel(k).stats.read_ts[&a].mbps())
    }

    #[test]
    fn a_single_catch_all_layer_replays_the_flat_event_stream_on_the_burst_world() {
        // A single-layer tree must be a pure wrapper: splitbench's
        // `split-layered.single_layer_vs_flat` is only a dispatch-cost
        // ratio if both sides simulate the same history.
        let cfg = Config::at(Profile::Quick, 0);
        let specs = split_layered::parse_layers("all:default:share:cfq").unwrap();
        let arbiter =
            crate::setup::build_layered(specs, split_layered::LayeredConfig::default()).unwrap();
        let setup = Setup::new(SchedChoice::Cfq);
        let flat = fig01_write_burst::build_burst_world(&cfg, setup);
        let layered = fig01_write_burst::build_burst_world_with(
            &cfg,
            setup,
            Box::new(arbiter),
            fig01_write_burst::BURST_SALT,
        );
        assert_eq!(burst_history(flat), burst_history(layered));
    }
}
