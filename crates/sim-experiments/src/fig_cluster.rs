//! Cluster figure — fleet-wide SLOs under a flash crowd.
//!
//! The paper's single-node experiments show CFQ cannot protect a
//! latency tenant from a buffered-write tenant because the damage is
//! done above the block layer (Figures 1, 12, 19). This figure runs the
//! same contest at fleet scale: a sharded replicated KV tier (commit on
//! quorum fsync) serves open-loop traffic while a batch writer dirties
//! pages on every shard, and partway through the run a flash crowd
//! multiplies the arrival rate. Split-Token caps the batch tenant at the
//! system-call level and holds the serving tier's p99 nearly flat
//! through the crowd; CFQ — even with the batch tenant in its idle
//! class — lets writeback amplify the surge into the commit path.

use sim_cluster::{
    run_cluster, samples_between, ArrivalKind, ClusterConfig, ClusterReport, ClusterSched,
    SloReport,
};
use sim_core::{SimDuration, SimTime};

use crate::registry::{CellOutput, CellRequest, Profile};
use crate::table::{f1, Table};

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The fleet; its arrival process must be a flash crowd.
    pub fleet: ClusterConfig,
    /// Seconds to discard at the front of the "before" phase (cache and
    /// queue warm-up).
    pub warmup_s: f64,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// Quick: 6 kernels for 4 simulated seconds, the crowd arriving at
    /// 1.5 s. Paper scale: 64 kernels for 12 s, the crowd at 4 s.
    pub(crate) fn at(profile: Profile, seed: u64) -> Self {
        let ms = |quick, paper| SimDuration::from_millis(profile.pick(quick, paper));
        Config {
            fleet: ClusterConfig {
                kernels: profile.pick(6, 64),
                duration: profile.secs(4, 12),
                arrival: ArrivalKind::FlashCrowd {
                    base: 20.0,
                    peak: 4.0,
                    start: SimTime::ZERO + ms(1_500, 4_000),
                    ramp: ms(300, 500),
                    hold: ms(1_500, 4_000),
                    decay: ms(400, 1_000),
                },
                ..Default::default()
            },
            warmup_s: profile.pick(0.5, 1.0),
            seed,
        }
    }

    /// The `[before)` / `[during)` phase windows, in seconds, derived
    /// from the flash-crowd schedule. "During" starts once the ramp
    /// completes, so it measures the held peak.
    pub(crate) fn phases(&self) -> ((f64, f64), (f64, f64)) {
        match self.fleet.arrival {
            ArrivalKind::FlashCrowd {
                start, ramp, hold, ..
            } => {
                let s = start.as_secs_f64();
                let peak_from = s + ramp.as_secs_f64();
                (
                    (self.warmup_s.min(s), s),
                    (peak_from, peak_from + hold.as_secs_f64()),
                )
            }
            _ => {
                let half = self.fleet.duration.as_secs_f64() / 2.0;
                ((self.warmup_s.min(half), half), (half, 2.0 * half))
            }
        }
    }
}

/// SLOs for one phase of one scheduler's run.
#[derive(Debug, Clone)]
pub struct Phase {
    /// `before` or `during`.
    pub label: &'static str,
    /// Requests that arrived in the phase.
    pub count: usize,
    /// The phase's SLO table.
    pub slo: SloReport,
}

/// One scheduler's fleet run, cut into phases.
#[derive(Debug, Clone)]
pub(crate) struct SchedRun {
    /// Scheduler name.
    pub sched: &'static str,
    /// Quiet phase (post-warmup, pre-crowd).
    pub before: Phase,
    /// Held flash-crowd peak.
    pub during: Phase,
    /// The full run's report.
    pub report: ClusterReport,
}

impl SchedRun {
    /// p99 degradation factor of the put commit path under the crowd.
    pub(crate) fn put_p99_blowup(&self) -> f64 {
        self.during.slo.put_e2e.p99 / self.before.slo.put_e2e.p99.max(1e-9)
    }
}

/// Full figure: the same fleet under Split-Token and CFQ.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// Split-Token fleet.
    pub split: SchedRun,
    /// CFQ fleet (batch tenant in the idle class — CFQ's best offer).
    pub cfq: SchedRun,
}

fn run_sched(cfg: &Config, sched: ClusterSched) -> SchedRun {
    let fleet = ClusterConfig {
        sched,
        seed: cfg.fleet.seed ^ cfg.seed,
        ..cfg.fleet
    };
    // One worker: the output is identical at any width.
    let report = run_cluster(&fleet, 1);
    let ((b0, b1), (d0, d1)) = cfg.phases();
    let phase = |label, from, to| {
        let samples = samples_between(&report.samples, from, to);
        Phase {
            label,
            count: samples.len(),
            slo: SloReport::compute(&samples),
        }
    };
    SchedRun {
        sched: sched.name(),
        before: phase("before", b0, b1),
        during: phase("during", d0, d1),
        report,
    }
}

/// Run the figure.
pub(crate) fn run(cfg: &Config) -> FigResult {
    FigResult {
        split: run_sched(cfg, ClusterSched::SplitToken),
        cfq: run_sched(cfg, ClusterSched::Cfq),
    }
}

impl FigResult {
    /// The sweep metrics: put and get p99 per scheduler and phase, and
    /// each scheduler's put-p99 blow-up under the crowd.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for run in [&self.split, &self.cfq] {
            let sys = run.sched.replace('-', "_");
            for phase in [&run.before, &run.during] {
                let label = phase.label;
                out.push((format!("{sys}_{label}_put_p99_ms"), phase.slo.put_e2e.p99));
                out.push((format!("{sys}_{label}_get_p99_ms"), phase.slo.get_e2e.p99));
            }
            out.push((format!("{sys}_put_p99_blowup"), run.put_p99_blowup()));
        }
        out
    }
}

/// `runner fig_cluster`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = &self.split.report;
        writeln!(
            f,
            "Cluster figure — flash crowd over {} kernels ({} groups, r={}), {} arrivals",
            r.kernels, r.groups, r.replication, r.arrival
        )?;
        let mut t = Table::new([
            "sched",
            "phase",
            "reqs",
            "put p50 ms",
            "put p99 ms",
            "get p99 ms",
        ]);
        for run in [&self.split, &self.cfq] {
            for phase in [&run.before, &run.during] {
                t.row([
                    run.sched.to_string(),
                    phase.label.to_string(),
                    phase.count.to_string(),
                    f1(phase.slo.put_e2e.p50),
                    f1(phase.slo.put_e2e.p99),
                    f1(phase.slo.get_e2e.p99),
                ]);
            }
        }
        writeln!(f, "{}", t.render())?;
        writeln!(
            f,
            "put p99 blowup under the crowd: split-token {:.2}x, cfq {:.2}x",
            self.split.put_p99_blowup(),
            self.cfq.put_p99_blowup()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_token_holds_the_fleet_p99_flatter_than_cfq() {
        let r = run(&Config::at(Profile::Quick, 0));
        for run in [&r.split, &r.cfq] {
            assert!(
                run.before.count > 20 && run.during.count > 50,
                "{}: before={} during={}",
                run.sched,
                run.before.count,
                run.during.count
            );
            assert_eq!(run.report.late, 0);
        }
        assert!(
            r.cfq.during.slo.put_e2e.p99 > 2.0 * r.split.during.slo.put_e2e.p99,
            "under the crowd CFQ commits must be much slower at p99: cfq {:.2} vs split {:.2}",
            r.cfq.during.slo.put_e2e.p99,
            r.split.during.slo.put_e2e.p99
        );
        assert!(
            r.cfq.during.slo.get_e2e.p99 > r.split.during.slo.get_e2e.p99,
            "reads suffer too under CFQ: cfq {:.2} vs split {:.2}",
            r.cfq.during.slo.get_e2e.p99,
            r.split.during.slo.get_e2e.p99
        );
        assert!(
            r.cfq.put_p99_blowup() > r.split.put_p99_blowup(),
            "CFQ must degrade more: cfq {:.2}x vs split {:.2}x",
            r.cfq.put_p99_blowup(),
            r.split.put_p99_blowup()
        );
        assert!(
            r.split.put_p99_blowup() < 2.5,
            "split-token should hold p99 nearly flat: {:.2}x",
            r.split.put_p99_blowup()
        );
    }

    #[test]
    fn crowd_multiplies_arrivals_in_the_during_phase() {
        let cfg = Config::at(Profile::Quick, 0);
        let r = run(&cfg);
        let ((b0, b1), (d0, d1)) = cfg.phases();
        let before_rate = r.split.before.count as f64 / (b1 - b0);
        let during_rate = r.split.during.count as f64 / (d1 - d0);
        assert!(
            during_rate > 3.0 * before_rate,
            "flash crowd should multiply load: {before_rate:.0}/s -> {during_rate:.0}/s"
        );
    }

    #[test]
    fn figure_is_deterministic() {
        let cfg = Config::at(Profile::Quick, 0);
        let a = format!("{}", run(&cfg));
        let b = format!("{}", run(&cfg));
        assert_eq!(a, b);
    }
}
