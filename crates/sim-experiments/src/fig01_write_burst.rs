//! Figure 1 — Write Burst.
//!
//! A normal process A reads sequentially from a large file; an
//! "idle-priority" process B issues a one-second burst of random writes.
//! Under CFQ, B's buffered burst is flushed by the writeback thread at
//! normal priority, so the idle class provides no protection and A's
//! throughput is degraded for a long time afterwards. Under Split-Token
//! with B throttled, the burst is charged to B the moment it dirties
//! buffers and B is held — A keeps its bandwidth.

use sim_block::IoPrio;
use sim_core::{SimDuration, SimTime};
use sim_workloads::{BurstWriter, SeqReader};
use split_core::{IoSched, SchedAttr};

use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world_with, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, KB, MB};

/// When B's burst starts.
pub(crate) const BURST_AT: SimDuration = SimDuration::from_secs(5);
/// Burst length.
pub(crate) const BURST_LEN: SimDuration = SimDuration::from_secs(1);
/// Size of the file A streams.
const A_FILE: u64 = 4 * GB;
/// Size of the file B scribbles into.
const B_FILE: u64 = 16 * GB;
/// Throughput-series bucket.
const BUCKET: SimDuration = SimDuration::from_secs(1);
/// Salt of B's write pattern in the figure itself (the burst ablation
/// replays the same world under its own).
pub(crate) const BURST_SALT: u64 = 0xb0b;

/// Configuration: 30 s quick, 120 s at paper scale (matching the paper's
/// several-minute recovery window).
pub type Config = Timed<30, 120>;

/// One scheduler's outcome.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Scheduler name.
    pub sched: &'static str,
    /// A's throughput per bucket (MB/s).
    pub a_mbps: Vec<f64>,
    /// A's mean throughput before the burst.
    pub before: f64,
    /// A's mean throughput in the 10 s after the burst starts.
    pub after: f64,
    /// Buckets (after the burst) until A recovers to 80% of `before`;
    /// `None` if it never does within the run.
    pub recovery_buckets: Option<usize>,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// CFQ with B in the idle class (the paper's Figure 1 line).
    pub cfq_idle: Series,
    /// Split-Token with B throttled to 1 MB/s.
    pub split_token: Series,
}

impl FigResult {
    /// The sweep metrics: A's rate before and after the burst, per system.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("cfq_before_mbps".into(), self.cfq_idle.before),
            ("cfq_after_mbps".into(), self.cfq_idle.after),
            ("split_before_mbps".into(), self.split_token.before),
            ("split_after_mbps".into(), self.split_token.after),
        ]
    }

    /// `--csv`: both throughput series, one row per bucket.
    fn csv(&self) -> String {
        let (cfq, split) = (&self.cfq_idle.a_mbps, &self.split_token.a_mbps);
        let mut out = String::from("second,cfq_mbps,split_mbps\n");
        for i in 0..cfq.len().max(split.len()) {
            out.push_str(&format!(
                "{},{:.2},{:.2}\n",
                i,
                cfq.get(i).copied().unwrap_or(0.0),
                split.get(i).copied().unwrap_or(0.0)
            ));
        }
        out
    }
}

/// Build the write-burst world: A streaming reads, B a one-second burst,
/// B contained per the scheduler's mechanism, on the machine `setup`
/// describes (its seed comes from `cfg`). Shared with the fig01_qd sweep
/// and the zero-allocation steady-state audit.
pub fn build_burst_world(
    cfg: &Config,
    setup: Setup,
) -> (sim_kernel::World, sim_core::KernelId, sim_core::Pid) {
    build_burst_world_with(cfg, setup, setup.sched.build(), BURST_SALT)
}

/// [`build_burst_world`] with an explicit scheduler instance and seed
/// salt for B's write pattern. `setup.sched` still drives the kernel
/// flags (pdflush, read gating) and B's containment attribute, while
/// `instance` is what actually installs (fig01_qd's tests wrap CFQ in a
/// single catch-all layer here; the burst ablation installs a
/// lobotomized Split-Token).
pub(crate) fn build_burst_world_with(
    cfg: &Config,
    setup: Setup,
    instance: Box<dyn IoSched>,
    salt: u64,
) -> (sim_kernel::World, sim_core::KernelId, sim_core::Pid) {
    let (mut w, k) = build_world_with(setup.seed(cfg.seed), instance);
    let a_file = w.prealloc_file(k, A_FILE, true);
    let b_file = w.prealloc_file(k, B_FILE, true);
    let a = w.spawn(k, Box::new(SeqReader::new(a_file, A_FILE, MB)));
    w.kernel_mut(k).track_read_ts(a, BUCKET);
    let b = w.spawn(
        k,
        Box::new(BurstWriter::new(
            b_file,
            B_FILE,
            4 * KB,
            SimTime::ZERO + BURST_AT,
            BURST_LEN,
            cfg.seed ^ salt,
        )),
    );
    match setup.sched {
        SchedChoice::Cfq => w.set_ioprio(k, b, IoPrio::idle()),
        SchedChoice::SplitToken => w.configure(k, b, SchedAttr::TokenRate(MB)),
        _ => {}
    }
    (w, k, a)
}

/// Run one burst world to the end and summarize A's throughput.
pub(crate) fn burst_series(
    cfg: &Config,
    sched: &'static str,
    (mut w, k, a): (sim_kernel::World, sim_core::KernelId, sim_core::Pid),
) -> Series {
    w.run_for(cfg.duration);
    let a_mbps = w.kernel(k).stats.read_ts[&a].mbps();
    let burst_bucket = (BURST_AT.as_nanos() / BUCKET.as_nanos()) as usize;
    let before_slice = &a_mbps[..burst_bucket.max(1).min(a_mbps.len())];
    let before = sim_core::stats::mean(before_slice);
    let after_slice: Vec<f64> = a_mbps
        .iter()
        .copied()
        .skip(burst_bucket + 1)
        .take(10)
        .collect();
    let after = sim_core::stats::mean(&after_slice);
    let recovery_buckets = a_mbps
        .iter()
        .skip(burst_bucket + 1)
        .position(|&x| x >= 0.8 * before);
    Series {
        sched,
        a_mbps,
        before,
        after,
        recovery_buckets,
    }
}

/// One scheduler's run at hardware queue depth `depth`.
pub(crate) fn run_one_with(cfg: &Config, sched: SchedChoice, depth: u32) -> Series {
    burst_series(
        cfg,
        sched.name(),
        build_burst_world(cfg, Setup::new(sched).queue_depth(depth)),
    )
}

/// Run the experiment.
pub(crate) fn run(cfg: &Config) -> FigResult {
    FigResult {
        cfq_idle: run_one_with(cfg, SchedChoice::Cfq, 1),
        split_token: run_one_with(cfg, SchedChoice::SplitToken, 1),
    }
}

/// `runner fig01`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    let mut out = CellOutput::of(&r, r.metrics());
    if req.csv {
        out.push_artifact("fig01_write_burst.csv", r.csv());
    }
    out
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 1 — Write Burst (B bursts at t={}s for {}s)",
            BURST_AT.as_secs_f64(),
            BURST_LEN.as_secs_f64()
        )?;
        let mut t = Table::new(["scheduler", "A before", "A after-burst", "recovered"]);
        for s in [&self.cfq_idle, &self.split_token] {
            t.row([
                s.sched.to_string(),
                format!("{} MB/s", f1(s.before)),
                format!("{} MB/s", f1(s.after)),
                match s.recovery_buckets {
                    Some(b) => format!("after {b} buckets"),
                    None => "not within run".to_string(),
                },
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Profile;

    #[test]
    fn cfq_idle_class_cannot_contain_the_burst_but_split_token_can() {
        let r = run(&Config::at(Profile::Quick, 0));
        // A streams near device bandwidth before the burst in both runs.
        assert!(
            r.cfq_idle.before > 80.0,
            "cfq before: {}",
            r.cfq_idle.before
        );
        assert!(
            r.split_token.before > 80.0,
            "split before: {}",
            r.split_token.before
        );
        // Under CFQ the burst sharply degrades A for the whole drain (the
        // paper's collapse is deeper still — its device pipelines many
        // requests; ours serves one at a time, which softens the blow)...
        assert!(
            r.cfq_idle.after < 0.7 * r.cfq_idle.before,
            "cfq after-burst should degrade: {} vs {}",
            r.cfq_idle.after,
            r.cfq_idle.before
        );
        assert!(
            r.cfq_idle.recovery_buckets.is_none(),
            "A should not recover within the quick run: {:?}",
            r.cfq_idle.recovery_buckets
        );
        // ...under Split-Token, A barely notices.
        assert!(
            r.split_token.after > 0.8 * r.split_token.before,
            "split-token should protect A: {} vs {}",
            r.split_token.after,
            r.split_token.before
        );
    }
}
