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

use crate::setup::{build_world_with, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, KB, MB};

/// Configuration for the write-burst experiment.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Total simulated time.
    pub duration: SimDuration,
    /// When B's burst starts.
    pub burst_at: SimDuration,
    /// Burst length.
    pub burst_len: SimDuration,
    /// Size of the file A streams.
    pub a_file: u64,
    /// Size of the file B scribbles into.
    pub b_file: u64,
    /// Throughput-series bucket.
    pub bucket: SimDuration,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// Small run for tests.
    pub fn quick() -> Self {
        Config {
            duration: SimDuration::from_secs(30),
            burst_at: SimDuration::from_secs(5),
            burst_len: SimDuration::from_secs(1),
            a_file: 4 * GB,
            b_file: 16 * GB,
            bucket: SimDuration::from_secs(1),
            seed: 0,
        }
    }

    /// Longer run matching the paper's several-minute recovery window.
    pub fn paper() -> Self {
        Config {
            duration: SimDuration::from_secs(120),
            ..Self::quick()
        }
    }
}

/// One scheduler's outcome.
#[derive(Debug, Clone)]
pub struct Series {
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
pub struct FigResult {
    /// CFQ with B in the idle class (the paper's Figure 1 line).
    pub cfq_idle: Series,
    /// Split-Token with B throttled to 1 MB/s.
    pub split_token: Series,
    /// Config used.
    pub cfg: Config,
}

fn run_one(cfg: &Config, sched: SchedChoice) -> Series {
    run_one_with(cfg, sched, None)
}

/// Build the write-burst world: A streaming reads, B a one-second burst,
/// B contained per the scheduler's mechanism. `queue_depth` of `None`
/// keeps the legacy serial device; `Some(d)` runs the queued plane
/// (shared with the fig01_qd sweep, the dispatch benchmarks, and the
/// zero-allocation steady-state audit).
pub fn build_burst_world(
    cfg: &Config,
    sched: SchedChoice,
    queue_depth: Option<u32>,
) -> (sim_kernel::World, sim_core::KernelId, sim_core::Pid) {
    build_burst_world_with(cfg, sched, sched.build(), queue_depth)
}

/// [`build_burst_world`] with an explicit scheduler instance. `base`
/// still drives the kernel flags (pdflush, read gating) and B's
/// containment attribute, while `instance` is what actually installs
/// (fig01_qd's tests wrap CFQ in a single catch-all layer here).
pub(crate) fn build_burst_world_with(
    cfg: &Config,
    base: SchedChoice,
    instance: Box<dyn IoSched>,
    queue_depth: Option<u32>,
) -> (sim_kernel::World, sim_core::KernelId, sim_core::Pid) {
    let mut setup = Setup::new(base).seed(cfg.seed);
    if let Some(d) = queue_depth {
        setup = setup.queue_depth(d);
    }
    let (mut w, k) = build_world_with(setup, instance);
    let a_file = w.prealloc_file(k, cfg.a_file, true);
    let b_file = w.prealloc_file(k, cfg.b_file, true);
    let a = w.spawn(k, Box::new(SeqReader::new(a_file, cfg.a_file, MB)));
    w.kernel_mut(k).track_read_ts(a, cfg.bucket);
    let b = w.spawn(
        k,
        Box::new(BurstWriter::new(
            b_file,
            cfg.b_file,
            4 * KB,
            SimTime::ZERO + cfg.burst_at,
            cfg.burst_len,
            cfg.seed ^ 0xb0b,
        )),
    );
    match base {
        SchedChoice::Cfq => w.set_ioprio(k, b, IoPrio::idle()),
        SchedChoice::SplitToken => w.configure(k, b, SchedAttr::TokenRate(MB)),
        _ => {}
    }
    (w, k, a)
}

/// [`run_one`] generalized over the device plane.
pub(crate) fn run_one_with(cfg: &Config, sched: SchedChoice, queue_depth: Option<u32>) -> Series {
    let (mut w, k, a) = build_burst_world(cfg, sched, queue_depth);
    w.run_for(cfg.duration);
    let a_mbps = w.kernel(k).stats.read_ts[&a].mbps();
    let burst_bucket = (cfg.burst_at.as_nanos() / cfg.bucket.as_nanos()) as usize;
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
        sched: sched.name(),
        a_mbps,
        before,
        after,
        recovery_buckets,
    }
}

/// Run the experiment.
pub fn run(cfg: &Config) -> FigResult {
    FigResult {
        cfq_idle: run_one(cfg, SchedChoice::Cfq),
        split_token: run_one(cfg, SchedChoice::SplitToken),
        cfg: *cfg,
    }
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 1 — Write Burst (B bursts at t={}s for {}s)",
            self.cfg.burst_at.as_secs_f64(),
            self.cfg.burst_len.as_secs_f64()
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

    #[test]
    fn cfq_idle_class_cannot_contain_the_burst_but_split_token_can() {
        let r = run(&Config::quick());
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
