#![warn(missing_docs)]
//! A cluster-scale serving fleet on the split-level storage stack.
//!
//! This crate generalizes the paper's 7-node HDFS case study (§7.3) to
//! a sharded serving fleet: every shard is a full simulated kernel with
//! its own event queue ([`sim_kernel::World`]), running a
//! replicated KV/log server (leader + followers, commit-on-quorum-fsync
//! — the `minidb` WAL discipline made distributed) next to a batch
//! tenant, under open-loop client traffic (Poisson / diurnal /
//! flash-crowd arrival processes).
//!
//! No message ever crosses a replication group, so each group is an
//! independent **conservative DES** (`exec`): its shards advance in
//! windows one network link latency wide (the lookahead), messages are
//! routed between windows, and groups run side by side on
//! [`sim_core::run_indexed`]. The simulated output is byte-identical at
//! any worker count (`--jobs 1` runs the groups one after another).
//!
//! Fleet-wide SLOs (per-tier and end-to-end p50/p99/p999) are computed
//! with [`sim_core::stats::Percentiles`] and exported through the
//! [`sim_trace::Registry`] (`slo`).

mod exec;
mod shard;
mod slo;
mod traffic;

use sim_block::Cfq;
use sim_cache::CacheConfig;
use sim_core::{stream_seed, SimDuration};
use sim_kernel::KernelConfig;
use split_core::{BlockOnly, IoSched};
use split_schedulers::SplitToken;

pub use shard::{ReqKind, ReqSample};
pub use sim_apps::net::Net;
pub use slo::{samples_between, SloReport, TierSlo};
pub use traffic::ArrivalKind;

/// Scheduler installed on every shard kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterSched {
    /// Split-Token (§5.3) — the paper's full split-level scheduler.
    SplitToken,
    /// Linux CFQ at the block level (the baseline that degrades).
    Cfq,
}

impl ClusterSched {
    /// Instantiate the scheduler.
    pub(crate) fn build(self) -> Box<dyn IoSched> {
        match self {
            ClusterSched::SplitToken => Box::new(SplitToken::new()),
            ClusterSched::Cfq => Box::new(BlockOnly::new(Cfq::new())),
        }
    }

    /// CLI / table name.
    pub fn name(self) -> &'static str {
        match self {
            ClusterSched::SplitToken => "split-token",
            ClusterSched::Cfq => "cfq",
        }
    }
}

/// Modeled RAM per shard.
const SHARD_MEM_BYTES: u64 = 256 * 1024 * 1024;

/// Cores per shard.
const SHARD_CORES: u32 = 8;

/// Fleet configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Shard (kernel instance) count.
    pub kernels: usize,
    /// Replication group size; groups are contiguous shard ranges and
    /// the remainder joins the last group. Quorum is majority.
    pub replication: usize,
    /// Scheduler on every shard (each on a 7200 RPM disk).
    pub sched: ClusterSched,
    /// Network model; its link latency is the PDES lookahead.
    pub net: Net,
    /// Arrival process, per replication group.
    pub arrival: ArrivalKind,
    /// WAL append size per put.
    pub wal_bytes: u64,
    /// Read size per get.
    pub get_bytes: u64,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Root seed: arrival schedules, request routing, file layouts.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            kernels: 16,
            replication: 3,
            sched: ClusterSched::SplitToken,
            net: Net,
            arrival: ArrivalKind::Poisson { rate: 30.0 },
            wal_bytes: 4096,
            get_bytes: 16 * 1024,
            duration: SimDuration::from_secs(10),
            seed: 0,
        }
    }
}

impl ClusterConfig {
    /// The kernel configuration for shard `idx`.
    pub(crate) fn kernel_config(&self, idx: usize) -> KernelConfig {
        KernelConfig {
            cache: CacheConfig {
                mem_bytes: SHARD_MEM_BYTES,
                ..Default::default()
            },
            cores: SHARD_CORES,
            pdflush: true,
            fs_seed: stream_seed(self.seed, 0xF5_0000 + idx as u64),
            ..Default::default()
        }
    }
}

/// How shards are grouped into replication groups.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Topology {
    n: usize,
    r: usize,
    groups: usize,
}

impl Topology {
    /// Group `kernels` shards into contiguous groups of `replication`;
    /// the remainder joins the last group.
    pub(crate) fn new(kernels: usize, replication: usize) -> Topology {
        let n = kernels.max(1);
        let r = replication.clamp(1, n);
        Topology {
            n,
            r,
            groups: (n / r).max(1),
        }
    }

    /// Number of replication groups.
    pub(crate) fn groups(&self) -> usize {
        self.groups
    }

    /// Which group shard `i` belongs to.
    pub(crate) fn group_of(&self, i: usize) -> usize {
        (i / self.r).min(self.groups - 1)
    }

    /// The shard-index range of group `g`.
    pub(crate) fn members(&self, g: usize) -> std::ops::Range<usize> {
        let start = g * self.r;
        let end = if g + 1 == self.groups {
            self.n
        } else {
            start + self.r
        };
        start..end
    }

    /// Group `g`'s leader shard.
    pub(crate) fn leader(&self, g: usize) -> usize {
        g * self.r
    }

    /// Majority quorum over group `g`'s members (fsyncs that must land
    /// before a put commits).
    pub(crate) fn quorum(&self, g: usize) -> usize {
        let m = self.members(g);
        (m.end - m.start) / 2 + 1
    }
}

/// Everything one fleet run produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Shard count.
    pub kernels: usize,
    /// Replication group count.
    pub groups: usize,
    /// Configured group size.
    pub replication: usize,
    /// Scheduler name.
    pub sched: &'static str,
    /// Arrival process name.
    pub arrival: &'static str,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Every completed request (shard-index order, completion order
    /// within a shard).
    pub samples: Vec<ReqSample>,
    /// Events processed across all shard queues.
    pub events: u64,
    /// Late schedules across all shards (must be zero — nonzero means
    /// the lookahead contract broke).
    pub late: u64,
    /// Requests still in flight when the clock stopped.
    pub inflight: u64,
    /// The SLO table.
    pub slo: SloReport,
}

impl ClusterReport {
    /// Deterministic fleet summary: config line, totals, SLO table.
    /// Byte-identical across `--jobs` values — CI diffs this output.
    pub fn render(&self) -> String {
        let puts = self
            .samples
            .iter()
            .filter(|s| s.kind == ReqKind::Put)
            .count();
        let gets = self.samples.len() - puts;
        let mut out = String::new();
        out.push_str(&format!(
            "Cluster SLO: {} kernel(s) in {} group(s) (r={}), {} on hdd, {} arrivals, {:.1}s\n",
            self.kernels, self.groups, self.replication, self.sched, self.arrival, self.duration_s
        ));
        out.push_str(&format!(
            "  committed: {} put(s), {} get(s); {} in flight at end; {} event(s); {} late\n",
            puts, gets, self.inflight, self.events, self.late
        ));
        out.push_str(&self.slo.render());
        out
    }

    /// Export counters and latency histograms into a metrics registry.
    pub fn registry(&self) -> sim_trace::Registry {
        let mut reg = sim_trace::Registry::new();
        SloReport::export(&self.samples, &mut reg);
        reg.add("cluster.events", self.events);
        reg.add("cluster.late_schedules", self.late);
        reg.add("cluster.inflight_at_end", self.inflight);
        reg
    }
}

/// Run the fleet on `jobs` workers. `jobs = 1` is the sequential
/// fallback; any other value produces byte-identical output (asserted
/// by the crate's tests and the CI smoke job).
pub fn run_cluster(cfg: &ClusterConfig, jobs: usize) -> ClusterReport {
    let topo = Topology::new(cfg.kernels, cfg.replication);
    let results = exec::run_windows(cfg, jobs);
    let mut samples = Vec::new();
    let mut events = 0;
    let mut late = 0;
    let mut inflight = 0;
    for r in results {
        samples.extend(r.samples);
        events += r.events;
        late += r.late;
        inflight += r.inflight;
    }
    let slo = SloReport::compute(&samples);
    ClusterReport {
        kernels: cfg.kernels.max(1),
        groups: topo.groups(),
        replication: cfg.replication.clamp(1, cfg.kernels.max(1)),
        sched: cfg.sched.name(),
        arrival: cfg.arrival.name(),
        duration_s: cfg.duration.as_secs_f64(),
        samples,
        events,
        late,
        inflight,
        slo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_groups_with_remainder() {
        let t = Topology::new(8, 3);
        assert_eq!(t.groups(), 2);
        assert_eq!(t.members(0), 0..3);
        assert_eq!(t.members(1), 3..8, "remainder joins the last group");
        assert_eq!(t.leader(1), 3);
        assert_eq!(t.quorum(0), 2);
        assert_eq!(t.quorum(1), 3, "majority of 5");
        assert_eq!(t.group_of(7), 1);
    }

    #[test]
    fn degenerate_single_shard_topology() {
        let t = Topology::new(1, 3);
        assert_eq!(t.groups(), 1);
        assert_eq!(t.members(0), 0..1);
        assert_eq!(t.quorum(0), 1, "no followers, commit on local fsync");
    }
}
