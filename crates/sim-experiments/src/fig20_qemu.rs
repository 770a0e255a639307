//! Figure 20 — token-bucket isolation between QEMU guests.
//!
//! The Figure 14 experiment with A and B inside separate VMs: guests run
//! vanilla kernels; the host throttles the B VM's host-side I/O process.
//! Isolation results match the bare-metal case; the interesting
//! difference is "write-mem": because the *guest's* page cache sits above
//! the host's throttle, even SCS-Token no longer penalizes memory-bound
//! workloads — the buffering layer position is what matters (§7.2).

use sim_apps::vmm::launch_guest;
use sim_workloads::SeqReader;
use split_core::SchedAttr;

use crate::fig14_token_comparison::{point_metrics, BWorkload, Point};
use crate::registry::{CellOutput, CellRequest, Timed};
use crate::setup::{build_world, SchedChoice, Setup};
use crate::table::{f1, Table};
use crate::{GB, MB};

/// B's workloads inside its VM: the three of Figure 14's six that §7.2
/// repeats.
const WORKLOADS: [BWorkload; 3] = [BWorkload::ReadRand, BWorkload::ReadSeq, BWorkload::WriteMem];
/// B VM's throttle on the host.
const B_RATE: u64 = MB;

/// Configuration: 10 s per point quick, 30 s at paper scale.
pub type Config = Timed<10, 30>;

/// Full figure.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// SCS-Token on the host; throughputs are measured inside the guests.
    pub scs: Vec<Point>,
    /// Split-Token on the host.
    pub split: Vec<Point>,
}

/// Run one point: two guests on one host, B's VMM throttled.
pub(crate) fn run_point(cfg: &Config, host_sched: SchedChoice, wl: BWorkload) -> Point {
    let (mut w, host) = build_world(Setup::new(host_sched).seed(cfg.seed));
    let ga = launch_guest(&mut w, host);
    let gb = launch_guest(&mut w, host);
    // A: sequential reader inside its VM, over a >guest-RAM file.
    let a_file = w.prealloc_file(ga.kernel, 2 * GB, true);
    let a = w.spawn(ga.kernel, Box::new(SeqReader::new(a_file, 2 * GB, MB)));
    // B: its workload inside its VM.
    let b = wl.spawn(&mut w, gb.kernel, cfg.seed ^ 0x20);
    // Throttle the *whole B VM* on the host.
    w.configure(host, gb.vmm_pid, SchedAttr::TokenRate(B_RATE));
    w.run_for(cfg.duration);
    Point {
        workload: wl,
        a_mbps: w.kernel(ga.kernel).stats.read_mbps(a, cfg.duration),
        b_mbps: wl.mbps(&w.kernel(gb.kernel).stats, b, cfg.duration),
    }
}

/// Run the comparison.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let sweep = |sched| WORKLOADS.map(|wl| run_point(cfg, sched, wl)).to_vec();
    FigResult {
        scs: sweep(SchedChoice::ScsToken),
        split: sweep(SchedChoice::SplitToken),
    }
}

impl FigResult {
    /// The sweep metrics: both guests' throughput per host scheduler
    /// and B workload.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        point_metrics(&self.scs, &self.split)
    }
}

/// `runner fig20`.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&Config::at(req.profile, req.seed));
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 20 — QEMU guests: B VM throttled on the host")?;
        let mut t = Table::new([
            "B workload",
            "A scs MB/s",
            "A split MB/s",
            "B scs MB/s",
            "B split MB/s",
        ]);
        for (s, p) in self.scs.iter().zip(&self.split) {
            t.row([
                p.workload.label().to_string(),
                f1(s.a_mbps),
                f1(p.a_mbps),
                f1(s.b_mbps),
                f1(p.b_mbps),
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
    fn split_token_isolates_vms_where_scs_fails_on_random_io() {
        let cfg = Config::at(Profile::Quick, 0);
        let scs = run_point(&cfg, SchedChoice::ScsToken, BWorkload::ReadRand);
        let split = run_point(&cfg, SchedChoice::SplitToken, BWorkload::ReadRand);
        assert!(
            split.a_mbps > 1.5 * scs.a_mbps,
            "split A {} vs scs A {}",
            split.a_mbps,
            scs.a_mbps
        );
    }

    #[test]
    fn guest_page_cache_makes_write_mem_fast_even_under_scs() {
        // §7.2's observation: with the cache *above* the throttle (in the
        // guest), memory-bound workloads are fast under both schedulers.
        let cfg = Config::at(Profile::Quick, 0);
        let scs = run_point(&cfg, SchedChoice::ScsToken, BWorkload::WriteMem);
        let split = run_point(&cfg, SchedChoice::SplitToken, BWorkload::WriteMem);
        assert!(scs.b_mbps > 50.0, "scs write-mem in VM: {}", scs.b_mbps);
        assert!(
            split.b_mbps > 50.0,
            "split write-mem in VM: {}",
            split.b_mbps
        );
        let ratio = split.b_mbps / scs.b_mbps;
        assert!(
            (0.3..3.0).contains(&ratio),
            "in VMs the two should be comparable, got ratio {ratio}"
        );
    }
}
