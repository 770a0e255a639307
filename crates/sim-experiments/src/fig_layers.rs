//! fig_layers — hierarchical multi-tenant layer plane.
//!
//! Three tenants share one device: a latency tenant (small appends +
//! fsync, a database log), a noisy neighbor (an analytics scan issuing
//! a firehose of random reads), and a capped batch tenant (sequential
//! bulk writes). Under the layer tree the latency
//! tenant rides a latency-priority layer over the deadline elevator,
//! the batch tenant a bandwidth-capped layer over CFQ, and the noise
//! lands in the default share layer over Split-Token; cause-tag latency
//! inheritance routes shared journal commits the latency tenant waits
//! on ahead of the noise. The claim: the layer plane holds the latency
//! tenant's fsync p99 near its solo baseline *and* pins the batch
//! tenant under its cap (verified by the [`LayerAuditor`]'s envelope),
//! while a flat scheduler given the same three tenants violates at
//! least one of those bounds.
//!
//! Each run covers the default one-slot queue (labelled `serial`) and an
//! NCQ depth-8 queue on the configured device; the registry's device
//! axis supplies hdd/ssd.

use sim_check::{AuditPlane, LayerAuditor};
use sim_core::{stats::Percentiles, SimDuration};
use sim_workloads::{FsyncAppender, RandReader, SeqWriter};
use split_layered::{parse_layers, LayerSpec, LayeredConfig};

use crate::registry::{CellOutput, CellRequest, Profile};
use crate::setup::{
    build_layered, build_world, build_world_with, DeviceChoice, SchedChoice, Setup,
};
use crate::table::{f1, ms, Table};
use crate::{GB, KB, MB};

/// Batch tenant's bandwidth cap (bytes/second of admitted writes).
const CAP: u64 = 4 * MB;
/// Latency tenant's append size per fsync (a WAL group commit).
/// Large enough that the 1.5× solo SLO leaves headroom above a
/// single device service quantum — on a non-preemptible device any
/// scheduler eats up to one in-flight request of blocking.
const LAT_APPEND: u64 = 256 * KB;
/// Batch tenant's write block size. Small blocks keep the ordered
/// entanglement residual (dirty batch data a shared commit must
/// flush) to a fraction of the SLO headroom.
const BATCH_BLOCK: u64 = 64 * KB;
/// Noisy neighbor's request size (random reads).
const NOISY_REQ: u64 = 64 * KB;
/// Arbiter-wide dirty budget, split across layers by share. Keeps
/// the noisy layer's write-behind from saturating the shared dirty
/// pool (global threshold is ~102 MB at the default 512 MB / 0.20).
const DIRTY_BUDGET: u64 = 48 * MB;
/// NCQ depth of the deep-queue run.
const QUEUE_DEPTH: u32 = 8;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Simulated time per arm.
    pub duration: SimDuration,
    /// Device plane.
    pub device: DeviceChoice,
    /// Experiment seed (0 = historical run).
    pub seed: u64,
}

impl Config {
    /// The HDD run: 10 s per arm quick, 30 s at paper scale.
    pub(crate) fn at(profile: Profile, seed: u64) -> Self {
        Config {
            duration: profile.secs(10, 30),
            device: DeviceChoice::Hdd,
            seed,
        }
    }

    /// The same run on `device`.
    pub(crate) fn on(self, device: DeviceChoice) -> Self {
        Config { device, ..self }
    }
}

/// Spawn order is fixed (latency, noisy, capped), so the tree can bind
/// tenants with explicit pid rules — which also keeps every rule
/// pid-decidable, the precondition for the [`LayerAuditor`] replay.
const LAT_PID: u32 = 10;
const CAPPED_PID: u32 = 12;

/// The three-tenant layer tree for one cap value.
pub fn tenant_tree(cap: u64) -> Vec<LayerSpec> {
    parse_layers(&format!(
        "lat:pids={LAT_PID}:latency:block-deadline;\
         batch:pids={CAPPED_PID}:cap={cap}:cfq;\
         bulk:default:share:split-token"
    ))
    .expect("tenant tree parses")
}

/// One arm's measurements.
#[derive(Debug, Clone)]
pub(crate) struct TenantRun {
    /// Arm label ("solo", "layered", "flat cfq").
    pub label: &'static str,
    /// Latency tenant's fsync p99 (ms), after a 1 s warm-up.
    pub lat_p99_ms: f64,
    /// Latency tenant's completed fsyncs.
    pub lat_fsyncs: usize,
    /// Batch tenant's admitted write throughput (MB/s); 0 when absent.
    pub capped_mbps: f64,
    /// Noisy neighbor's admitted write throughput (MB/s); 0 when absent.
    pub noisy_mbps: f64,
    /// Layer-auditor violations (layered arms only; flat has no plane).
    pub audit_violations: usize,
}

/// One queue depth (1 or 8) — all three arms plus the bounds.
#[derive(Debug, Clone)]
pub(crate) struct PlaneResult {
    /// Plane label ("serial" or "qd=8").
    pub plane: String,
    /// Latency tenant alone under the layer tree (the SLO baseline).
    pub solo: TenantRun,
    /// All three tenants under the layer tree.
    pub layered: TenantRun,
    /// All three tenants under flat CFQ.
    pub flat: TenantRun,
}

impl PlaneResult {
    /// Bound 1: layered p99 within 1.5× the solo baseline.
    pub(crate) fn latency_ok(&self) -> bool {
        self.layered.lat_p99_ms <= 1.5 * self.solo.lat_p99_ms
    }

    /// Bound 2: batch tenant inside its cap (admitted throughput within
    /// the bucket's rate + one-burst allowance) and the auditor's
    /// envelope never tripped.
    pub(crate) fn cap_ok(&self, cap_bound_mbps: f64) -> bool {
        self.layered.capped_mbps <= cap_bound_mbps && self.layered.audit_violations == 0
    }

    /// Does the flat scheduler violate at least one bound?
    pub(crate) fn flat_violates(&self, cap_bound_mbps: f64) -> bool {
        self.flat.lat_p99_ms > 1.5 * self.solo.lat_p99_ms || self.flat.capped_mbps > cap_bound_mbps
    }
}

/// Full figure result.
#[derive(Debug, Clone)]
pub(crate) struct FigResult {
    /// Queue depth 1.
    pub serial: PlaneResult,
    /// NCQ depth 8.
    pub queued: PlaneResult,
    /// Whether the tree's guarantees were feasible as requested.
    pub solver_feasible: bool,
    /// Solver adjustments applied (0 when feasible).
    pub solver_adjustments: usize,
    /// Config used.
    pub cfg: Config,
}

impl FigResult {
    /// The admitted-throughput bound implied by the cap: sustained rate
    /// plus the bucket's one-second burst, amortized over the run, with
    /// 5% measurement slack.
    pub(crate) fn cap_bound_mbps(&self) -> f64 {
        let rate = CAP as f64 / MB as f64;
        let dur = self.cfg.duration.as_secs_f64();
        rate * (1.0 + 1.0 / dur) * 1.05
    }
}

fn run_arm(cfg: &Config, queued: bool, layered: bool, with_noise: bool) -> TenantRun {
    let sched = if layered {
        SchedChoice::Layered
    } else {
        SchedChoice::Cfq
    };
    let mut setup = Setup {
        device: cfg.device,
        seed: cfg.seed,
        ..Setup::new(sched)
    };
    if queued {
        setup = setup.queue_depth(QUEUE_DEPTH);
    }
    let specs = tenant_tree(CAP);
    let lcfg = LayeredConfig {
        dirty_budget: Some(DIRTY_BUDGET),
        eager_wb_bytes: Some(BATCH_BLOCK),
        ..LayeredConfig::default()
    };
    let (mut w, k) = if layered {
        let arbiter = build_layered(specs.clone(), lcfg).expect("tenant tree children resolve");
        build_world_with(setup, Box::new(arbiter))
    } else {
        build_world(setup)
    };
    if layered {
        w.kernel_mut(k)
            .install_audit_plane(AuditPlane::new(vec![Box::new(LayerAuditor::new(specs))]));
    }
    let lat_file = w.prealloc_file(k, 256 * MB, true);
    let lat = w.spawn(
        k,
        Box::new(FsyncAppender::new(
            lat_file,
            LAT_APPEND,
            SimDuration::from_millis(20),
        )),
    );
    assert_eq!(lat.0, LAT_PID, "spawn order fixes the latency tenant pid");
    let tenants = with_noise.then(|| {
        let noisy_file = w.prealloc_file(k, GB, true);
        let capped_file = w.prealloc_file(k, GB, true);
        let noisy = w.spawn(
            k,
            Box::new(RandReader::new(
                noisy_file,
                GB,
                NOISY_REQ,
                cfg.seed ^ 0x0151,
            )),
        );
        let capped = w.spawn(k, Box::new(SeqWriter::new(capped_file, GB, BATCH_BLOCK)));
        assert_eq!(capped.0, CAPPED_PID, "spawn order fixes the batch pid");
        (noisy, capped)
    });
    w.run_for(cfg.duration);
    let stats = &w.kernel(k).stats;
    let lat_ms: Vec<f64> = stats
        .proc(lat)
        .map(|s| {
            s.fsyncs
                .iter()
                .filter(|(t, _)| t.as_secs_f64() > 1.0)
                .map(|(_, d)| d.as_millis_f64())
                .collect()
        })
        .unwrap_or_default();
    let lat_fsyncs = lat_ms.len();
    let (noisy_mbps, capped_mbps) = tenants
        .map(|(noisy, capped)| {
            (
                stats.read_mbps(noisy, cfg.duration),
                stats.write_mbps(capped, cfg.duration),
            )
        })
        .unwrap_or((0.0, 0.0));
    TenantRun {
        label: match (layered, with_noise) {
            (true, false) => "solo",
            (true, true) => "layered",
            (false, _) => "flat cfq",
        },
        lat_p99_ms: Percentiles::new(lat_ms).p99(),
        lat_fsyncs,
        capped_mbps,
        noisy_mbps,
        audit_violations: w
            .kernel(k)
            .audit_plane()
            .map(|p| p.violations().len())
            .unwrap_or(0),
    }
}

fn run_plane(cfg: &Config, queued: bool) -> PlaneResult {
    PlaneResult {
        plane: if queued {
            format!("qd={QUEUE_DEPTH}")
        } else {
            "serial".to_string()
        },
        solo: run_arm(cfg, queued, true, false),
        layered: run_arm(cfg, queued, true, true),
        flat: run_arm(cfg, queued, false, true),
    }
}

/// Run both planes on the configured device.
pub(crate) fn run(cfg: &Config) -> FigResult {
    let feas = build_layered(tenant_tree(CAP), LayeredConfig::default())
        .expect("tenant tree children resolve")
        .feasibility()
        .clone();
    FigResult {
        serial: run_plane(cfg, false),
        queued: run_plane(cfg, true),
        solver_feasible: feas.feasible(),
        solver_adjustments: feas.adjustments.len(),
        cfg: *cfg,
    }
}

impl FigResult {
    /// The sweep metrics: the cap bound and the solver's repairs, then
    /// per plane every arm's p99, the batch tenant's throughput under
    /// both schedulers and the auditor's verdict.
    pub(crate) fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("cap_bound_mbps".into(), self.cap_bound_mbps()),
            ("solver_adjustments".into(), self.solver_adjustments as f64),
        ];
        for p in [&self.serial, &self.queued] {
            let plane = p.plane.replace('=', "");
            out.extend([
                (format!("{plane}_solo_p99_ms"), p.solo.lat_p99_ms),
                (format!("{plane}_layered_p99_ms"), p.layered.lat_p99_ms),
                (format!("{plane}_flat_p99_ms"), p.flat.lat_p99_ms),
                (
                    format!("{plane}_layered_capped_mbps"),
                    p.layered.capped_mbps,
                ),
                (format!("{plane}_flat_capped_mbps"), p.flat.capped_mbps),
                (
                    format!("{plane}_audit_violations"),
                    p.layered.audit_violations as f64,
                ),
            ]);
        }
        out
    }
}

/// `runner fig_layers`, on the requested device (HDD by default). The
/// SSD run is quick at either scale.
pub(crate) fn cell(req: &CellRequest) -> CellOutput {
    let r = run(&match req.device {
        Some(DeviceChoice::Ssd) => Config::at(Profile::Quick, req.seed).on(DeviceChoice::Ssd),
        _ => Config::at(req.profile, req.seed),
    });
    CellOutput::of(&r, r.metrics())
}

impl std::fmt::Display for FigResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fig_layers — multi-tenant layer plane ({:?}, cap {} MB/s)",
            self.cfg.device,
            CAP / MB
        )?;
        let bound = self.cap_bound_mbps();
        for p in [&self.serial, &self.queued] {
            let mut t = Table::new([
                "arm",
                "lat p99",
                "fsyncs",
                "capped MB/s",
                "noisy MB/s",
                "audit",
            ]);
            for a in [&p.solo, &p.layered, &p.flat] {
                t.row([
                    a.label.to_string(),
                    ms(a.lat_p99_ms),
                    a.lat_fsyncs.to_string(),
                    f1(a.capped_mbps),
                    f1(a.noisy_mbps),
                    a.audit_violations.to_string(),
                ]);
            }
            writeln!(f, "[{}]", p.plane)?;
            writeln!(f, "{}", t.render())?;
            writeln!(
                f,
                "latency SLO {} | cap {} | flat violates a bound: {}",
                if p.latency_ok() { "held" } else { "BROKEN" },
                if p.cap_ok(bound) { "held" } else { "BROKEN" },
                if p.flat_violates(bound) { "yes" } else { "NO" },
            )?;
        }
        write!(
            f,
            "solver: {} ({} adjustment(s))",
            if self.solver_feasible {
                "feasible as requested"
            } else {
                "repaired"
            },
            self.solver_adjustments
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bounds(r: &FigResult) {
        let bound = r.cap_bound_mbps();
        for p in [&r.serial, &r.queued] {
            let tag = format!("{:?}/{}", r.cfg.device, p.plane);
            assert!(
                p.solo.lat_fsyncs > 20 && p.layered.lat_fsyncs > 20,
                "{tag}: latency tenant barely ran: solo {} layered {}",
                p.solo.lat_fsyncs,
                p.layered.lat_fsyncs
            );
            assert!(
                p.latency_ok(),
                "{tag}: layered p99 {} vs solo {} breaks the 1.5x SLO",
                p.layered.lat_p99_ms,
                p.solo.lat_p99_ms
            );
            assert!(
                p.cap_ok(bound),
                "{tag}: batch tenant {} MB/s vs bound {} ({} auditor violations)",
                p.layered.capped_mbps,
                bound,
                p.layered.audit_violations
            );
            assert!(
                p.flat_violates(bound),
                "{tag}: flat cfq held every bound (p99 {} vs solo {}, capped {} vs {})",
                p.flat.lat_p99_ms,
                p.solo.lat_p99_ms,
                p.flat.capped_mbps,
                bound
            );
        }
    }

    #[test]
    fn layer_plane_holds_bounds_on_ssd() {
        let r = run(&Config::at(Profile::Quick, 0).on(DeviceChoice::Ssd));
        // The 4 MB/s cap is far below the batch layer's weighted
        // entitlement: the solver must clip it and say so.
        assert!(!r.solver_feasible, "expected a DominantCapped repair");
        assert!(r.solver_adjustments >= 1);
        assert_bounds(&r);
    }

    #[test]
    fn layer_plane_holds_bounds_on_hdd() {
        let r = run(&Config::at(Profile::Quick, 0));
        assert_bounds(&r);
    }
}
