//! Shared experiment setup: build a world with a chosen scheduler, device
//! and file system.

use sim_block::{BlockDeadline, Cfq, DeadlineConfig, Noop};
use sim_cache::CacheConfig;
use sim_core::{KernelId, SimDuration};
use sim_device::{HddModel, SsdModel};
use sim_fault::ChaosConfig;
pub use sim_kernel::FsChoice;
use sim_kernel::{DeviceKind, KernelConfig, World};
use split_core::{BlockOnly, IoSched};
use split_layered::{LayerSpec, Layered, LayeredConfig, SpecError};
use split_schedulers::{Afq, ScsToken, SplitDeadline, SplitNoop, SplitToken};

/// Which scheduler to install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedChoice {
    /// Block-level FIFO.
    Noop,
    /// Linux CFQ (block level).
    Cfq,
    /// Linux deadline elevator (block level), stock expiries.
    BlockDeadline,
    /// Block-Deadline with 20 ms default expiries for reads and writes
    /// (Figures 5 and 12).
    BlockDeadline20ms,
    /// The SCS-Token baseline (gates reads).
    ScsToken,
    /// AFQ (§5.1).
    Afq,
    /// Split-Deadline, scheduler-owned writeback (§5.2).
    SplitDeadline,
    /// Split-Deadline, pdflush still running ("Split-Pdflush", Fig 19).
    SplitPdflush,
    /// Split-Token (§5.3).
    SplitToken,
    /// All split hooks wired, no policy (Fig 9 overhead probe).
    SplitNoop,
    /// The hierarchical layer plane over its default 3-layer tree
    /// (latency / capped / rest, partitioned by pid mod 3). Custom
    /// trees are built with [`build_layered`] and installed via
    /// [`build_world_with`].
    Layered,
}

impl SchedChoice {
    /// Every scheduler with a name of its own, in the check matrix's
    /// order: `ALL[0]` is the differential reference.
    pub const ALL: [SchedChoice; 10] = [
        SchedChoice::Noop,
        SchedChoice::Cfq,
        SchedChoice::BlockDeadline,
        SchedChoice::ScsToken,
        SchedChoice::Afq,
        SchedChoice::SplitDeadline,
        SchedChoice::SplitPdflush,
        SchedChoice::SplitToken,
        SchedChoice::SplitNoop,
        SchedChoice::Layered,
    ];

    /// The scheduler [`name`](Self::name) spells `name`.
    pub fn parse(name: &str) -> Option<SchedChoice> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Instantiate the scheduler (also used by the check harness to pair
    /// each policy with a sabotage wrapper).
    pub fn build(self) -> Box<dyn IoSched> {
        match self {
            SchedChoice::Noop => Box::new(BlockOnly::new(Noop::new())),
            SchedChoice::Cfq => Box::new(BlockOnly::new(Cfq::new())),
            SchedChoice::BlockDeadline => Box::new(BlockOnly::new(BlockDeadline::new())),
            SchedChoice::BlockDeadline20ms => {
                let expire = SimDuration::from_millis(20);
                Box::new(BlockOnly::new(BlockDeadline::with_config(DeadlineConfig {
                    read_expire: expire,
                    write_expire: expire,
                })))
            }
            SchedChoice::ScsToken => Box::new(ScsToken::new()),
            SchedChoice::Afq => Box::new(Afq::new()),
            SchedChoice::SplitDeadline => Box::new(SplitDeadline::new()),
            SchedChoice::SplitPdflush => Box::new(SplitDeadline::pdflush_variant()),
            SchedChoice::SplitToken => Box::new(SplitToken::new()),
            SchedChoice::SplitNoop => Box::new(SplitNoop::new()),
            SchedChoice::Layered => Box::new(
                build_layered(default_layer_tree(), LayeredConfig::default())
                    .expect("default layer tree is valid"),
            ),
        }
    }

    /// Whether the SCS architecture (reads pass the gate).
    pub(crate) fn gates_reads(self) -> bool {
        matches!(self, SchedChoice::ScsToken)
    }

    /// Whether the kernel's own pdflush should run.
    pub(crate) fn wants_pdflush(self) -> bool {
        !matches!(self, SchedChoice::SplitDeadline)
    }

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            SchedChoice::Noop => "noop",
            SchedChoice::Cfq => "cfq",
            SchedChoice::BlockDeadline | SchedChoice::BlockDeadline20ms => "block-deadline",
            SchedChoice::ScsToken => "scs-token",
            SchedChoice::Afq => "afq",
            SchedChoice::SplitDeadline => "split-deadline",
            SchedChoice::SplitPdflush => "split-pdflush",
            SchedChoice::SplitToken => "split-token",
            SchedChoice::SplitNoop => "split-noop",
            SchedChoice::Layered => "layered",
        }
    }
}

/// Resolve a child-scheduler name for a layer. Every flat scheduler is
/// eligible; "layered" itself is rejected (one level of nesting — the
/// tree composes flat children).
pub fn resolve_layer_child(name: &str) -> Option<Box<dyn IoSched>> {
    SchedChoice::parse(name)
        .filter(|&s| s != SchedChoice::Layered)
        .map(SchedChoice::build)
}

/// Build a layer tree with children resolved from the flat scheduler
/// registry. Unknown child names (including "layered") are rejected.
pub fn build_layered(specs: Vec<LayerSpec>, cfg: LayeredConfig) -> Result<Layered, SpecError> {
    Layered::build(specs, cfg, &mut |name| resolve_layer_child(name))
}

/// The default 3-layer tree `SchedChoice::Layered` installs: a latency
/// layer over the deadline elevator, a bandwidth-capped layer over CFQ,
/// and a double-weight default layer over Split-Token, partitioned by
/// pid mod 3 so the fuzz matrix exercises every layer deterministically.
pub fn default_layer_tree() -> Vec<LayerSpec> {
    split_layered::parse_layers(
        "lat:pidmod=3,1:latency:block-deadline;\
         cap:pidmod=3,2:cap=8388608:cfq;\
         rest:default:share+weight=2:split-token",
    )
    .expect("default tree parses")
}

/// Which device model to attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceChoice {
    /// 500 GB 7200 RPM disk.
    Hdd,
    /// 80 GB flash SSD.
    Ssd,
}

impl DeviceChoice {
    /// Both device models.
    pub const ALL: [DeviceChoice; 2] = [DeviceChoice::Hdd, DeviceChoice::Ssd];

    /// Short name for labels and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            DeviceChoice::Hdd => "hdd",
            DeviceChoice::Ssd => "ssd",
        }
    }

    /// The device [`name`](Self::name) spells `name`.
    pub fn parse(name: &str) -> Option<DeviceChoice> {
        Self::ALL.into_iter().find(|d| d.name() == name)
    }

    /// Instantiate the device model.
    pub fn build(self) -> DeviceKind {
        match self {
            DeviceChoice::Hdd => DeviceKind::Physical(Box::new(HddModel::new())),
            DeviceChoice::Ssd => DeviceKind::Physical(Box::new(SsdModel::new())),
        }
    }
}

/// Experiment machine description.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Scheduler under test.
    pub sched: SchedChoice,
    /// Device model.
    pub device: DeviceChoice,
    /// File system.
    pub fs: FsChoice,
    /// Modeled RAM.
    pub mem_bytes: u64,
    /// Cores.
    pub cores: u32,
    /// Dirty ratio override (default 0.20).
    pub dirty_ratio: f64,
    /// Experiment seed. Zero (the default) reproduces the historical runs
    /// bit-for-bit; the sweep engine sets it per replicate.
    pub seed: u64,
    /// Hardware queue depth (NCQ tags / NVMe slots); the default, 1, is
    /// a serial device.
    pub queue_depth: u32,
    /// Adversarial timing perturbation. `None` (the default) keeps runs
    /// byte-identical to a build without the chaos plane.
    pub chaos: Option<ChaosConfig>,
}

impl Setup {
    /// A machine with the given scheduler on an HDD with ext4 and 512 MB
    /// of memory (the scaled-down default).
    pub fn new(sched: SchedChoice) -> Self {
        Setup {
            sched,
            device: DeviceChoice::Hdd,
            fs: FsChoice::Ext4,
            mem_bytes: 512 * 1024 * 1024,
            cores: 8,
            dirty_ratio: 0.20,
            seed: 0,
            queue_depth: 1,
            chaos: None,
        }
    }

    /// Switch to the SSD model.
    pub fn on_ssd(mut self) -> Self {
        self.device = DeviceChoice::Ssd;
        self
    }

    /// Override memory size.
    pub fn mem(mut self, bytes: u64) -> Self {
        self.mem_bytes = bytes;
        self
    }

    /// Override core count.
    pub fn cores(mut self, n: u32) -> Self {
        self.cores = n;
        self
    }

    /// Override the dirty ratio (background ratio tracks at half).
    pub fn dirty_ratio(mut self, r: f64) -> Self {
        self.dirty_ratio = r;
        self
    }

    /// Override the experiment seed (varies file-system layout decisions).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Run at hardware queue depth `d`.
    pub fn queue_depth(mut self, d: u32) -> Self {
        self.queue_depth = d;
        self
    }
}

/// The kernel configuration a setup implies (shared with the check
/// harness, which installs an audit plane on top before building).
pub fn kernel_config(setup: Setup) -> KernelConfig {
    KernelConfig {
        fs: setup.fs,
        cache: CacheConfig {
            mem_bytes: setup.mem_bytes,
            dirty_ratio: setup.dirty_ratio,
            dirty_background_ratio: setup.dirty_ratio / 2.0,
        },
        cores: setup.cores,
        pdflush: setup.sched.wants_pdflush(),
        gate_reads: setup.sched.gates_reads(),
        fs_seed: setup.seed,
        chaos: setup.chaos,
        queue_depth: setup.queue_depth,
    }
}

/// Build a world with a single kernel per the setup.
pub fn build_world(setup: Setup) -> (World, KernelId) {
    build_world_with(setup, setup.sched.build())
}

/// Build a world per the setup but install an explicit scheduler
/// instance — custom layer trees, single-layer wrappers, shims. The
/// kernel flags (pdflush, read gating) still follow `setup.sched`, so a
/// wrapper around scheduler S runs under exactly S's kernel config.
pub fn build_world_with(setup: Setup, sched: Box<dyn IoSched>) -> (World, KernelId) {
    let mut w = World::new();
    let k = w.add_kernel(kernel_config(setup), setup.device.build(), sched);
    (w, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let s = Setup {
            fs: FsChoice::Xfs,
            ..Setup::new(SchedChoice::SplitToken)
        }
        .on_ssd()
        .mem(64 * 1024 * 1024)
        .cores(32)
        .dirty_ratio(0.5);
        assert_eq!(s.device, DeviceChoice::Ssd);
        assert_eq!(s.fs, FsChoice::Xfs);
        assert_eq!(s.cores, 32);
        let cfg = kernel_config(s);
        assert_eq!(
            (cfg.fs, cfg.cores, cfg.cache.mem_bytes),
            (FsChoice::Xfs, 32, 64 << 20)
        );
        let (w, k) = build_world(s);
        assert_eq!(w.kernel(k).sched().name(), "split-token");
    }

    #[test]
    fn names_parse_back_and_only_flat_schedulers_nest() {
        for s in SchedChoice::ALL {
            assert_eq!(SchedChoice::parse(s.name()), Some(s));
            assert_eq!(
                resolve_layer_child(s.name()).is_some(),
                s != SchedChoice::Layered
            );
        }
        for d in DeviceChoice::ALL {
            assert_eq!(DeviceChoice::parse(d.name()), Some(d));
        }
        assert_eq!(SchedChoice::parse("warp-drive"), None);
        assert_eq!(DeviceChoice::parse("tape"), None);
    }

    #[test]
    fn scs_gates_reads_and_split_deadline_owns_writeback() {
        assert!(SchedChoice::ScsToken.gates_reads());
        assert!(!SchedChoice::SplitToken.gates_reads());
        assert!(!SchedChoice::SplitDeadline.wants_pdflush());
        assert!(SchedChoice::SplitPdflush.wants_pdflush());
    }
}
