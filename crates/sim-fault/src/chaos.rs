//! The chaos plane's configuration: seeded adversarial timing perturbation.
//!
//! Every correctness result in this repo is otherwise proven under *one*
//! legal timing per seed. The chaos plane (the `scx_chaos` analogue)
//! perturbs that timing — within legal bounds — so the auditors and the
//! differential check harness explore many legal interleavings instead of
//! the single golden one.
//!
//! Four perturbation classes, each drawn from its own independent RNG
//! stream (`SimRng::stream(seed, class)`), so toggling one class never
//! changes what another class draws:
//!
//! * [`ChaosClass::Writeback`] (`wb`) — scales each writeback-daemon poll
//!   interval by a factor in `[1 - j, 1 + j]`, so background writeback
//!   wakes early or late instead of on the exact `wb_tick` grid.
//! * [`ChaosClass::CpuSlice`] (`cpu`) — adds a bounded, non-negative
//!   wakeup delay to every process CPU slice (compute and post-syscall),
//!   reordering runnable processes the way a shaken CPU scheduler would.
//! * [`ChaosClass::Journal`] (`journal`) — scales the jbd2 commit timer's
//!   poll interval the same way `wb` scales writeback, moving periodic
//!   commits off their grid.
//! * [`ChaosClass::Completion`] (`complete`) — stretches device service
//!   times by a factor in `[1, 1 + s]`, reordering the device's
//!   completions within the in-flight window. The kernel draws it when a
//!   request enters service; the device itself knows nothing of chaos.
//!
//! Legality bounds, by construction:
//!
//! * every perturbed interval stays strictly positive, so nothing is ever
//!   scheduled into the past (late schedules are a hard error);
//! * CPU delays and service stretches only *add* time — no event is moved
//!   earlier than its unperturbed cause, and completion reorder stays
//!   within the device's in-flight window.
//!
//! A [`ChaosConfig`] only names the seed and the classes; the draws
//! happen in [`Perturb`](crate::Perturb), the kernel's one perturbation
//! seam. With no config every class is absent and the run is
//! byte-identical to a build without the plane.

use sim_core::SimDuration;

/// One perturbation class (an independent seed stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosClass {
    /// Writeback-daemon wakeup jitter (`wb`).
    Writeback,
    /// Process CPU-slice wakeup delay (`cpu`).
    CpuSlice,
    /// Journal commit-timer jitter (`journal`).
    Journal,
    /// Queued-device completion order: service stretch (`complete`).
    Completion,
}

impl ChaosClass {
    /// Every class, in seed-stream order.
    pub const ALL: [ChaosClass; 4] = [
        ChaosClass::Writeback,
        ChaosClass::CpuSlice,
        ChaosClass::Journal,
        ChaosClass::Completion,
    ];

    /// The CLI name (`--chaos-classes wb,cpu,journal,complete`).
    pub fn name(self) -> &'static str {
        match self {
            ChaosClass::Writeback => "wb",
            ChaosClass::CpuSlice => "cpu",
            ChaosClass::Journal => "journal",
            ChaosClass::Completion => "complete",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<ChaosClass> {
        ChaosClass::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Seed-stream index (declaration order); also the index into
    /// [`ChaosConfig`]'s toggles.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Writeback tick scale half-width: each poll interval is scaled by a
/// factor in `[1 - WB_JITTER, 1 + WB_JITTER]`, floored at 1 ns.
pub(crate) const WB_JITTER: f64 = 0.5;

/// Maximum added CPU-slice wakeup delay.
pub(crate) const CPU_DELAY: SimDuration = SimDuration::from_micros(200);

/// Journal commit-timer scale half-width (same shape as [`WB_JITTER`]).
pub(crate) const JOURNAL_JITTER: f64 = 0.5;

/// Maximum added service-time fraction: each service time is scaled by a
/// factor in `[1, 1 + COMPLETION_STRETCH]`.
pub(crate) const COMPLETION_STRETCH: f64 = 0.5;

/// Chaos plane configuration: one root seed and per-class toggles. The
/// legality bounds are the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Root seed; each class derives stream `(seed, class_index)`.
    pub seed: u64,
    /// Which classes actively perturb (a disabled class draws nothing).
    enabled: [bool; 4],
}

impl ChaosConfig {
    /// All four classes enabled.
    pub fn with_seed(seed: u64) -> Self {
        ChaosConfig {
            seed,
            enabled: [true; 4],
        }
    }

    /// Only the listed classes enabled (an empty list perturbs nothing —
    /// the byte-identity regression tests use exactly that).
    pub fn only(seed: u64, classes: &[ChaosClass]) -> Self {
        let mut cfg = ChaosConfig::with_seed(seed);
        cfg.enabled = [false; 4];
        for c in classes {
            cfg.enabled[c.index()] = true;
        }
        cfg
    }

    /// Whether `class` actively perturbs.
    pub(crate) fn is_enabled(&self, class: ChaosClass) -> bool {
        self.enabled[class.index()]
    }

    /// The enabled classes, in seed-stream order.
    pub fn classes(&self) -> Vec<ChaosClass> {
        ChaosClass::ALL
            .into_iter()
            .filter(|c| self.is_enabled(*c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_round_trip() {
        for c in ChaosClass::ALL {
            assert_eq!(ChaosClass::parse(c.name()), Some(c));
        }
        assert_eq!(ChaosClass::parse("frobnicate"), None);
    }
}
