//! The chaos plane: seeded adversarial timing perturbation.
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
//!   completions within the in-flight window.
//!
//! Legality bounds, by construction:
//!
//! * every perturbed interval stays strictly positive, so nothing is ever
//!   scheduled into the past (late schedules are a hard error);
//! * CPU delays and service stretches only *add* time — no event is moved
//!   earlier than its unperturbed cause, and completion reorder stays
//!   within the device's in-flight window.
//!
//! The plane follows the fault/audit/profiler idiom: `Option`-installed
//! through the kernel config, and the `None` path is byte-identical to a
//! build without the plane.

use crate::rng::SimRng;
use crate::time::SimDuration;

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
        Some(match s {
            "wb" => ChaosClass::Writeback,
            "cpu" => ChaosClass::CpuSlice,
            "journal" => ChaosClass::Journal,
            "complete" => ChaosClass::Completion,
            _ => return None,
        })
    }

    /// Seed-stream index; also the index into [`ChaosConfig`]'s toggles.
    fn index(self) -> usize {
        match self {
            ChaosClass::Writeback => 0,
            ChaosClass::CpuSlice => 1,
            ChaosClass::Journal => 2,
            ChaosClass::Completion => 3,
        }
    }
}

/// Writeback tick scale half-width: each poll interval is scaled by a
/// factor in `[1 - WB_JITTER, 1 + WB_JITTER]`, floored at 1 ns.
const WB_JITTER: f64 = 0.5;

/// Maximum added CPU-slice wakeup delay.
const CPU_DELAY: SimDuration = SimDuration::from_micros(200);

/// Journal commit-timer scale half-width (same shape as [`WB_JITTER`]).
const JOURNAL_JITTER: f64 = 0.5;

/// Maximum added service-time fraction: each service time is scaled by a
/// factor in `[1, 1 + COMPLETION_STRETCH]`.
const COMPLETION_STRETCH: f64 = 0.5;

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

/// The completion class's service-stretch stream, owned by the device:
/// stretches service times by a factor in `[1, 1 + COMPLETION_STRETCH)`,
/// exactly the mechanism of a fault-plane spike (completions only move
/// later, never earlier).
#[derive(Debug, Clone)]
pub struct CompletionJitter {
    rng: SimRng,
}

impl CompletionJitter {
    /// The completion stream of `cfg`: stream `(cfg.seed, class_index)`,
    /// like every other class. `None` when the class is off (the device
    /// then stays chaos-free and byte-identical).
    pub fn new(cfg: &ChaosConfig) -> Option<Self> {
        cfg.is_enabled(ChaosClass::Completion)
            .then(|| CompletionJitter {
                rng: SimRng::stream(cfg.seed, ChaosClass::Completion.index() as u64),
            })
    }

    /// Draw the next service-time stretch factor, always `>= 1`.
    pub fn stretch(&mut self) -> f64 {
        1.0 + self.rng.gen_f64() * COMPLETION_STRETCH
    }
}

/// The kernel-side chaos plane built from a [`ChaosConfig`]: the timer
/// and CPU classes. Lives inside the kernel (`Option`-installed); every
/// draw method is the identity and draws nothing when its class is
/// disabled. The completion class is the device's [`CompletionJitter`].
#[derive(Debug)]
pub struct ChaosPlane {
    cfg: ChaosConfig,
    wb: SimRng,
    cpu: SimRng,
    journal: SimRng,
}

impl ChaosPlane {
    /// Build the plane; each class gets stream `(cfg.seed, class_index)`.
    pub fn new(cfg: &ChaosConfig) -> Self {
        ChaosPlane {
            cfg: *cfg,
            wb: SimRng::stream(cfg.seed, ChaosClass::Writeback.index() as u64),
            cpu: SimRng::stream(cfg.seed, ChaosClass::CpuSlice.index() as u64),
            journal: SimRng::stream(cfg.seed, ChaosClass::Journal.index() as u64),
        }
    }

    /// Scale `interval` by a factor in `[1 - j, 1 + j]`, floored at 1 ns
    /// so the jittered timer always lands strictly in the future.
    fn jitter_interval(rng: &mut SimRng, interval: SimDuration, j: f64) -> SimDuration {
        let factor = 1.0 - j + rng.gen_f64() * 2.0 * j;
        interval.mul_f64(factor).max(SimDuration::from_nanos(1))
    }

    /// The writeback daemon's next poll interval.
    pub fn wb_tick(&mut self, base: SimDuration) -> SimDuration {
        if !self.cfg.is_enabled(ChaosClass::Writeback) {
            return base;
        }
        Self::jitter_interval(&mut self.wb, base, WB_JITTER)
    }

    /// Extra wakeup delay for one process CPU slice (zero when off).
    pub fn cpu_delay(&mut self) -> SimDuration {
        if !self.cfg.is_enabled(ChaosClass::CpuSlice) {
            return SimDuration::ZERO;
        }
        let max = CPU_DELAY.as_nanos();
        SimDuration::from_nanos(self.cpu.gen_range(max.saturating_add(1)))
    }

    /// The journal commit timer's next poll interval.
    pub fn journal_tick(&mut self, base: SimDuration) -> SimDuration {
        if !self.cfg.is_enabled(ChaosClass::Journal) {
            return base;
        }
        Self::jitter_interval(&mut self.journal, base, JOURNAL_JITTER)
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

    #[test]
    fn disabled_classes_are_the_identity_and_draw_nothing() {
        let mut p = ChaosPlane::new(&ChaosConfig::only(7, &[]));
        let base = SimDuration::from_millis(200);
        for _ in 0..100 {
            assert_eq!(p.wb_tick(base), base);
            assert_eq!(p.cpu_delay(), SimDuration::ZERO);
            assert_eq!(p.journal_tick(base), base);
        }
        assert!(CompletionJitter::new(&ChaosConfig::only(7, &[])).is_none());
    }

    #[test]
    fn draws_respect_the_legality_bounds() {
        let cfg = ChaosConfig::with_seed(42);
        let mut p = ChaosPlane::new(&cfg);
        let mut j = CompletionJitter::new(&cfg).expect("class enabled");
        let base = SimDuration::from_millis(200);
        for _ in 0..10_000 {
            let wb = p.wb_tick(base);
            assert!(wb > SimDuration::ZERO, "never schedule into the past");
            assert!(wb >= base.mul_f64(1.0 - WB_JITTER - 1e-9));
            assert!(wb <= base.mul_f64(1.0 + WB_JITTER + 1e-9));
            let d = p.cpu_delay();
            assert!(d <= CPU_DELAY, "cpu delay within bound");
            let jt = p.journal_tick(base);
            assert!(jt > SimDuration::ZERO);
            let s = j.stretch();
            assert!(
                (1.0..=1.0 + COMPLETION_STRETCH).contains(&s),
                "completions only move later: {s}"
            );
        }
        // A tiny base interval still never reaches zero.
        assert!(p.wb_tick(SimDuration::from_nanos(1)) >= SimDuration::from_nanos(1));
    }

    #[test]
    fn class_streams_are_independent() {
        // Toggling one class off must not change what the others draw.
        let all = ChaosConfig::with_seed(9);
        let no_cpu = ChaosConfig::only(
            9,
            &[
                ChaosClass::Writeback,
                ChaosClass::Journal,
                ChaosClass::Completion,
            ],
        );
        let mut a = ChaosPlane::new(&all);
        let mut b = ChaosPlane::new(&no_cpu);
        let base = SimDuration::from_millis(200);
        for _ in 0..200 {
            // Interleave cpu draws on `a` only; the wb and journal
            // sequences must stay identical.
            let _ = a.cpu_delay();
            assert_eq!(a.wb_tick(base), b.wb_tick(base));
            assert_eq!(a.journal_tick(base), b.journal_tick(base));
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let cfg = ChaosConfig::with_seed(3);
        let mut a = ChaosPlane::new(&cfg);
        let mut b = ChaosPlane::new(&cfg);
        let mut ja = CompletionJitter::new(&cfg).expect("class enabled");
        let mut jb = CompletionJitter::new(&cfg).expect("class enabled");
        let base = SimDuration::from_secs(1);
        for _ in 0..100 {
            assert_eq!(a.wb_tick(base), b.wb_tick(base));
            assert_eq!(a.cpu_delay(), b.cpu_delay());
            assert_eq!(a.journal_tick(base), b.journal_tick(base));
            assert_eq!(ja.stretch(), jb.stretch());
        }
    }
}
