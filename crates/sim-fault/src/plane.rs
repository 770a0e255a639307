//! Deterministic device-level fault plan.

use std::collections::BTreeMap;

use sim_core::SimRng;
use sim_device::{DiskRequestShape, IoDir};

/// One fault applied to a device write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fault {
    /// The device reports failure; nothing reaches media.
    Transient,
    /// The write tears: the device reports failure after some prefix of
    /// it, possibly all of it, reached media. Which prefix is the crash
    /// checker's to choose ([`DiskImage::cut`](crate::DiskImage::cut)).
    Torn,
    /// The request completes normally but takes `factor`× its modeled
    /// service time (firmware stall, internal GC pause).
    Spike {
        /// Service-time multiplier, ≥ 1.0.
        factor: f64,
    },
}

/// A deterministic fault plan for one device.
///
/// Faults come from two sources, both pure functions of the configuration:
///
/// * a **plan** — explicit "fault the Nth write" entries, which is what the
///   crash-point sweep uses to hit every step of the journal protocol, and
/// * **rates** — per-write probabilities drawn from the plane's seeded
///   [`SimRng`] (seed 0 unless given). Draws happen in a fixed order once per write op, so a run
///   is a pure function of (workload, seed).
///
/// The plane only ever fires on writes; reads pass through untouched. With
/// an empty plan and zero rates it never fires — and the kernel skips fault
/// handling entirely when no plane is installed, keeping the happy path
/// bit-identical to the fault-free build.
#[derive(Debug, Clone)]
pub struct DeviceFaultPlane {
    plan: BTreeMap<u64, Fault>,
    /// Per-write probabilities of the rate-based mode.
    transient: f64,
    torn: f64,
    rng: SimRng,
    writes_seen: u64,
}

impl Default for DeviceFaultPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceFaultPlane {
    /// A plane that never fires until plan entries or rates are added;
    /// its rates draw from seed 0.
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// A plane whose rates draw from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        DeviceFaultPlane {
            plan: BTreeMap::new(),
            transient: 0.0,
            torn: 0.0,
            rng: SimRng::seed_from_u64(seed),
            writes_seen: 0,
        }
    }

    /// Plan: the `nth` write (0-based) reports a transient failure.
    pub fn fail_write(mut self, nth: u64) -> Self {
        self.plan.insert(nth, Fault::Transient);
        self
    }

    /// Plan: the `nth` write tears.
    pub fn tear_write(mut self, nth: u64) -> Self {
        self.plan.insert(nth, Fault::Torn);
        self
    }

    /// Plan: the `nth` write takes `factor`× its modeled service time.
    pub fn spike_write(mut self, nth: u64, factor: f64) -> Self {
        self.plan.insert(nth, Fault::Spike { factor });
        self
    }

    /// Rate: each write fails transiently with probability `p`.
    pub fn transient_rate(mut self, p: f64) -> Self {
        self.transient = p;
        self
    }

    /// Rate: each write tears with probability `p`.
    pub fn torn_rate(mut self, p: f64) -> Self {
        self.torn = p;
        self
    }

    /// Consult the plane for one request at dispatch time. Advances the
    /// write-op counter (and the RNG stream, in rate mode) only for
    /// writes; a rate draws only when set, transient before torn.
    pub(crate) fn on_request(&mut self, shape: &DiskRequestShape) -> Option<Fault> {
        if shape.dir != IoDir::Write {
            return None;
        }
        let op = self.writes_seen;
        self.writes_seen += 1;
        if let Some(&f) = self.plan.get(&op) {
            Some(f)
        } else if self.transient > 0.0 && self.rng.gen_bool(self.transient) {
            Some(Fault::Transient)
        } else if self.torn > 0.0 && self.rng.gen_bool(self.torn) {
            Some(Fault::Torn)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::BlockNo;

    fn wr(n: u64) -> DiskRequestShape {
        DiskRequestShape::new(IoDir::Write, BlockNo(100), n)
    }

    fn rd() -> DiskRequestShape {
        DiskRequestShape::new(IoDir::Read, BlockNo(100), 4)
    }

    #[test]
    fn empty_plane_never_fires() {
        let mut p = DeviceFaultPlane::new();
        for _ in 0..100 {
            assert_eq!(p.on_request(&wr(4)), None);
        }
        assert_eq!(p.writes_seen, 100);
    }

    #[test]
    fn plan_fires_on_exact_write_op_and_skips_reads() {
        let mut p = DeviceFaultPlane::new().fail_write(2).tear_write(4);
        assert_eq!(p.on_request(&wr(4)), None); // write 0
        assert_eq!(p.on_request(&rd()), None); // read: not counted
        assert_eq!(p.on_request(&wr(4)), None); // write 1
        assert_eq!(
            p.on_request(&wr(4)),
            Some(Fault::Transient) // write 2
        );
        assert_eq!(p.on_request(&wr(4)), None); // write 3
        assert_eq!(
            p.on_request(&wr(4)),
            Some(Fault::Torn) // write 4
        );
    }

    #[test]
    fn rates_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut p = DeviceFaultPlane::with_seed(seed)
                .transient_rate(0.1)
                .torn_rate(0.1);
            (0..1000).map(|_| p.on_request(&wr(8))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let fired = run(7).iter().filter(|f| f.is_some()).count();
        assert!(fired > 100, "expected ~19% fire rate, got {fired}/1000");
    }

    #[test]
    fn torn_rate_one_tears_every_write() {
        let mut p = DeviceFaultPlane::with_seed(3).torn_rate(1.0);
        for _ in 0..100 {
            assert_eq!(p.on_request(&wr(8)), Some(Fault::Torn));
        }
    }

    #[test]
    fn rates_fire_on_an_unseeded_plane() {
        let mut p = DeviceFaultPlane::new().transient_rate(1.0);
        assert_eq!(p.on_request(&wr(4)), Some(Fault::Transient));
    }
}
