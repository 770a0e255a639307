//! The kernel's one perturbation seam.

use sim_core::{IoErrorKind, SimDuration, SimRng, SimTime};
use sim_device::{DiskRequestShape, Started};

use crate::chaos::{
    ChaosClass, ChaosConfig, COMPLETION_STRETCH, CPU_DELAY, JOURNAL_JITTER, WB_JITTER,
};
use crate::plane::Fault;
use crate::DeviceFaultPlane;

/// How one run is perturbed: a stream per chaos class and the device
/// fault plan, each absent unless configured.
///
/// The kernel holds one and asks it at five declared points: the
/// writeback tick, the journal timer, a CPU slice, a physical dispatch
/// and a service start. Every point returns its input unchanged and draws
/// nothing when its class or plan is absent, so an empty seam (the
/// default) keeps a run byte-identical to a build without either plane.
#[derive(Debug, Default)]
pub struct Perturb {
    wb: Option<SimRng>,
    cpu: Option<SimRng>,
    journal: Option<SimRng>,
    completion: Option<SimRng>,
    faults: Option<DeviceFaultPlane>,
}

/// Scale `interval` by a factor in `[1 - j, 1 + j]`, floored at 1 ns so
/// the jittered timer always lands strictly in the future.
fn jitter(rng: &mut SimRng, interval: SimDuration, j: f64) -> SimDuration {
    let factor = 1.0 - j + rng.gen_f64() * 2.0 * j;
    interval.mul_f64(factor).max(SimDuration::from_nanos(1))
}

impl Perturb {
    /// The seam for `chaos`: each enabled class gets stream
    /// `(seed, class_index)`. No fault plan until [`Self::install_faults`].
    pub fn new(chaos: Option<ChaosConfig>) -> Self {
        let stream = |class: ChaosClass| {
            chaos
                .filter(|c| c.is_enabled(class))
                .map(|c| SimRng::stream(c.seed, class.index() as u64))
        };
        Perturb {
            wb: stream(ChaosClass::Writeback),
            cpu: stream(ChaosClass::CpuSlice),
            journal: stream(ChaosClass::Journal),
            completion: stream(ChaosClass::Completion),
            faults: None,
        }
    }

    /// Fault physical dispatches by `plane` from here on.
    pub fn install_faults(&mut self, plane: DeviceFaultPlane) {
        self.faults = Some(plane);
    }

    /// The writeback daemon's next poll interval.
    pub fn wb_tick(&mut self, base: SimDuration) -> SimDuration {
        match &mut self.wb {
            Some(rng) => jitter(rng, base, WB_JITTER),
            None => base,
        }
    }

    /// When the journal timer the file system asked for at `at` fires,
    /// seen from `now`; always strictly after `now` when jittered.
    pub fn journal_timer(&mut self, now: SimTime, at: SimTime) -> SimTime {
        match &mut self.journal {
            Some(rng) => now + jitter(rng, at.since(now), JOURNAL_JITTER),
            None => at,
        }
    }

    /// Extra wakeup delay for one process CPU slice (zero when off): the
    /// analogue of scx_chaos stretching scheduling latency.
    pub fn cpu_delay(&mut self) -> SimDuration {
        match &mut self.cpu {
            Some(rng) => SimDuration::from_nanos(rng.gen_range(CPU_DELAY.as_nanos() + 1)),
            None => SimDuration::ZERO,
        }
    }

    /// The fault plan's verdict on one request dispatched to a physical
    /// device: a service-time spike factor, or the error it completes
    /// with. Rolled once per request; a virtual disk's requests fail
    /// through the host's own seam instead.
    pub fn dispatch(&mut self, shape: &DiskRequestShape) -> (Option<f64>, Option<IoErrorKind>) {
        match self.faults.as_mut().and_then(|p| p.on_request(shape)) {
            Some(Fault::Spike { factor }) => (Some(factor), None),
            Some(Fault::Transient) => (None, Some(IoErrorKind::TransientDevice)),
            Some(Fault::Torn) => (None, Some(IoErrorKind::TornWrite)),
            None => (None, None),
        }
    }

    /// The request the device just moved into service, its service time
    /// stretched by a factor in `[1, 1 + COMPLETION_STRETCH)`: the same
    /// mechanism as a spike, so completions reorder within the in-flight
    /// window but never move earlier.
    pub fn service(&mut self, started: Started) -> Started {
        match &mut self.completion {
            Some(rng) => Started {
                service: started
                    .service
                    .mul_f64(1.0 + rng.gen_f64() * COMPLETION_STRETCH),
                ..started
            },
            None => started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{BlockNo, RequestId};
    use sim_device::{IoDir, QueuedDevice, QueuedDeviceConfig, SsdModel};

    fn started(service: SimDuration) -> Started {
        Started {
            id: RequestId(1),
            slot: 0,
            service,
        }
    }

    fn wr() -> DiskRequestShape {
        DiskRequestShape::new(IoDir::Write, BlockNo(100), 4)
    }

    #[test]
    fn absent_classes_are_the_identity_and_draw_nothing() {
        let base = SimDuration::from_millis(200);
        let (now, at) = (SimTime::ZERO + base, SimTime::ZERO + base + base);
        for mut p in [
            Perturb::default(),
            Perturb::new(None),
            Perturb::new(Some(ChaosConfig::only(7, &[]))),
        ] {
            assert!(p.wb.is_none() && p.cpu.is_none() && p.journal.is_none());
            assert!(p.completion.is_none() && p.faults.is_none());
            for _ in 0..100 {
                assert_eq!(p.wb_tick(base), base);
                assert_eq!(p.journal_timer(now, at), at);
                assert_eq!(p.cpu_delay(), SimDuration::ZERO);
                assert_eq!(p.dispatch(&wr()), (None, None));
                assert_eq!(p.service(started(base)).service, base);
            }
        }
    }

    #[test]
    fn draws_respect_the_legality_bounds() {
        let mut p = Perturb::new(Some(ChaosConfig::with_seed(42)));
        let base = SimDuration::from_millis(200);
        let now = SimTime::ZERO + base;
        for _ in 0..10_000 {
            let wb = p.wb_tick(base);
            assert!(wb > SimDuration::ZERO, "never schedule into the past");
            assert!(wb >= base.mul_f64(1.0 - WB_JITTER - 1e-9));
            assert!(wb <= base.mul_f64(1.0 + WB_JITTER + 1e-9));
            let d = p.cpu_delay();
            assert!(d <= CPU_DELAY, "cpu delay within bound");
            let jt = p.journal_timer(now, now + base);
            assert!(jt > now);
            let s = p.service(started(base)).service;
            assert!(
                s >= base && s <= base.mul_f64(1.0 + COMPLETION_STRETCH),
                "completions only move later, by at most 1.5x: {s:?}"
            );
        }
        // A tiny base interval still never reaches zero.
        assert!(p.wb_tick(SimDuration::from_nanos(1)) >= SimDuration::from_nanos(1));
        assert!(p.journal_timer(now, now) > now);
    }

    #[test]
    fn service_stretches_a_device_start_but_never_shrinks_it() {
        let mut dev =
            QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(1));
        let mut p = Perturb::new(Some(ChaosConfig::with_seed(11)));
        let mut stretched_any = false;
        for i in 0..64u64 {
            let shape = DiskRequestShape::new(IoDir::Read, BlockNo(i * 8), 8);
            let (_, s) = dev.accept(RequestId(i), shape, None);
            let a = s.expect("an idle device starts the request");
            let b = p.service(a);
            assert_eq!((b.id, b.slot), (a.id, a.slot));
            assert!(b.service >= a.service, "chaos only adds time");
            assert!(
                b.service <= a.service.mul_f64(1.5 + 1e-9),
                "stretch stays within the configured bound"
            );
            stretched_any |= b.service > a.service;
            dev.complete(RequestId(i));
        }
        assert!(stretched_any, "the completion stream must actually perturb");
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
        let mut a = Perturb::new(Some(all));
        let mut b = Perturb::new(Some(no_cpu));
        let base = SimDuration::from_millis(200);
        let now = SimTime::ZERO + base;
        for _ in 0..200 {
            // Interleave cpu draws on `a` only; the wb, journal and
            // completion sequences must stay identical.
            let _ = a.cpu_delay();
            assert_eq!(a.wb_tick(base), b.wb_tick(base));
            assert_eq!(
                a.journal_timer(now, now + base),
                b.journal_timer(now, now + base)
            );
            assert_eq!(
                a.service(started(base)).service,
                b.service(started(base)).service
            );
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let cfg = ChaosConfig::with_seed(3);
        let mut a = Perturb::new(Some(cfg));
        let mut b = Perturb::new(Some(cfg));
        let base = SimDuration::from_secs(1);
        let now = SimTime::ZERO + base;
        for _ in 0..100 {
            assert_eq!(a.wb_tick(base), b.wb_tick(base));
            assert_eq!(a.cpu_delay(), b.cpu_delay());
            assert_eq!(
                a.journal_timer(now, now + base),
                b.journal_timer(now, now + base)
            );
            assert_eq!(
                a.service(started(base)).service,
                b.service(started(base)).service
            );
        }
    }

    #[test]
    fn dispatch_maps_each_fault_to_its_verdict() {
        let mut p = Perturb::default();
        p.install_faults(
            DeviceFaultPlane::new()
                .spike_write(0, 3.0)
                .fail_write(1)
                .tear_write(2),
        );
        let rd = DiskRequestShape::new(IoDir::Read, BlockNo(100), 4);
        assert_eq!(p.dispatch(&rd), (None, None), "reads pass untouched");
        assert_eq!(p.dispatch(&wr()), (Some(3.0), None));
        assert_eq!(
            p.dispatch(&wr()),
            (None, Some(IoErrorKind::TransientDevice))
        );
        assert_eq!(p.dispatch(&wr()), (None, Some(IoErrorKind::TornWrite)));
        assert_eq!(p.dispatch(&wr()), (None, None));
    }
}
