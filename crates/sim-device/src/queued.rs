//! The queued-device plane: a device front-end that holds up to
//! `depth` requests in flight concurrently, the way NCQ (SATA) and
//! multi-queue NVMe devices do.
//!
//! Two internal service disciplines, chosen by the wrapped model:
//!
//! * **Rotational (HDD)** — one actuator. Accepted requests wait in the
//!   device's queue and the firmware picks the next one by
//!   *shortest positioning time first* (SPTF) over the queued set, the
//!   classic NCQ reordering. This is what makes a polluted queue
//!   genuinely dangerous: a competitor's request at a distant location
//!   keeps losing the "who is nearest" race while a burst of scattered
//!   requests forms a nearest-neighbour tour around it (§2 of the
//!   paper — CFQ's Figure-1 collapse needs this).
//! * **Flash (SSD)** — `channels` independent ways. A request maps to a
//!   channel by its block address (`start / stripe_blocks mod
//!   channels`); requests on distinct channels overlap, requests on the
//!   same channel serialize FIFO.
//!
//! With `depth = 1` both disciplines degenerate to the legacy serial
//! device: one `service_time` call at the accept instant, one
//! completion later — byte-identical event sequences.
//!
//! The plane itself is pure bookkeeping over a [`DiskModel`]; it
//! schedules nothing. Callers ([`sim-kernel`]'s dispatch path) feed it
//! `accept` / `complete` calls and turn the returned [`Started`]
//! records into DES completion events.

use sim_core::{CompletionJitter, RequestId, SimDuration};

use crate::{DiskModel, DiskRequestShape};

/// Queued-device construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct QueuedDeviceConfig {
    /// Hardware queue depth (NCQ tags / NVMe queue slots), at least 1.
    pub depth: u32,
    /// Independent flash channels (ways) for non-rotational models.
    pub channels: u32,
    /// Blocks per channel stripe: consecutive stripes map to
    /// consecutive channels, so big sequential transfers spread across
    /// ways while small neighbours share one.
    pub stripe_blocks: u64,
}

impl Default for QueuedDeviceConfig {
    fn default() -> Self {
        QueuedDeviceConfig {
            depth: 32,
            channels: 8,
            stripe_blocks: 64,
        }
    }
}

impl QueuedDeviceConfig {
    /// Default configuration at a given queue depth.
    pub fn with_depth(depth: u32) -> Self {
        QueuedDeviceConfig {
            depth: depth.max(1),
            ..Default::default()
        }
    }
}

/// A request the device just moved into service. The caller schedules
/// its completion `service` after the current instant.
#[derive(Debug, Clone, Copy)]
pub struct Started {
    /// The request now in service.
    pub id: RequestId,
    /// The hardware queue slot it occupies.
    pub slot: u32,
    /// Its service time, spike factor applied.
    pub service: SimDuration,
}

/// One accepted-but-not-yet-serviced request.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    id: RequestId,
    shape: DiskRequestShape,
    slot: u32,
    /// Fault-plane service-time multiplier, if one was injected.
    spike: Option<f64>,
    /// Acceptance order; the deterministic tie-break for SPTF.
    seq: u64,
}

/// One request in service.
#[derive(Debug, Clone, Copy)]
struct Active {
    id: RequestId,
    slot: u32,
    /// Which server it occupies: the actuator (always 0) for rotational
    /// models, the channel index for flash.
    server: u32,
}

/// A bounded multi-request device front-end over a [`DiskModel`].
pub struct QueuedDevice {
    model: Box<dyn DiskModel>,
    cfg: QueuedDeviceConfig,
    waiting: Vec<Waiting>,
    active: Vec<Active>,
    /// Free hardware-queue slots, kept sorted descending so `pop`
    /// yields the smallest index (deterministic tag assignment).
    free_slots: Vec<u32>,
    seq: u64,
    /// Chaos-plane service-time jitter; `None` keeps the device
    /// byte-identical to a build without the chaos plane.
    chaos: Option<CompletionJitter>,
}

impl QueuedDevice {
    /// Wrap `model` in a queued front-end.
    pub fn new(model: Box<dyn DiskModel>, cfg: QueuedDeviceConfig) -> Self {
        let depth = cfg.depth.max(1);
        let cfg = QueuedDeviceConfig { depth, ..cfg };
        let free_slots: Vec<u32> = (0..depth).rev().collect();
        QueuedDevice {
            model,
            cfg,
            waiting: Vec::new(),
            active: Vec::new(),
            free_slots,
            seq: 0,
            chaos: None,
        }
    }

    /// Install the chaos plane's completion-jitter stream: every service
    /// time from here on is stretched by a seeded factor `>= 1`, the
    /// same legal mechanism as a fault-plane spike, so completions
    /// reorder within the in-flight window but never move earlier.
    pub fn install_chaos(&mut self, jitter: CompletionJitter) {
        self.chaos = Some(jitter);
    }

    /// The wrapped cost model (peek-only; scheduler cost estimates).
    pub fn model(&self) -> &dyn DiskModel {
        self.model.as_ref()
    }

    /// Configured hardware queue depth.
    pub fn depth(&self) -> u32 {
        self.cfg.depth
    }

    /// Requests inside the device (waiting in its queue or in service).
    pub fn in_flight(&self) -> usize {
        self.waiting.len() + self.active.len()
    }

    /// Whether another request fits in the hardware queue.
    pub fn can_accept(&self) -> bool {
        self.in_flight() < self.cfg.depth as usize
    }

    /// Accept a request into the hardware queue. Returns the slot it
    /// occupies and any requests that thereby entered service (possibly
    /// including this one).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — callers gate on [`Self::can_accept`].
    pub fn accept(
        &mut self,
        id: RequestId,
        shape: DiskRequestShape,
        spike: Option<f64>,
    ) -> (u32, Vec<Started>) {
        let slot = self
            .free_slots
            .pop()
            .expect("queued device accept over depth");
        let seq = self.seq;
        self.seq += 1;
        self.waiting.push(Waiting {
            id,
            shape,
            slot,
            spike,
            seq,
        });
        (slot, self.kick())
    }

    /// Complete the in-service request `id`, freeing its slot. Returns
    /// the slot and any requests that entered service as a result.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in service (double completion).
    pub fn complete(&mut self, id: RequestId) -> (u32, Vec<Started>) {
        let idx = self
            .active
            .iter()
            .position(|a| a.id == id)
            .expect("completion of a request not in service");
        let done = self.active.swap_remove(idx);
        self.free_slots.push(done.slot);
        // Keep the free list sorted descending so the smallest tag is
        // always reused first, independent of completion order.
        self.free_slots.sort_unstable_by(|a, b| b.cmp(a));
        (done.slot, self.kick())
    }

    /// Move waiting requests into service wherever a server is free.
    fn kick(&mut self) -> Vec<Started> {
        let mut started = Vec::new();
        if self.model.is_rotational() {
            // One actuator; SPTF over the queued set.
            while self.active.is_empty() && !self.waiting.is_empty() {
                let best = self
                    .waiting
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        self.model
                            .peek_service_time(&a.shape)
                            .cmp(&self.model.peek_service_time(&b.shape))
                            .then(a.seq.cmp(&b.seq))
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty");
                let w = self.waiting.remove(best);
                started.push(self.start(w, 0));
            }
        } else {
            // Flash: start everything whose channel is idle, in
            // acceptance order.
            loop {
                let next = self.waiting.iter().position(|w| {
                    let ch = self.channel_of(&w.shape);
                    !self.active.iter().any(|a| a.server == ch)
                });
                let Some(i) = next else { break };
                let w = self.waiting.remove(i);
                let ch = self.channel_of(&w.shape);
                started.push(self.start(w, ch));
            }
        }
        started
    }

    fn channel_of(&self, shape: &DiskRequestShape) -> u32 {
        let stripe = self.cfg.stripe_blocks.max(1);
        ((shape.start.raw() / stripe) % self.cfg.channels.max(1) as u64) as u32
    }

    fn start(&mut self, w: Waiting, server: u32) -> Started {
        let mut service = self.model.service_time(&w.shape);
        if let Some(factor) = w.spike {
            service = service.mul_f64(factor.max(1.0));
        }
        if let Some(chaos) = self.chaos.as_mut() {
            service = service.mul_f64(chaos.stretch().max(1.0));
        }
        self.active.push(Active {
            id: w.id,
            slot: w.slot,
            server,
        });
        Started {
            id: w.id,
            slot: w.slot,
            service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HddModel, IoDir, SsdModel};
    use sim_core::BlockNo;

    fn rd(start: u64) -> DiskRequestShape {
        DiskRequestShape::new(IoDir::Read, BlockNo(start), 8)
    }

    #[test]
    fn depth_one_matches_the_serial_model_call_for_call() {
        let mut serial = HddModel::new();
        let mut dev =
            QueuedDevice::new(Box::new(HddModel::new()), QueuedDeviceConfig::with_depth(1));
        for (i, start) in [0u64, 1_000_000, 42, 999_999].iter().enumerate() {
            let shape = rd(*start);
            let want = serial.service_time(&shape);
            let (slot, started) = dev.accept(RequestId(i as u64), shape, None);
            assert_eq!(slot, 0, "depth 1 always uses slot 0");
            assert_eq!(started.len(), 1, "free device starts immediately");
            assert_eq!(started[0].service, want, "identical service times");
            assert!(!dev.can_accept(), "single slot now occupied");
            let (freed, next) = dev.complete(RequestId(i as u64));
            assert_eq!(freed, 0);
            assert!(next.is_empty());
        }
    }

    #[test]
    fn hdd_reorders_shortest_positioning_first() {
        let mut dev =
            QueuedDevice::new(Box::new(HddModel::new()), QueuedDeviceConfig::with_depth(8));
        // First request seizes the actuator (head starts at block 0).
        let (_, s) = dev.accept(RequestId(1), rd(0), None);
        assert_eq!(s[0].id, RequestId(1));
        // Queue a far request, then a near one. On completion the near
        // one must win the SPTF race despite arriving later.
        let far = DiskRequestShape::new(IoDir::Read, BlockNo(80_000_000), 8);
        let near = DiskRequestShape::new(IoDir::Read, BlockNo(16), 8);
        let (_, s) = dev.accept(RequestId(2), far, None);
        assert!(s.is_empty(), "actuator busy");
        let (_, s) = dev.accept(RequestId(3), near, None);
        assert!(s.is_empty());
        assert_eq!(dev.in_flight(), 3);
        let (_, s) = dev.complete(RequestId(1));
        assert_eq!(s.len(), 1, "one actuator: exactly one successor");
        assert_eq!(s[0].id, RequestId(3), "near request jumps the far one");
        let (_, s) = dev.complete(RequestId(3));
        assert_eq!(s[0].id, RequestId(2));
    }

    #[test]
    fn ssd_overlaps_distinct_channels_and_serializes_shared_ones() {
        let cfg = QueuedDeviceConfig {
            depth: 8,
            channels: 4,
            stripe_blocks: 64,
        };
        let mut dev = QueuedDevice::new(Box::new(SsdModel::new()), cfg);
        // Stripes 0 and 1 → channels 0 and 1: both start at once.
        let (_, s) = dev.accept(RequestId(1), rd(0), None);
        assert_eq!(s.len(), 1);
        let (_, s) = dev.accept(RequestId(2), rd(64), None);
        assert_eq!(s.len(), 1, "distinct channel overlaps");
        // Another stripe-0 request shares channel 0: it must wait.
        let (_, s) = dev.accept(RequestId(3), rd(8), None);
        assert!(s.is_empty(), "same channel serializes");
        let (_, s) = dev.complete(RequestId(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].id, RequestId(3), "channel 0 freed for its queue");
    }

    #[test]
    fn slots_are_reused_smallest_first() {
        let mut dev =
            QueuedDevice::new(Box::new(HddModel::new()), QueuedDeviceConfig::with_depth(4));
        let (s0, _) = dev.accept(RequestId(1), rd(0), None);
        let (s1, _) = dev.accept(RequestId(2), rd(8), None);
        let (s2, _) = dev.accept(RequestId(3), rd(16), None);
        assert_eq!((s0, s1, s2), (0, 1, 2));
        dev.complete(RequestId(1));
        let (s3, _) = dev.accept(RequestId(4), rd(24), None);
        assert_eq!(s3, 0, "freed tag 0 reused before tag 3");
    }

    #[test]
    fn installed_chaos_stretches_but_never_shrinks_service() {
        use sim_core::{ChaosConfig, ChaosPlane};
        let mut plain =
            QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(1));
        let mut shaken =
            QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(1));
        let jitter = ChaosPlane::new(&ChaosConfig::with_seed(11))
            .take_completion_jitter()
            .unwrap();
        shaken.install_chaos(jitter);
        let mut stretched_any = false;
        for i in 0..64u64 {
            let (_, a) = plain.accept(RequestId(i), rd(i * 8), None);
            let (_, b) = shaken.accept(RequestId(i), rd(i * 8), None);
            assert!(b[0].service >= a[0].service, "chaos only adds time");
            assert!(
                b[0].service <= a[0].service.mul_f64(1.5 + 1e-9),
                "stretch stays within the configured bound"
            );
            stretched_any |= b[0].service > a[0].service;
            plain.complete(RequestId(i));
            shaken.complete(RequestId(i));
        }
        assert!(stretched_any, "the jitter stream must actually perturb");
    }

    #[test]
    fn spike_factor_stretches_service_time() {
        let mut plain =
            QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(1));
        let mut spiked =
            QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(1));
        let (_, a) = plain.accept(RequestId(1), rd(0), None);
        let (_, b) = spiked.accept(RequestId(1), rd(0), Some(3.0));
        assert_eq!(b[0].service, a[0].service.mul_f64(3.0));
    }
}
