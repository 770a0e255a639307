//! The physical device front-end: holds up to `depth` requests in
//! flight concurrently, the way NCQ (SATA) and multi-queue NVMe devices
//! do. Every physical disk sits behind one; the default depth is 1.
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
//! * **Flash (SSD)** — [`CHANNELS`] independent ways. A request maps to
//!   a channel by its block address (`start / STRIPE_BLOCKS mod
//!   CHANNELS`); requests on distinct channels overlap, requests on the
//!   same channel serialize FIFO.
//!
//! With `depth = 1` both disciplines degenerate to a serial device: one
//! `service_time` call at the accept instant, one completion later.
//!
//! Storage grows with the requests actually in flight, never with the
//! configured depth: a request's hardware tag is its index in the slot
//! table, and the lowest free index is the next tag handed out.
//!
//! The front-end itself is pure bookkeeping over a [`DiskModel`]; it
//! schedules nothing. Callers ([`sim-kernel`]'s dispatch path) feed it
//! `accept` / `complete` calls and turn the returned [`Started`]
//! record into a DES completion event.

use sim_core::{RequestId, SimDuration};

use crate::{DiskModel, DiskRequestShape};

/// Independent flash channels (ways) for non-rotational models.
const CHANNELS: u32 = 8;

/// Blocks per channel stripe: consecutive stripes map to consecutive
/// channels, so big sequential transfers spread across ways while small
/// neighbours share one.
const STRIPE_BLOCKS: u64 = 64;

/// Queued-device construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct QueuedDeviceConfig {
    /// Hardware queue depth (NCQ tags / NVMe queue slots), at least 1.
    pub depth: u32,
}

impl QueuedDeviceConfig {
    /// The configuration at a given queue depth.
    pub fn with_depth(depth: u32) -> Self {
        QueuedDeviceConfig {
            depth: depth.max(1),
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

/// One accepted request, waiting in the device's queue or in service.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: RequestId,
    shape: DiskRequestShape,
    /// Fault-plane service-time multiplier, if one was injected.
    spike: Option<f64>,
    /// Acceptance order: the deterministic tie-break for SPTF and the
    /// start order on flash.
    seq: u64,
    /// The server it needs: the actuator (always 0) for rotational
    /// models, its channel for flash.
    server: u32,
    /// Whether it occupies `server`, rather than waiting for it.
    in_service: bool,
}

/// A bounded multi-request device front-end over a [`DiskModel`].
pub struct QueuedDevice {
    model: Box<dyn DiskModel>,
    /// `model.is_rotational()`: one actuator (SPTF) or flash channels.
    rotational: bool,
    /// Hardware queue depth, at least 1.
    depth: u32,
    /// Accepted requests indexed by hardware tag, no longer than the
    /// highest tag in use; `None` is a free tag below it.
    slots: Vec<Option<Slot>>,
    in_flight: usize,
    seq: u64,
}

impl QueuedDevice {
    /// Wrap `model` in a queued front-end. Allocates nothing, whatever
    /// the depth.
    pub fn new(model: Box<dyn DiskModel>, cfg: QueuedDeviceConfig) -> Self {
        QueuedDevice {
            rotational: model.is_rotational(),
            model,
            depth: cfg.depth.max(1),
            slots: Vec::new(),
            in_flight: 0,
            seq: 0,
        }
    }

    /// The wrapped cost model (peek-only; scheduler cost estimates).
    pub fn model(&self) -> &dyn DiskModel {
        self.model.as_ref()
    }

    /// Configured hardware queue depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Requests inside the device (waiting in its queue or in service).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether another request fits in the hardware queue.
    pub fn can_accept(&self) -> bool {
        self.in_flight < self.depth as usize
    }

    /// Accept a request into the hardware queue. Returns the slot it
    /// occupies (the lowest free tag) and the request that thereby
    /// entered service, if any (this one, when its server was idle).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — callers gate on [`Self::can_accept`].
    pub fn accept(
        &mut self,
        id: RequestId,
        shape: DiskRequestShape,
        spike: Option<f64>,
    ) -> (u32, Option<Started>) {
        assert!(self.can_accept(), "queued device accept over depth");
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        let server = if self.rotational {
            0
        } else {
            Self::channel_of(&shape)
        };
        self.slots[slot] = Some(Slot {
            id,
            shape,
            spike,
            seq: self.seq,
            server,
            in_service: false,
        });
        self.seq += 1;
        self.in_flight += 1;
        (slot as u32, self.kick(server))
    }

    /// Complete the in-service request `id`, freeing its slot. Returns
    /// the slot and the request that entered service in its place, if
    /// any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in service (double completion).
    pub fn complete(&mut self, id: RequestId) -> (u32, Option<Started>) {
        let slot = self
            .slots
            .iter()
            .position(|s| s.is_some_and(|s| s.id == id && s.in_service))
            .expect("completion of a request not in service");
        let server = self.slots[slot].take().expect("an occupied slot").server;
        while self.slots.last().is_some_and(Option::is_none) {
            self.slots.pop();
        }
        self.in_flight -= 1;
        (slot as u32, self.kick(server))
    }

    /// Start the next request on `server` if it is idle: by SPTF on the
    /// actuator, in acceptance order on a flash channel. Every other
    /// waiting request waits for a server that is still busy, so an
    /// accept or a completion can start at most this one.
    fn kick(&mut self, server: u32) -> Option<Started> {
        let slots = &self.slots;
        if slots
            .iter()
            .flatten()
            .any(|s| s.in_service && s.server == server)
        {
            return None;
        }
        let model = self.model.as_ref();
        let rotational = self.rotational;
        let next = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .filter(|(_, s)| !s.in_service && s.server == server)
            .min_by_key(|(_, s)| {
                let cost = if rotational {
                    model.peek_service_time(&s.shape)
                } else {
                    SimDuration::ZERO
                };
                (cost, s.seq)
            })
            .map(|(i, _)| i)?;
        Some(self.start(next))
    }

    fn channel_of(shape: &DiskRequestShape) -> u32 {
        ((shape.start.raw() / STRIPE_BLOCKS) % CHANNELS as u64) as u32
    }

    /// Put the waiting request in `slot` into service on its server.
    fn start(&mut self, slot: usize) -> Started {
        let w = self.slots[slot].as_mut().expect("a waiting request");
        let mut service = self.model.service_time(&w.shape);
        if let Some(factor) = w.spike {
            service = service.mul_f64(factor.max(1.0));
        }
        w.in_service = true;
        Started {
            id: w.id,
            slot: slot as u32,
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
            let started = started.expect("free device starts immediately");
            assert_eq!(started.service, want, "identical service times");
            assert!(!dev.can_accept(), "single slot now occupied");
            let (freed, next) = dev.complete(RequestId(i as u64));
            assert_eq!(freed, 0);
            assert!(next.is_none());
        }
    }

    #[test]
    fn hdd_reorders_shortest_positioning_first() {
        let mut dev =
            QueuedDevice::new(Box::new(HddModel::new()), QueuedDeviceConfig::with_depth(8));
        // First request seizes the actuator (head starts at block 0).
        let (_, s) = dev.accept(RequestId(1), rd(0), None);
        assert_eq!(s.map(|s| s.id), Some(RequestId(1)));
        // Queue a far request, then a near one. On completion the near
        // one must win the SPTF race despite arriving later.
        let far = DiskRequestShape::new(IoDir::Read, BlockNo(80_000_000), 8);
        let near = DiskRequestShape::new(IoDir::Read, BlockNo(16), 8);
        let (_, s) = dev.accept(RequestId(2), far, None);
        assert!(s.is_none(), "actuator busy");
        let (_, s) = dev.accept(RequestId(3), near, None);
        assert!(s.is_none());
        assert_eq!(dev.in_flight(), 3);
        let (_, s) = dev.complete(RequestId(1));
        assert_eq!(
            s.map(|s| s.id),
            Some(RequestId(3)),
            "near request jumps the far one"
        );
        let (_, s) = dev.complete(RequestId(3));
        assert_eq!(s.map(|s| s.id), Some(RequestId(2)));
    }

    #[test]
    fn ssd_overlaps_distinct_channels_and_serializes_shared_ones() {
        let mut dev =
            QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(8));
        // Stripes 0 and 1 → channels 0 and 1: both start at once.
        let (_, s) = dev.accept(RequestId(1), rd(0), None);
        assert!(s.is_some());
        let (_, s) = dev.accept(RequestId(2), rd(64), None);
        assert!(s.is_some(), "distinct channel overlaps");
        // Another stripe-0 request shares channel 0: it must wait.
        let (_, s) = dev.accept(RequestId(3), rd(8), None);
        assert!(s.is_none(), "same channel serializes");
        let (_, s) = dev.complete(RequestId(1));
        assert_eq!(
            s.map(|s| s.id),
            Some(RequestId(3)),
            "channel 0 freed for its queue"
        );
    }

    #[test]
    fn each_call_starts_what_a_whole_queue_rescan_would() {
        // Reference: after every accept or completion, keep starting any
        // waiting request whose server is idle — SPTF on the actuator,
        // acceptance order on flash — until none is startable. Its own
        // model instance sees the same `service_time` calls, so the HDD
        // head position stays in step.
        use sim_core::SimRng;
        for rotational in [true, false] {
            let model = || -> Box<dyn DiskModel> {
                if rotational {
                    Box::new(HddModel::new())
                } else {
                    Box::new(SsdModel::new())
                }
            };
            let mut dev = QueuedDevice::new(model(), QueuedDeviceConfig::with_depth(8));
            let mut ref_model = model();
            let server = |s: &DiskRequestShape| {
                if rotational {
                    0
                } else {
                    (s.start.raw() / STRIPE_BLOCKS % CHANNELS as u64) as u32
                }
            };
            let mut waiting: Vec<(RequestId, DiskRequestShape)> = Vec::new();
            let mut busy: Vec<(RequestId, u32)> = Vec::new();
            let mut rng = SimRng::stream(7, rotational as u64);
            for i in 0..4_000u64 {
                let got = if dev.can_accept() && (busy.is_empty() || rng.gen_bool(0.6)) {
                    let shape = rd(rng.gen_range(1 << 20));
                    waiting.push((RequestId(i), shape));
                    dev.accept(RequestId(i), shape, None).1
                } else {
                    let (id, _) = busy.remove(rng.gen_range(busy.len() as u64) as usize);
                    dev.complete(id).1
                };
                let mut want = Vec::new();
                loop {
                    let next = (0..waiting.len())
                        .filter(|&j| !busy.iter().any(|b| b.1 == server(&waiting[j].1)))
                        .min_by_key(|&j| {
                            let cost = if rotational {
                                ref_model.peek_service_time(&waiting[j].1)
                            } else {
                                SimDuration::ZERO
                            };
                            (cost, j)
                        });
                    let Some(j) = next else { break };
                    let (id, shape) = waiting.remove(j);
                    ref_model.service_time(&shape);
                    busy.push((id, server(&shape)));
                    want.push(id);
                }
                assert_eq!(got.map(|s| s.id).into_iter().collect::<Vec<_>>(), want);
            }
        }
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
    fn spike_factor_stretches_service_time() {
        let mut plain =
            QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(1));
        let mut spiked =
            QueuedDevice::new(Box::new(SsdModel::new()), QueuedDeviceConfig::with_depth(1));
        let (_, a) = plain.accept(RequestId(1), rd(0), None);
        let (_, b) = spiked.accept(RequestId(1), rd(0), Some(3.0));
        assert_eq!(b.unwrap().service, a.unwrap().service.mul_f64(3.0));
    }
}
