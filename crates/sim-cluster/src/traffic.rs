//! Open-loop traffic plane: seeded arrival processes generating client
//! load against the fleet.
//!
//! All three processes are non-homogeneous Poisson processes sampled by
//! Lewis–Shedler thinning: candidate arrivals are drawn from a
//! homogeneous process at the envelope rate (the maximum of the rate
//! function) and accepted with probability `rate(t) / envelope`. The
//! generator is fully determined by its seed, so each replication group
//! pre-schedules its own arrivals without any feedback from the fleet —
//! the open-loop property that lets a group's window loop inject traffic
//! between windows without causality constraints.

use std::ops::Range;

use sim_core::{SimDuration, SimRng, SimTime};

use crate::shard::{Envelope, Payload, ReqKind};
use crate::{ClusterConfig, Net, Topology};

/// An arrival process shape. Rates are requests per second *per
/// replication group* (each group has one leader taking puts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Homogeneous Poisson at `rate` req/s.
    Poisson {
        /// Mean arrival rate, req/s.
        rate: f64,
    },
    /// Sinusoidal day/night swing: `rate * (1 + amplitude*sin(2πt/period))`.
    Diurnal {
        /// Mean arrival rate, req/s.
        rate: f64,
        /// Relative swing in `[0, 1]`.
        amplitude: f64,
        /// One simulated "day".
        period: SimDuration,
    },
    /// Poisson at `base` with a multiplicative crowd that ramps to
    /// `peak`× over `ramp`, holds for `hold`, and decays back over
    /// `decay`.
    FlashCrowd {
        /// Baseline rate, req/s.
        base: f64,
        /// Peak multiplier (`5.0` = a 5× crowd).
        peak: f64,
        /// When the crowd starts.
        start: SimTime,
        /// Linear ramp-up duration.
        ramp: SimDuration,
        /// Time spent at the peak.
        hold: SimDuration,
        /// Linear decay duration.
        decay: SimDuration,
    },
}

impl ArrivalKind {
    /// The instantaneous rate at `t`, req/s.
    pub(crate) fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            ArrivalKind::Poisson { rate } => rate,
            ArrivalKind::Diurnal {
                rate,
                amplitude,
                period,
            } => {
                let phase = t.as_secs_f64() / period.as_secs_f64().max(1e-9);
                rate * (1.0 + amplitude * (2.0 * std::f64::consts::PI * phase).sin())
            }
            ArrivalKind::FlashCrowd {
                base,
                peak,
                start,
                ramp,
                hold,
                decay,
            } => {
                let t = t.as_secs_f64();
                let s = start.as_secs_f64();
                let (r, h, d) = (ramp.as_secs_f64(), hold.as_secs_f64(), decay.as_secs_f64());
                let mult = if t < s {
                    1.0
                } else if t < s + r {
                    1.0 + (peak - 1.0) * (t - s) / r.max(1e-9)
                } else if t < s + r + h {
                    peak
                } else if t < s + r + h + d {
                    peak - (peak - 1.0) * (t - s - r - h) / d.max(1e-9)
                } else {
                    1.0
                };
                base * mult
            }
        }
    }

    /// An upper bound on `rate_at` over all time (the thinning envelope).
    pub(crate) fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalKind::Poisson { rate } => rate,
            ArrivalKind::Diurnal {
                rate, amplitude, ..
            } => rate * (1.0 + amplitude.abs()),
            ArrivalKind::FlashCrowd { base, peak, .. } => base * peak.max(1.0),
        }
    }

    /// CLI name for the runner.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalKind::Poisson { .. } => "poisson",
            ArrivalKind::Diurnal { .. } => "diurnal",
            ArrivalKind::FlashCrowd { .. } => "flash",
        }
    }

    /// Parse a runner `--arrival` name into a default-shaped process at
    /// `rate` req/s per group.
    pub fn parse(name: &str, rate: f64) -> Option<ArrivalKind> {
        Some(match name {
            "poisson" => ArrivalKind::Poisson { rate },
            "diurnal" => ArrivalKind::Diurnal {
                rate,
                amplitude: 0.6,
                period: SimDuration::from_secs(8),
            },
            "flash" => ArrivalKind::FlashCrowd {
                base: rate,
                peak: 5.0,
                start: SimTime::from_nanos(3 * 1_000_000_000),
                ramp: SimDuration::from_millis(500),
                hold: SimDuration::from_secs(3),
                decay: SimDuration::from_secs(1),
            },
            _ => return None,
        })
    }
}

/// A seeded arrival stream: monotone non-decreasing arrival times.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalGen {
    kind: ArrivalKind,
    rng: SimRng,
    /// Current time along the candidate process, seconds.
    t: f64,
    envelope: f64,
}

impl ArrivalGen {
    /// A generator fully determined by `(kind, seed)`.
    pub(crate) fn new(kind: ArrivalKind, seed: u64) -> Self {
        ArrivalGen {
            kind,
            rng: SimRng::seed_from_u64(seed),
            t: 0.0,
            envelope: kind.peak_rate().max(1e-9),
        }
    }

    /// The next arrival time (Lewis–Shedler thinning).
    pub(crate) fn next_arrival(&mut self) -> SimTime {
        loop {
            // Exponential gap at the envelope rate. `gen_f64` is in
            // [0, 1); flip to (0, 1] so ln() never sees zero.
            let u = 1.0 - self.rng.gen_f64();
            self.t += -u.ln() / self.envelope;
            let accept = self.rng.gen_f64();
            let candidate = SimTime::from_nanos((self.t * 1e9) as u64);
            if accept * self.envelope <= self.kind.rate_at(candidate) {
                return candidate;
            }
        }
    }
}

/// Fraction of requests that are gets.
const READ_FRACTION: f64 = 0.5;

/// One replication group's client traffic: its arrival stream, turned
/// into [`Envelope`]s addressed to members of that group only. Entirely
/// open-loop — nothing the fleet does feeds back into it — so a group's
/// window loop can pull a window's arrivals ahead of its shards without
/// any causality constraint.
pub(crate) struct Traffic {
    /// Group index: the high bits of every request id it issues.
    group: u64,
    gen: ArrivalGen,
    /// Request-kind and replica-choice draws, a separate stream so the
    /// arrival schedule itself stays comparable across read fractions.
    rng: SimRng,
    seq: u64,
    /// Next arrival not yet handed out.
    pending: Option<Envelope>,
    members: Range<usize>,
    leader: usize,
}

impl Traffic {
    /// Group `g`'s stream, fully determined by `(cfg.seed, g)`.
    pub(crate) fn new(cfg: &ClusterConfig, topo: &Topology, g: usize) -> Traffic {
        Traffic {
            group: g as u64,
            gen: ArrivalGen::new(cfg.arrival, sim_core::stream_seed(cfg.seed, g as u64)),
            rng: SimRng::stream(cfg.seed, 0x7AFF_0000 + g as u64),
            seq: 0,
            pending: None,
            members: topo.members(g),
            leader: topo.leader(g),
        }
    }

    /// Hand every envelope delivering at or before `until` to `push`, in
    /// arrival order. Called once per window, one window ahead of the
    /// shards.
    pub(crate) fn pull_into(&mut self, until: SimTime, push: &mut dyn FnMut(Envelope)) {
        while self.next_at() <= until {
            push(self.pending.take().expect("`next_at` left it pending"));
        }
    }

    /// When the next envelope not yet handed out is delivered. Draws it
    /// if it is not pending yet; the draws come in the same order either
    /// way.
    pub(crate) fn next_at(&mut self) -> SimTime {
        let env = self.pending.unwrap_or_else(|| self.next_request());
        self.pending = Some(env);
        env.deliver_at
    }

    /// Draw the next client request: a put goes to the leader, a get to
    /// a uniformly chosen member.
    fn next_request(&mut self) -> Envelope {
        let arrival = self.gen.next_arrival();
        let req = (self.group << 40) | self.seq;
        self.seq += 1;
        let (kind, to) = if self.rng.gen_bool(READ_FRACTION) {
            let len = self.members.len() as u64;
            let to = self.members.start + (self.rng.next_u64() % len) as usize;
            (ReqKind::Get, to)
        } else {
            (ReqKind::Put, self.leader)
        };
        Envelope {
            to,
            deliver_at: Net.client_deliver_at(arrival),
            payload: Payload::Request { req, kind, arrival },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every arrival in `[0, duration)` — the full open-loop schedule.
    fn schedule(kind: ArrivalKind, seed: u64, duration: SimDuration) -> Vec<SimTime> {
        let mut g = ArrivalGen::new(kind, seed);
        let end = SimTime::ZERO + duration;
        let mut out = Vec::new();
        loop {
            let t = g.next_arrival();
            if t >= end {
                return out;
            }
            out.push(t);
        }
    }

    fn count_in(schedule: &[SimTime], from_s: f64, to_s: f64) -> usize {
        schedule
            .iter()
            .filter(|t| {
                let s = t.as_secs_f64();
                s >= from_s && s < to_s
            })
            .count()
    }

    #[test]
    fn same_seed_same_schedule() {
        for kind in [
            ArrivalKind::Poisson { rate: 500.0 },
            ArrivalKind::parse("diurnal", 500.0).unwrap(),
            ArrivalKind::parse("flash", 200.0).unwrap(),
        ] {
            let a = schedule(kind, 42, SimDuration::from_secs(5));
            let b = schedule(kind, 42, SimDuration::from_secs(5));
            assert_eq!(a, b, "{kind:?} must be seed-deterministic");
            let c = schedule(kind, 43, SimDuration::from_secs(5));
            assert_ne!(a, c, "{kind:?} must vary with the seed");
        }
    }

    #[test]
    fn arrivals_are_monotone_nondecreasing() {
        let s = schedule(
            ArrivalKind::parse("flash", 300.0).unwrap(),
            9,
            SimDuration::from_secs(10),
        );
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_mean_rate_property() {
        // 2000 req/s over 10 s → 20_000 expected, σ = √20000 ≈ 141.
        // A ±4σ band (±566) makes a seed-stable test that would still
        // catch a rate bug of even a few percent.
        let s = schedule(
            ArrivalKind::Poisson { rate: 2000.0 },
            7,
            SimDuration::from_secs(10),
        );
        let n = s.len() as f64;
        assert!(
            (n - 20_000.0).abs() < 566.0,
            "poisson count {n} too far from 20000"
        );
    }

    #[test]
    fn flash_crowd_peak_shape() {
        let kind = ArrivalKind::FlashCrowd {
            base: 1000.0,
            peak: 5.0,
            start: SimTime::from_nanos(4_000_000_000),
            ramp: SimDuration::from_secs(1),
            hold: SimDuration::from_secs(2),
            decay: SimDuration::from_secs(1),
        };
        let s = schedule(kind, 11, SimDuration::from_secs(10));
        // Before the crowd: ~1000/s over [0, 4).
        let before = count_in(&s, 0.0, 4.0) as f64 / 4.0;
        // Hold window [5, 7): ~5000/s.
        let during = count_in(&s, 5.0, 7.0) as f64 / 2.0;
        // After decay [8, 10): back to ~1000/s.
        let after = count_in(&s, 8.0, 10.0) as f64 / 2.0;
        assert!(
            (before - 1000.0).abs() < 150.0,
            "pre-crowd rate {before} should be ~1000/s"
        );
        assert!(
            (during - 5000.0).abs() < 400.0,
            "hold rate {during} should be ~5000/s"
        );
        assert!(
            (after - 1000.0).abs() < 150.0,
            "post-crowd rate {after} should be ~1000/s"
        );
        assert!(during > 4.0 * before, "the crowd must actually peak");
    }

    #[test]
    fn diurnal_swings_around_the_mean() {
        let kind = ArrivalKind::Diurnal {
            rate: 1000.0,
            amplitude: 0.8,
            period: SimDuration::from_secs(8),
        };
        let s = schedule(kind, 3, SimDuration::from_secs(8));
        // First half-period is the positive lobe of the sine, the second
        // the negative: their counts must straddle the mean.
        let peak_half = count_in(&s, 0.0, 4.0) as f64 / 4.0;
        let trough_half = count_in(&s, 4.0, 8.0) as f64 / 4.0;
        assert!(peak_half > 1200.0, "peak half {peak_half} should be >mean");
        assert!(
            trough_half < 800.0,
            "trough half {trough_half} should be <mean"
        );
    }

    #[test]
    fn parse_rejects_unknown_names() {
        assert!(ArrivalKind::parse("poisson", 10.0).is_some());
        assert!(ArrivalKind::parse("bursty", 10.0).is_none());
    }
}
