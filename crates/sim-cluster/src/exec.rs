//! The fleet's window executor: one window loop per replication group.
//!
//! **Groups are independent.** No message ever crosses a group boundary:
//! a group's [`Traffic`] addresses only its own members, and a shard
//! sends only to its own followers or its own leader. So each group is a
//! simulation of its own and the unit of work: `run_indexed` hands groups
//! to workers, and [`run_group`] builds the group's shards on the worker
//! that takes it (worlds hold `Rc` state and are not `Send`, so they never
//! move), runs them to the end and drops them. [`route`] enforces the
//! invariant: an envelope addressed outside its group panics.
//!
//! **Lookahead.** Every shard-to-shard message is delivered at least one
//! network link latency after it is sent (`Net::lookahead`), so a
//! group cuts time into windows of one lookahead: a message sent inside
//! window `w` is delivered in window `w + 1` or later, and each shard
//! advances through window `w` alone. Between windows the group routes
//! outboxes to inboxes in shard order, then appends the next window's
//! arrivals.
//!
//! **Windows with nothing due are skipped.** When no mail is queued after
//! routing, nothing can happen before the earliest of the shards' next
//! events and the traffic's next delivery, so the loop jumps to the window
//! holding that time. Within a window, a shard is delivered to only when
//! its inbox has mail and advanced only when an event falls due. A skipped
//! window popped no event and moved no clock, so the output is what the
//! full grid of windows gives.
//!
//! **Byte identity.** A shard is built from `(cfg, idx)` alone and its
//! inbox sequence depends only on its own group, so the fleet's output is
//! the same at any `--jobs`; results concatenate in group order, which is
//! shard order.

use std::ops::Range;

use sim_core::{run_indexed, SimTime};

use crate::shard::{Envelope, Shard, ShardResult};
use crate::traffic::Traffic;
use crate::{ClusterConfig, Topology};

/// Drive the fleet for `cfg.duration`, its groups on `jobs` workers.
pub(crate) fn run_windows(cfg: &ClusterConfig, jobs: usize) -> Vec<ShardResult> {
    let topo = Topology::new(cfg.kernels, cfg.replication);
    let groups: Vec<usize> = (0..topo.groups()).collect();
    run_indexed(groups, jobs, |&g| run_group(cfg, &topo, g))
        .into_iter()
        .flatten()
        .collect()
}

/// Build group `g`'s shards, run them window by window to the end, and
/// return their results in shard order.
fn run_group(cfg: &ClusterConfig, topo: &Topology, g: usize) -> Vec<ShardResult> {
    let members = topo.members(g);
    let la = cfg.net.lookahead().as_nanos().max(1);
    let end_ns = cfg.duration.as_nanos();
    let rounds = end_ns.div_ceil(la);
    let mut traffic = Traffic::new(cfg, topo, g);
    let mut shards: Vec<Shard> = members.clone().map(|i| Shard::new(cfg, i)).collect();
    let mut mail: Vec<Vec<Envelope>> = members.clone().map(|_| Vec::new()).collect();
    let mut round = 0;
    while round < rounds {
        #[cfg(test)]
        tests::ROUNDS.with(|n| n.set(n.get() + 1));
        let end = SimTime::from_nanos(((round + 1) * la).min(end_ns));
        traffic.pull_into(end, &mut |env| mail[route(&members, &env)].push(env));
        for (shard, inbox) in shards.iter_mut().zip(&mut mail) {
            if !inbox.is_empty() {
                shard.deliver(std::mem::take(inbox));
            }
            if shard.next_event_at().is_some_and(|t| t <= end) {
                shard.advance(end);
            }
        }
        for shard in &mut shards {
            for env in shard.take_outbox() {
                mail[route(&members, &env)].push(env);
            }
        }
        round = if mail.iter().all(Vec::is_empty) {
            // Window `r` runs `(r·la, (r+1)·la]`, so this is the window
            // holding the next time anything is due. That time is after
            // `end`; only a last window cut short at `end_ns` can hold it.
            let next = shards
                .iter()
                .filter_map(Shard::next_event_at)
                .fold(traffic.next_at(), SimTime::min);
            (next.as_nanos().saturating_sub(1) / la).max(round + 1)
        } else {
            round + 1
        };
    }
    shards.into_iter().map(Shard::finish).collect()
}

/// The inbox index of `env`'s target within the group `members`.
fn route(members: &Range<usize>, env: &Envelope) -> usize {
    assert!(
        members.contains(&env.to),
        "envelope for shard {} leaves replication group {members:?}",
        env.to
    );
    env.to - members.start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Payload;
    use crate::{ArrivalKind, ClusterSched};
    use sim_core::SimDuration;

    thread_local! {
        /// Windows `run_group` ran on this thread.
        pub(super) static ROUNDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The fixed-grid loop `run_group` replaced: every window, every
    /// shard is delivered its (maybe empty) inbox and advanced.
    fn run_group_on_the_grid(cfg: &ClusterConfig, topo: &Topology, g: usize) -> Vec<ShardResult> {
        let members = topo.members(g);
        let la = cfg.net.lookahead().as_nanos().max(1);
        let end_ns = cfg.duration.as_nanos();
        let mut traffic = Traffic::new(cfg, topo, g);
        let mut shards: Vec<Shard> = members.clone().map(|i| Shard::new(cfg, i)).collect();
        let mut mail: Vec<Vec<Envelope>> = members.clone().map(|_| Vec::new()).collect();
        for round in 0..end_ns.div_ceil(la) {
            let end = SimTime::from_nanos(((round + 1) * la).min(end_ns));
            traffic.pull_into(end, &mut |env| mail[route(&members, &env)].push(env));
            for (shard, inbox) in shards.iter_mut().zip(&mut mail) {
                shard.deliver(std::mem::take(inbox));
                shard.advance(end);
            }
            for shard in &mut shards {
                for env in shard.take_outbox() {
                    mail[route(&members, &env)].push(env);
                }
            }
        }
        shards.into_iter().map(Shard::finish).collect()
    }

    /// Run every group both ways and hold the results equal; returns the
    /// windows the skipping loop ran and the windows the grid has.
    fn same_as_the_grid(cfg: &ClusterConfig) -> (u64, u64) {
        let topo = Topology::new(cfg.kernels, cfg.replication);
        let la = cfg.net.lookahead().as_nanos().max(1);
        let grid = cfg.duration.as_nanos().div_ceil(la) * topo.groups() as u64;
        ROUNDS.with(|n| n.set(0));
        let mut samples = 0;
        for g in 0..topo.groups() {
            let skipped = run_group(cfg, &topo, g);
            assert_eq!(skipped, run_group_on_the_grid(cfg, &topo, g), "group {g}");
            samples += skipped.iter().map(|r| r.samples.len()).sum::<usize>();
        }
        assert!(samples > 0, "the fleet finished no request");
        (ROUNDS.with(|n| n.get()), grid)
    }

    fn fleet(arrival: ArrivalKind, duration: SimDuration) -> ClusterConfig {
        ClusterConfig {
            kernels: 4,
            arrival,
            duration,
            ..Default::default()
        }
    }

    #[test]
    fn a_sparse_fleet_skips_most_windows_and_matches_the_grid() {
        let cfg = fleet(
            ArrivalKind::Poisson { rate: 0.5 },
            SimDuration::from_secs(4),
        );
        let (ran, grid) = same_as_the_grid(&cfg);
        assert!(ran * 4 < grid, "ran {ran} of {grid} windows");
    }

    #[test]
    fn a_flash_crowd_matches_the_grid() {
        let arrival = ArrivalKind::FlashCrowd {
            base: 40.0,
            peak: 5.0,
            start: SimTime::from_nanos(100_000_000),
            ramp: SimDuration::from_millis(50),
            hold: SimDuration::from_millis(150),
            decay: SimDuration::from_millis(50),
        };
        same_as_the_grid(&fleet(arrival, SimDuration::from_secs(1)));
    }

    #[test]
    fn a_cfq_fleet_matches_the_grid() {
        same_as_the_grid(&ClusterConfig {
            sched: ClusterSched::Cfq,
            ..fleet(
                ArrivalKind::Poisson { rate: 60.0 },
                SimDuration::from_secs(1),
            )
        });
    }

    #[test]
    #[should_panic(expected = "envelope for shard 2 leaves replication group 3..6")]
    fn an_envelope_outside_its_group_panics() {
        let env = Envelope {
            to: 2,
            deliver_at: SimTime::ZERO,
            payload: Payload::RepAck { req: 0 },
        };
        route(&(3..6), &env);
    }

    #[test]
    fn a_run_ending_just_before_an_arrival_matches_the_grid() {
        // The run's last window is cut short 1 ns before the second
        // client request arrives: the next thing due lies inside that
        // window yet after the run.
        let mut cfg = fleet(ArrivalKind::Poisson { rate: 0.5 }, SimDuration::ZERO);
        let mut traffic = Traffic::new(&cfg, &Topology::new(cfg.kernels, cfg.replication), 0);
        let first = traffic.next_at();
        traffic.pull_into(first, &mut |_| {});
        cfg.duration = SimDuration::from_nanos(traffic.next_at().as_nanos() - 1);
        same_as_the_grid(&cfg);
    }
}
