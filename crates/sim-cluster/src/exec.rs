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
}
