//! The conservative parallel-DES executor.
//!
//! **Lookahead.** Every cross-shard message is delivered at least one
//! network link latency after it is sent ([`NetConfig::lookahead`]).
//! Time is therefore cut into windows of one lookahead: a message sent
//! inside window `w` can only be *delivered* in window `w + 1` or later,
//! so every shard can advance through window `w` independently — no
//! event it processes can be caused by another shard inside the same
//! window. At each barrier the coordinator routes outboxes to inboxes
//! (in shard-index order) and injects the next window's open-loop
//! arrivals; both are pure data motion at a fixed point in the round
//! structure, so the schedule is identical at any worker count.
//!
//! **Threading.** This extends the `sim-sweep` executor idiom (scoped
//! std threads, deterministic work assignment, index-keyed results) from
//! *across scenarios* to *within one scenario*. One difference is
//! forced by the model: a [`Shard`]'s `World` holds `Rc`-based state and
//! is not `Send`, so shards cannot migrate between workers the way
//! sweep cells do. Worker `i` builds and permanently owns shards
//! `i, i+jobs, i+2*jobs, …` (static deal instead of work stealing); the
//! only cross-thread traffic is plain-data envelopes and window numbers.
//!
//! **Byte identity.** `jobs = 1` runs the identical per-shard call
//! sequence inline on the caller's thread. Shard construction depends
//! only on `(cfg, idx)`, per-window mailbox contents are assembled by
//! the coordinator in shard-index order in both modes, and each shard's
//! event processing is single-threaded — so the fleet's simulated output
//! is byte-identical at any `--jobs`, which the tests and the CI
//! `cluster-smoke` job assert.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use sim_core::SimTime;

use crate::shard::{Envelope, Shard, ShardResult};
use crate::traffic::Traffic;
use crate::ClusterConfig;

/// Drive the fleet for `cfg.duration` on `jobs` worker threads.
pub(crate) fn run_windows(cfg: &ClusterConfig, jobs: usize) -> Vec<ShardResult> {
    let la = cfg.net.lookahead().as_nanos().max(1);
    let end_ns = cfg.duration.as_nanos();
    let plan = WindowPlan {
        shards: cfg.kernels.max(1),
        la,
        end_ns,
        rounds: end_ns.div_ceil(la),
    };
    let mut traffic = Traffic::new(cfg);

    if jobs <= 1 {
        return run_sequential(cfg, plan, &mut traffic);
    }
    run_parallel(cfg, plan, &mut traffic, jobs.min(plan.shards))
}

/// The fleet's window structure, computed once: how many shards advance
/// through how many lookahead-wide windows up to the run's end.
#[derive(Clone, Copy)]
struct WindowPlan {
    shards: usize,
    /// Window width (one lookahead), nanoseconds.
    la: u64,
    end_ns: u64,
    rounds: u64,
}

impl WindowPlan {
    /// Where window `round` ends (the last one stops at the run's end).
    fn window_end(&self, round: u64) -> SimTime {
        SimTime::from_nanos(((round + 1) * self.la).min(self.end_ns))
    }
}

fn run_sequential(
    cfg: &ClusterConfig,
    plan: WindowPlan,
    traffic: &mut Traffic,
) -> Vec<ShardResult> {
    let n = plan.shards;
    let mut shards: Vec<Shard> = (0..n).map(|i| Shard::new(cfg, i)).collect();
    let mut mail: Vec<Vec<Envelope>> = (0..n).map(|_| Vec::new()).collect();
    for round in 0..plan.rounds {
        let end = plan.window_end(round);
        traffic.pull_into(end, &mut |env: Envelope| mail[env.to].push(env));
        for (i, shard) in shards.iter_mut().enumerate() {
            shard.deliver(std::mem::take(&mut mail[i]));
            shard.advance(end);
        }
        for shard in shards.iter_mut() {
            for env in shard.take_outbox() {
                mail[env.to].push(env);
            }
        }
    }
    shards.into_iter().map(Shard::finish).collect()
}

fn run_parallel(
    cfg: &ClusterConfig,
    plan: WindowPlan,
    traffic: &mut Traffic,
    workers: usize,
) -> Vec<ShardResult> {
    let n = plan.shards;
    // Per-shard slots the coordinator and the owning worker exchange
    // through. Locks are uncontended by construction: the coordinator
    // touches them only while the workers are parked at a barrier.
    let inboxes: Vec<Mutex<Vec<Envelope>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let outboxes: Vec<Mutex<Vec<Envelope>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let results: Vec<Mutex<Option<ShardResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let window_ns = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start_barrier = Barrier::new(workers + 1);
    let end_barrier = Barrier::new(workers + 1);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let inboxes = &inboxes;
            let outboxes = &outboxes;
            let results = &results;
            let window_ns = &window_ns;
            let done = &done;
            let start_barrier = &start_barrier;
            let end_barrier = &end_barrier;
            scope.spawn(move || {
                // Shards are built here and never leave this thread
                // (they are !Send: worlds hold Rc state).
                let mut mine: Vec<(usize, Shard)> = (w..n)
                    .step_by(workers)
                    .map(|i| (i, Shard::new(cfg, i)))
                    .collect();
                loop {
                    start_barrier.wait();
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let end = SimTime::from_nanos(window_ns.load(Ordering::Acquire));
                    for (i, shard) in mine.iter_mut() {
                        let inbox = std::mem::take(&mut *inboxes[*i].lock().unwrap());
                        shard.deliver(inbox);
                        shard.advance(end);
                        *outboxes[*i].lock().unwrap() = shard.take_outbox();
                    }
                    end_barrier.wait();
                }
                for (i, shard) in mine {
                    *results[i].lock().unwrap() = Some(shard.finish());
                }
                end_barrier.wait();
            });
        }

        for round in 0..plan.rounds {
            let end = plan.window_end(round);
            // Same coordinator order as the sequential loop: previous
            // round's routed envelopes are already in the inboxes; this
            // window's arrivals are appended after them.
            traffic.pull_into(end, &mut |env: Envelope| {
                inboxes[env.to].lock().unwrap().push(env)
            });
            window_ns.store(end.as_nanos(), Ordering::Release);
            start_barrier.wait();
            end_barrier.wait();
            for slot in outboxes.iter() {
                let out = std::mem::take(&mut *slot.lock().unwrap());
                for env in out {
                    inboxes[env.to].lock().unwrap().push(env);
                }
            }
        }
        done.store(true, Ordering::Release);
        start_barrier.wait();
        end_barrier.wait();
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every shard reports a result")
        })
        .collect()
}
