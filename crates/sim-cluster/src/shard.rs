//! One shard: a full simulated kernel (its own event queue inside a
//! [`World`]) plus the KV/log server state machine that runs on it.
//!
//! A shard is deliberately **not** `Send`: worlds hold `Rc`-based app
//! state and tracers. Its replication group's window loop therefore
//! constructs it *on* the worker thread that runs the group and drops it
//! there; nothing about a shard crosses threads but its plain-data
//! [`ShardResult`].
//!
//! ## Request protocol (commit-on-quorum-fsync, minidb-style WAL)
//!
//! A `Put` arriving at a group's leader is forwarded to the followers
//! immediately (`Replicate`), then queued for a local handler which
//! appends to the WAL (`write` + `fsync`). Followers do the same append
//! and answer `RepAck`. The put commits when the leader's own WAL fsync
//! has completed *and* `quorum - 1` acks are in. A `Get` is routed to a
//! deterministic replica and served by one read syscall against the
//! shard's DB file. Handlers are a fixed pool of external processes —
//! the server's concurrency limit — so a flash crowd queues requests
//! exactly like a saturated thread pool would.

use std::collections::VecDeque;

use sim_apps::net::{Net, CLIENT_LATENCY};
use sim_block::IoPrio;
use sim_core::{stream_seed, FastMap, FileId, KernelId, Pid, SimTime, PAGE_SIZE};
use sim_kernel::{AppEvent, DeviceKind, InjectTarget, World};
use sim_workloads::PacedWriter;
use split_core::{SchedAttr, SyscallKind};

use crate::{ClusterConfig, ClusterSched, Topology};

/// Request handlers per shard (the server's concurrency limit).
const HANDLERS_PER_SHARD: usize = 8;

/// Per-shard DB file backing gets.
const DB_BYTES: u64 = 1024 * 1024 * 1024;

/// The per-shard batch tenant, a buffered random writer dirtying pages
/// continuously and competing with the latency-SLO serving tenant: its
/// backing file size.
const BG_FILE_BYTES: u64 = 512 * 1024 * 1024;

/// Bytes per batch-tenant write call.
const BG_REQ_BYTES: u64 = 64 * 1024;

/// The batch tenant's own target dirtying rate (bytes/s) — what it
/// attempts regardless of scheduler.
const BG_DIRTY_RATE: u64 = 4 * 1024 * 1024;

/// Split-Token rate cap on the batch tenant (normalized bytes/s), set
/// below [`BG_DIRTY_RATE`] so tokens bind. Under CFQ the tenant runs in
/// the idle class instead — the best CFQ can do.
const BG_RATE_CAP: u64 = 1024 * 1024;

/// Payload of a cross-shard (or client-to-shard) message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Payload {
    /// A client request entering the fleet.
    Request {
        /// Fleet-unique request id.
        req: u64,
        /// Put (replicated WAL append) or Get (replica read).
        kind: ReqKind,
        /// When the client sent it (for end-to-end latency).
        arrival: SimTime,
    },
    /// Leader → follower WAL replication.
    Replicate {
        /// The put being replicated.
        req: u64,
        /// Shard index to ack back to.
        leader: usize,
    },
    /// Follower → leader fsync acknowledgment.
    RepAck {
        /// The put being acked.
        req: u64,
    },
}

/// Request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Replicated, durable write.
    Put,
    /// Point read at one replica.
    Get,
}

/// A message in flight to a shard, from a client or from a shard of the
/// same replication group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Envelope {
    /// Destination shard index.
    pub to: usize,
    /// Simulated delivery time (≥ send time + one network lookahead for
    /// shard-to-shard traffic, which is what makes windowed execution
    /// conservative).
    pub deliver_at: SimTime,
    /// What is being delivered.
    pub payload: Payload,
}

/// One completed request, as recorded at the shard that finished it.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
pub struct ReqSample {
    /// Fleet-unique request id.
    pub req: u64,
    /// Shard that completed the request.
    pub shard: usize,
    /// Put or Get.
    pub kind: ReqKind,
    /// Client send time.
    pub arrival: SimTime,
    /// Commit / response time at the server.
    pub done: SimTime,
    /// End-to-end latency seen by the client (includes both network
    /// directions), milliseconds.
    pub e2e_ms: f64,
    /// Local service tier: WAL write+fsync at the leader, or the replica
    /// read for a get, milliseconds.
    pub service_ms: f64,
    /// Replication tier: time from local WAL durability to quorum,
    /// milliseconds (zero for gets and unreplicated groups).
    pub repl_ms: f64,
}

/// What a shard hands back when the run ends.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct ShardResult {
    /// Completed requests in completion order.
    pub samples: Vec<ReqSample>,
    /// Events processed by this shard's queue.
    pub events: u64,
    /// Late schedules (must be zero; nonzero means the lookahead
    /// contract was violated).
    pub late: u64,
    /// Requests still in flight when the clock stopped.
    pub inflight: u64,
}

enum Role {
    Leader,
    Follower { leader: usize },
}

enum Job {
    Wal { req: u64, role: Role },
    Get { req: u64, arrival: SimTime },
}

enum Io {
    WalWrite {
        slot: usize,
        req: u64,
        leader: bool,
        follower_of: Option<usize>,
    },
    WalFsync {
        slot: usize,
        req: u64,
        leader: bool,
        follower_of: Option<usize>,
    },
    GetRead {
        slot: usize,
        req: u64,
        arrival: SimTime,
        started: SimTime,
    },
}

struct PutState {
    arrival: SimTime,
    service_start: Option<SimTime>,
    wal_done: Option<SimTime>,
    acks_left: usize,
}

/// A single shard of the fleet.
pub(crate) struct Shard {
    idx: usize,
    world: World,
    k: KernelId,
    followers: Vec<usize>,
    quorum: usize,
    wal_bytes: u64,
    get_bytes: u64,
    wal_file: FileId,
    wal_limit: u64,
    wal_off: u64,
    db_file: FileId,
    db_pages: u64,
    read_salt: u64,
    handlers: Vec<Pid>,
    free: Vec<usize>,
    queue: VecDeque<Job>,
    io: FastMap<u64, Io>,
    msgs: FastMap<u64, Payload>,
    puts: FastMap<u64, PutState>,
    next_token: u64,
    outbox: Vec<Envelope>,
    samples: Vec<ReqSample>,
}

impl Shard {
    /// Build shard `idx` of the fleet. Deterministic in `(cfg, idx)`
    /// alone, so a shard is identical on whichever thread its group runs.
    pub(crate) fn new(cfg: &ClusterConfig, idx: usize) -> Shard {
        let topo = Topology::new(cfg.kernels, cfg.replication);
        let g = topo.group_of(idx);
        let members = topo.members(g);
        let leader = topo.leader(g);
        let followers = if idx == leader {
            members.clone().filter(|&m| m != leader).collect()
        } else {
            Vec::new()
        };
        let quorum = topo.quorum(g);

        let mut world = World::new();
        let k = world.add_kernel(cfg.kernel_config(idx), DeviceKind::hdd(), cfg.sched.build());

        let wal_limit = 64 * 1024 * 1024;
        let wal_file = world.prealloc_file(k, wal_limit, true);
        let db_file = world.prealloc_file(k, DB_BYTES, false);
        let db_pages = (DB_BYTES / PAGE_SIZE).max(1);

        let handlers: Vec<Pid> = (0..HANDLERS_PER_SHARD)
            .map(|_| world.spawn_external(k))
            .collect();
        let free: Vec<usize> = (0..handlers.len()).rev().collect();

        // The batch tenant: a buffered random writer dirtying pages at
        // its own target rate. Split-Token caps it *below* that rate at
        // the source with tokens; CFQ can only deprioritize it at the
        // block level (idle class), which does nothing about async
        // writeback — the fig01 asymmetry, now fleet-wide.
        let bg_file = world.prealloc_file(k, BG_FILE_BYTES, false);
        let seed = stream_seed(cfg.seed, 0xB6_0000 + idx as u64);
        let pid = world.spawn(
            k,
            Box::new(PacedWriter::new(
                bg_file,
                BG_FILE_BYTES,
                BG_REQ_BYTES,
                BG_DIRTY_RATE,
                seed,
            )),
        );
        match cfg.sched {
            ClusterSched::SplitToken => world.configure(k, pid, SchedAttr::TokenRate(BG_RATE_CAP)),
            ClusterSched::Cfq => world.set_ioprio(k, pid, IoPrio::idle()),
        }

        Shard {
            idx,
            world,
            k,
            followers,
            quorum,
            wal_bytes: cfg.wal_bytes.max(1),
            get_bytes: cfg.get_bytes.max(1),
            wal_file,
            wal_limit,
            wal_off: 0,
            db_file,
            db_pages,
            read_salt: stream_seed(cfg.seed, 0x6E7 + idx as u64),
            handlers,
            free,
            queue: VecDeque::new(),
            io: FastMap::default(),
            msgs: FastMap::default(),
            puts: FastMap::default(),
            next_token: 1,
            outbox: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Accept a window's worth of envelopes: each becomes an app timer
    /// at its delivery time. The conservative window loop guarantees every
    /// `deliver_at` is at or after this shard's clock; one that is not
    /// counts in the shard's `late`.
    pub(crate) fn deliver(&mut self, inbox: Vec<Envelope>) {
        for env in inbox {
            let token = self.next_token;
            self.next_token += 1;
            self.msgs.insert(token, env.payload);
            self.world.schedule_app_timer(env.deliver_at, token);
        }
    }

    /// Advance this shard's clock to `end`, processing every local event
    /// and message delivery in the window. Cross-shard sends accumulate
    /// in the outbox.
    pub(crate) fn advance(&mut self, end: SimTime) {
        loop {
            let events = self.world.run_until_app_events(end);
            if events.is_empty() {
                return;
            }
            for ev in events {
                match ev {
                    AppEvent::Timer { token, now } => self.on_timer(token, now),
                    AppEvent::InjectedDone { token, now } => self.on_io(token, now),
                }
            }
        }
    }

    /// When this shard's next event fires, if it has one queued.
    pub(crate) fn next_event_at(&self) -> Option<SimTime> {
        self.world.next_event_at()
    }

    /// Take the cross-shard messages produced this window.
    pub(crate) fn take_outbox(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.outbox)
    }

    /// Tear down into the plain-data result the fleet report aggregates.
    pub(crate) fn finish(self) -> ShardResult {
        // Client requests, not work items: a put is in `puts` from its
        // arrival at the leader to its commit, whatever WAL job it has
        // queued or in flight, and followers' replication jobs are not
        // requests at all.
        let gets = self
            .queue
            .iter()
            .filter(|job| matches!(job, Job::Get { .. }))
            .count()
            + self
                .io
                .values()
                .filter(|io| matches!(io, Io::GetRead { .. }))
                .count();
        ShardResult {
            samples: self.samples,
            events: self.world.events_processed(),
            late: self.world.late_schedules(),
            inflight: (self.puts.len() + gets) as u64,
        }
    }

    fn on_timer(&mut self, token: u64, now: SimTime) {
        let Some(msg) = self.msgs.remove(&token) else {
            return;
        };
        match msg {
            Payload::Request {
                req,
                kind: ReqKind::Put,
                arrival,
            } => {
                // Forward to followers right away; local WAL work queues
                // for a handler.
                self.puts.insert(
                    req,
                    PutState {
                        arrival,
                        service_start: None,
                        wal_done: None,
                        acks_left: self.quorum.saturating_sub(1),
                    },
                );
                let deliver_at = Net.deliver_at(now);
                for &f in &self.followers {
                    self.outbox.push(Envelope {
                        to: f,
                        deliver_at,
                        payload: Payload::Replicate {
                            req,
                            leader: self.idx,
                        },
                    });
                }
                self.queue.push_back(Job::Wal {
                    req,
                    role: Role::Leader,
                });
            }
            Payload::Request {
                req,
                kind: ReqKind::Get,
                arrival,
            } => {
                self.queue.push_back(Job::Get { req, arrival });
            }
            Payload::Replicate { req, leader } => {
                self.queue.push_back(Job::Wal {
                    req,
                    role: Role::Follower { leader },
                });
            }
            Payload::RepAck { req } => {
                if let Some(st) = self.puts.get_mut(&req) {
                    st.acks_left = st.acks_left.saturating_sub(1);
                    self.try_commit(req, now);
                }
            }
        }
        self.pump(now);
    }

    fn on_io(&mut self, token: u64, now: SimTime) {
        let Some(io) = self.io.remove(&token) else {
            return;
        };
        match io {
            Io::WalWrite {
                slot,
                req,
                leader,
                follower_of,
            } => {
                let tok = self.next_token;
                self.next_token += 1;
                self.io.insert(
                    tok,
                    Io::WalFsync {
                        slot,
                        req,
                        leader,
                        follower_of,
                    },
                );
                self.world.inject(
                    self.k,
                    self.handlers[slot],
                    SyscallKind::Fsync {
                        file: self.wal_file,
                    },
                    InjectTarget::App { token: tok },
                );
            }
            Io::WalFsync {
                slot,
                req,
                leader,
                follower_of,
            } => {
                self.free.push(slot);
                if leader {
                    if let Some(st) = self.puts.get_mut(&req) {
                        st.wal_done = Some(now);
                    }
                    self.try_commit(req, now);
                } else if let Some(l) = follower_of {
                    self.outbox.push(Envelope {
                        to: l,
                        deliver_at: Net.deliver_at(now),
                        payload: Payload::RepAck { req },
                    });
                }
                self.pump(now);
            }
            Io::GetRead {
                slot,
                req,
                arrival,
                started,
            } => {
                self.free.push(slot);
                let e2e = now.since(arrival) + CLIENT_LATENCY;
                self.samples.push(ReqSample {
                    req,
                    shard: self.idx,
                    kind: ReqKind::Get,
                    arrival,
                    done: now,
                    e2e_ms: e2e.as_millis_f64(),
                    service_ms: now.since(started).as_millis_f64(),
                    repl_ms: 0.0,
                });
                self.pump(now);
            }
        }
    }

    fn try_commit(&mut self, req: u64, now: SimTime) {
        let commit = matches!(self.puts.get(&req),
            Some(st) if st.acks_left == 0 && st.wal_done.is_some());
        if !commit {
            return;
        }
        let st = self.puts.remove(&req).unwrap();
        let wal_done = st.wal_done.unwrap();
        let service_start = st.service_start.unwrap_or(st.arrival);
        let e2e = now.since(st.arrival) + CLIENT_LATENCY;
        self.samples.push(ReqSample {
            req,
            shard: self.idx,
            kind: ReqKind::Put,
            arrival: st.arrival,
            done: now,
            e2e_ms: e2e.as_millis_f64(),
            service_ms: wal_done.since(service_start).as_millis_f64(),
            repl_ms: now.since(wal_done).as_millis_f64(),
        });
    }

    fn pump(&mut self, now: SimTime) {
        while !self.queue.is_empty() && !self.free.is_empty() {
            let slot = self.free.pop().unwrap();
            let job = self.queue.pop_front().unwrap();
            match job {
                Job::Wal { req, role } => {
                    let (leader, follower_of) = match role {
                        Role::Leader => {
                            if let Some(st) = self.puts.get_mut(&req) {
                                st.service_start = Some(now);
                            }
                            (true, None)
                        }
                        Role::Follower { leader } => (false, Some(leader)),
                    };
                    // Wrap in the first half of the WAL file so
                    // offset + len never crosses the end.
                    let offset = self.wal_off;
                    self.wal_off = (self.wal_off + self.wal_bytes) % (self.wal_limit / 2);
                    let tok = self.next_token;
                    self.next_token += 1;
                    self.io.insert(
                        tok,
                        Io::WalWrite {
                            slot,
                            req,
                            leader,
                            follower_of,
                        },
                    );
                    self.world.inject(
                        self.k,
                        self.handlers[slot],
                        SyscallKind::Write {
                            file: self.wal_file,
                            offset,
                            len: self.wal_bytes,
                        },
                        InjectTarget::App { token: tok },
                    );
                }
                Job::Get { req, arrival } => {
                    let span = sim_core::pages_for_bytes(self.get_bytes);
                    let page = stream_seed(self.read_salt, req)
                        % self.db_pages.saturating_sub(span).max(1);
                    let tok = self.next_token;
                    self.next_token += 1;
                    self.io.insert(
                        tok,
                        Io::GetRead {
                            slot,
                            req,
                            arrival,
                            started: now,
                        },
                    );
                    self.world.inject(
                        self.k,
                        self.handlers[slot],
                        SyscallKind::Read {
                            file: self.db_file,
                            offset: page * PAGE_SIZE,
                            len: self.get_bytes,
                        },
                        InjectTarget::App { token: tok },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    #[test]
    fn inflight_counts_client_requests_not_work_items() {
        let cfg = ClusterConfig {
            kernels: 3,
            ..ClusterConfig::default()
        };
        let at = SimTime::from_nanos(1_000_000);
        let mut leader = Shard::new(&cfg, 0);
        leader.deliver(vec![Envelope {
            to: 0,
            deliver_at: at,
            payload: Payload::Request {
                req: 1,
                kind: ReqKind::Put,
                arrival: SimTime::ZERO,
            },
        }]);
        let mut follower = Shard::new(&cfg, 1);
        follower.deliver(vec![Envelope {
            to: 1,
            deliver_at: at,
            payload: Payload::Replicate { req: 1, leader: 0 },
        }]);
        let end = at + SimDuration::from_micros(100);
        leader.advance(end);
        follower.advance(end);
        // The leader holds the put and its WAL write; the follower holds
        // only a replication job, which is not a client request.
        assert_eq!(leader.finish().inflight, 1);
        assert_eq!(follower.finish().inflight, 0);
    }
}
