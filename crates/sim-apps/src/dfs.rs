//! An HDFS-like distributed file system (§7.3): one namenode (block
//! placement), N worker nodes — each a full simulated kernel running
//! Split-Token — and clients whose writes are pipelined to three
//! replicas. The client-to-worker protocol carries the *account* to bill,
//! which joins the per-worker datanode handler into the account's shared
//! token bucket (the paper's modified HDFS protocol).

use std::collections::HashMap;
use std::fmt;

use sim_cache::CacheConfig;
use sim_core::{FileId, KernelId, Pid, SimDuration, SimRng};
use sim_kernel::{AppEvent, DeviceKind, InjectTarget, KernelConfig, World};
use split_core::{SchedAttr, SyscallKind};
use split_schedulers::SplitToken;

/// Replication factor.
const REPLICATION: usize = 3;

/// Packet size streamed through the pipeline.
const PACKET_BYTES: u64 = 1024 * 1024;

/// Worker RAM.
const WORKER_MEM: u64 = 512 * 1024 * 1024;

/// Worker cores.
const WORKER_CORES: u32 = 32;

/// Per-worker backing capacity per client.
const BACKING_BYTES: u64 = 8 * 1024 * 1024 * 1024;

/// Cluster configuration.
#[derive(Debug, Clone, Copy)]
pub struct DfsConfig {
    /// Worker (datanode) count. The paper uses 7.
    pub workers: usize,
    /// HDFS block size (64 MB default; 16 MB in Figure 21b).
    pub block_bytes: u64,
    /// Placement seed.
    pub seed: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            workers: 7,
            block_bytes: 64 * 1024 * 1024,
            seed: 0xd15,
        }
    }
}

/// A configuration or accounting error from the DFS driver. These used
/// to be silent no-ops; an experiment that misspelled an account id
/// would simply measure an unthrottled cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfsError {
    /// The cluster has no workers, so a client has nowhere to write.
    NoWorkers,
    /// No client is registered under this account.
    UnknownAccount(u32),
    /// A zero rate cap would park the account's token bucket forever;
    /// reject it rather than silently starving the account.
    ZeroRate(u32),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NoWorkers => write!(f, "cluster has no workers"),
            DfsError::UnknownAccount(a) => write!(f, "no client under account {a}"),
            DfsError::ZeroRate(a) => write!(f, "zero rate cap for account {a}"),
        }
    }
}

impl std::error::Error for DfsError {}

struct Client {
    account: u32,
    /// Handler pid + backing file + current offset, per worker.
    handlers: Vec<(Pid, FileId, u64)>,
    /// Workers serving the current block.
    replicas: Vec<usize>,
    /// Bytes left in the current block.
    block_left: u64,
    /// Outstanding replica writes for the in-flight packet.
    pending: usize,
    /// Client-visible bytes written (each packet counted once).
    bytes_written: u64,
}

/// A running cluster plus its driver state.
pub struct DfsCluster {
    cfg: DfsConfig,
    /// Worker kernels.
    pub workers: Vec<KernelId>,
    clients: Vec<Client>,
    rng: SimRng,
    /// token -> (client, replica slot)
    inflight: HashMap<u64, usize>,
    next_token: u64,
}

impl DfsCluster {
    /// Build the cluster: `workers` kernels running Split-Token.
    pub fn new(world: &mut World, cfg: DfsConfig) -> Self {
        let mut workers = Vec::new();
        for _ in 0..cfg.workers {
            let k = world.add_kernel(
                KernelConfig {
                    cache: CacheConfig {
                        mem_bytes: WORKER_MEM,
                        ..Default::default()
                    },
                    cores: WORKER_CORES,
                    ..Default::default()
                },
                DeviceKind::hdd(),
                Box::new(SplitToken::new()),
            );
            workers.push(k);
        }
        DfsCluster {
            cfg,
            workers,
            clients: Vec::new(),
            rng: SimRng::seed_from_u64(cfg.seed),
            inflight: HashMap::new(),
            next_token: 1,
        }
    }

    /// Add a client writing under `account`. Throttled accounts must then
    /// be configured via [`DfsCluster::set_account_rate`].
    pub fn add_client(&mut self, world: &mut World, account: u32) -> Result<usize, DfsError> {
        if self.workers.is_empty() {
            return Err(DfsError::NoWorkers);
        }
        let mut handlers = Vec::new();
        for &wk in &self.workers {
            let pid = world.spawn_external(wk);
            let file = world.prealloc_file(wk, BACKING_BYTES, true);
            world.configure(wk, pid, SchedAttr::TokenGroup(account));
            handlers.push((pid, file, 0));
        }
        self.clients.push(Client {
            account,
            handlers,
            replicas: Vec::new(),
            block_left: 0,
            pending: 0,
            bytes_written: 0,
        });
        Ok(self.clients.len() - 1)
    }

    /// Cap `account` to `rate` normalized bytes/second *per worker* (the
    /// paper's local rate caps). The account must have at least one
    /// client and the rate must be positive.
    pub fn set_account_rate(
        &mut self,
        world: &mut World,
        account: u32,
        rate: u64,
    ) -> Result<(), DfsError> {
        if rate == 0 {
            return Err(DfsError::ZeroRate(account));
        }
        let Some(ci) = self.clients.iter().position(|c| c.account == account) else {
            return Err(DfsError::UnknownAccount(account));
        };
        // One member per worker is enough: buckets are shared per account.
        for (wi, &wk) in self.workers.iter().enumerate() {
            let (pid, _, _) = self.clients[ci].handlers[wi];
            world.configure(wk, pid, SchedAttr::TokenRate(rate));
        }
        Ok(())
    }

    /// Total client-visible bytes for an account.
    pub fn account_bytes(&self, account: u32) -> u64 {
        self.clients
            .iter()
            .filter(|c| c.account == account)
            .map(|c| c.bytes_written)
            .sum()
    }

    /// Copies of each block: three, or every worker in a smaller
    /// cluster.
    pub fn replication(&self) -> usize {
        REPLICATION.min(self.cfg.workers)
    }

    fn place_block(&mut self, client: usize) {
        let n = self.cfg.workers;
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < self.replication() {
            let w = self.rng.gen_range(n as u64) as usize;
            if !chosen.contains(&w) {
                chosen.push(w);
            }
        }
        let c = &mut self.clients[client];
        c.replicas = chosen;
        c.block_left = self.cfg.block_bytes;
    }

    fn send_packet(&mut self, world: &mut World, client: usize) {
        if self.clients[client].block_left == 0 {
            self.place_block(client);
        }
        let packet = PACKET_BYTES.min(self.clients[client].block_left);
        let replicas = self.clients[client].replicas.clone();
        self.clients[client].pending = replicas.len();
        self.clients[client].block_left -= packet;
        self.clients[client].bytes_written += packet;
        for wi in replicas {
            let token = self.next_token;
            self.next_token += 1;
            self.inflight.insert(token, client);
            let (pid, file, offset) = {
                let h = &mut self.clients[client].handlers[wi];
                let r = (h.0, h.1, h.2);
                h.2 = (h.2 + packet) % BACKING_BYTES.saturating_sub(packet).max(1);
                r
            };
            let wk = self.workers[wi];
            world.inject(
                wk,
                pid,
                SyscallKind::Write {
                    file,
                    offset,
                    len: packet,
                },
                InjectTarget::App { token },
            );
        }
    }

    /// Drive the cluster for `duration`: all clients stream continuously.
    pub fn run(&mut self, world: &mut World, duration: SimDuration) {
        let deadline = world.now() + duration;
        for ci in 0..self.clients.len() {
            self.send_packet(world, ci);
        }
        loop {
            let events = world.run_until_app_events(deadline);
            if events.is_empty() {
                break;
            }
            for ev in events {
                if let AppEvent::InjectedDone { token, .. } = ev {
                    let Some(client) = self.inflight.remove(&token) else {
                        continue;
                    };
                    let c = &mut self.clients[client];
                    c.pending -= 1;
                    if c.pending == 0 && world.now() < deadline {
                        self.send_packet(world, client);
                    }
                }
            }
            if world.now() >= deadline {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_writes_reach_three_workers() {
        let mut w = World::new();
        let cfg = DfsConfig {
            workers: 4,
            block_bytes: 8 * 1024 * 1024,
            ..Default::default()
        };
        let mut cluster = DfsCluster::new(&mut w, cfg);
        let c = cluster.add_client(&mut w, 1).unwrap();
        cluster.run(&mut w, SimDuration::from_secs(2));
        let written = cluster.clients[c].bytes_written;
        assert!(written > 8 * 1024 * 1024, "client wrote {written}");
        // Aggregate handler-level writes are ~3× the client bytes.
        let mut handler_bytes = 0;
        for (wi, &wk) in cluster.workers.iter().enumerate() {
            let (pid, _, _) = cluster.clients[c].handlers[wi];
            if let Some(st) = w.kernel(wk).stats.proc(pid) {
                handler_bytes += st.write_bytes;
            }
        }
        let ratio = handler_bytes as f64 / written as f64;
        assert!(
            (2.5..=3.1).contains(&ratio),
            "replication factor should be ~3, got {ratio}"
        );
    }

    #[test]
    fn throttled_account_writes_less_than_unthrottled() {
        let mut w = World::new();
        let cfg = DfsConfig {
            workers: 4,
            block_bytes: 8 * 1024 * 1024,
            ..Default::default()
        };
        let mut cluster = DfsCluster::new(&mut w, cfg);
        let slow = cluster.add_client(&mut w, 1).unwrap();
        let fast = cluster.add_client(&mut w, 2).unwrap();
        cluster
            .set_account_rate(&mut w, 1, 2 * 1024 * 1024) // 2 MB/s/worker
            .unwrap();
        cluster.run(&mut w, SimDuration::from_secs(4));
        let s = cluster.clients[slow].bytes_written;
        let f = cluster.clients[fast].bytes_written;
        assert!(
            f as f64 > 2.0 * s as f64,
            "unthrottled {f} should far exceed throttled {s}"
        );
        assert!(s > 0, "throttled account must still progress");
    }

    #[test]
    fn unknown_account_rate_is_a_typed_error() {
        let mut w = World::new();
        let cfg = DfsConfig {
            workers: 2,
            ..Default::default()
        };
        let mut cluster = DfsCluster::new(&mut w, cfg);
        cluster.add_client(&mut w, 1).unwrap();
        assert_eq!(
            cluster.set_account_rate(&mut w, 99, 1024),
            Err(DfsError::UnknownAccount(99))
        );
    }

    #[test]
    fn zero_rate_is_rejected_before_account_lookup() {
        let mut w = World::new();
        let cfg = DfsConfig {
            workers: 2,
            ..Default::default()
        };
        let mut cluster = DfsCluster::new(&mut w, cfg);
        cluster.add_client(&mut w, 1).unwrap();
        // A zero cap is invalid even for a known account …
        assert_eq!(
            cluster.set_account_rate(&mut w, 1, 0),
            Err(DfsError::ZeroRate(1))
        );
        // … and reported as such for unknown ones too.
        assert_eq!(
            cluster.set_account_rate(&mut w, 7, 0),
            Err(DfsError::ZeroRate(7))
        );
    }

    #[test]
    fn clients_need_workers() {
        let mut w = World::new();
        let cfg = DfsConfig {
            workers: 0,
            ..Default::default()
        };
        let mut cluster = DfsCluster::new(&mut w, cfg);
        assert_eq!(cluster.add_client(&mut w, 1), Err(DfsError::NoWorkers));
    }
}
