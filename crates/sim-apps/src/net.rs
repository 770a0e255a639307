//! The cluster network model, factored out of the DFS pipeline.
//!
//! The HDFS layer ([`crate::dfs`]) pipelines packets between kernels with
//! an implicit zero-latency network: an injection lands on the remote
//! worker at the instant it is sent. That is fine for a 7-node figure,
//! but a serving fleet needs real link latency — both for fidelity and
//! because a *positive minimum* link latency is exactly the lookahead
//! that makes conservative parallel DES possible (`sim-cluster` advances
//! shards in windows of one lookahead and routes cross-shard messages at
//! window barriers; see DESIGN §4i).
//!
//! [`Net`] is that model made explicit: a fixed one-way shard-to-shard
//! latency ([`LINK_LATENCY`]) and client-edge latency
//! ([`CLIENT_LATENCY`]), with no per-byte serialization term.

use sim_core::{SimDuration, SimTime};

/// One-way latency between any two shards (kernel instances): the
/// minimum over all links, doubling as the parallel-DES lookahead.
/// Cross-rack datacenter RTT ~2 ms; one-way 1 ms.
pub const LINK_LATENCY: SimDuration = SimDuration::from_millis(1);

/// One-way latency between a client and the fleet edge: clients sit
/// behind the frontend, one-way 2 ms.
pub const CLIENT_LATENCY: SimDuration = SimDuration::from_millis(2);

/// The fleet's network. Zero-sized: its latencies are the constants
/// above.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Net;

impl Net {
    /// The conservative-PDES lookahead: no message sent at time `t` can
    /// be *delivered* to another shard before `t + lookahead()`, so
    /// shards may advance one lookahead window independently.
    pub fn lookahead(self) -> SimDuration {
        LINK_LATENCY
    }

    /// When a message sent between shards at `sent` lands.
    pub fn deliver_at(self, sent: SimTime) -> SimTime {
        sent + LINK_LATENCY
    }

    /// When a client message sent at `sent` reaches the fleet edge.
    pub fn client_deliver_at(self, sent: SimTime) -> SimTime {
        sent + CLIENT_LATENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_is_never_before_one_lookahead() {
        let t = SimTime::from_nanos(5_000_000);
        assert_eq!(Net.deliver_at(t), t + Net.lookahead());
        assert!(Net.client_deliver_at(t) >= t + Net.lookahead());
    }
}
