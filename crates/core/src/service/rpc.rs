//! The message vocabulary of the sharded cache service.
//!
//! Every interaction between nodes — directory reads and writes, peer
//! cache reads, liveness, membership — is expressed as a [`CacheRpc`]
//! request answered by a [`CacheRpcReply`]. The request enum is the
//! entire node-facing API surface: nothing reaches another node's
//! manager or directory shard except through one of these messages
//! travelling over the [`crate::service::SimNet`].

use crate::service::DirectoryChange;
use crate::Fetch;
use icache_types::{ByteSize, JobId, NodeId, SampleId};

/// A directory mutation carried by [`CacheRpc::DirectoryUpdate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryOp {
    /// Register the sample as cached on `NodeId`.
    Insert(NodeId),
    /// Unregister the sample.
    Remove,
}

/// A request sent from one node (or a training client) to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRpc {
    /// Ask the receiver's directory shard which node caches `sample`.
    Lookup {
        /// Sample to resolve.
        sample: SampleId,
    },
    /// Fetch through the receiver's own manager (client → its co-located
    /// node; the only message that may touch backing storage).
    FetchLocal {
        /// Requesting job.
        job: JobId,
        /// Sample to fetch.
        sample: SampleId,
        /// Payload size of the sample.
        size: ByteSize,
    },
    /// Read a cached sample out of the receiver's memory for a peer.
    FetchRemote {
        /// Requesting job.
        job: JobId,
        /// Sample to read.
        sample: SampleId,
        /// Payload size of the sample.
        size: ByteSize,
    },
    /// Mutate the receiver's directory shard.
    DirectoryUpdate {
        /// Sample whose mapping changes.
        sample: SampleId,
        /// The mutation to apply.
        op: DirectoryOp,
    },
    /// Liveness beacon for the failure detector.
    Heartbeat {
        /// Sender's membership version (detects stale beacons).
        version: u64,
    },
    /// Announce (re)joining the cluster.
    Join {
        /// The joining node.
        node: NodeId,
        /// Whether the node intends a warm (index-driven) restart.
        warm: bool,
    },
}

impl CacheRpc {
    /// Short machine-readable name (used for per-kind message counters).
    pub fn name(&self) -> &'static str {
        match self {
            CacheRpc::Lookup { .. } => "lookup",
            CacheRpc::FetchLocal { .. } => "fetch_local",
            CacheRpc::FetchRemote { .. } => "fetch_remote",
            CacheRpc::DirectoryUpdate { .. } => "directory_update",
            CacheRpc::Heartbeat { .. } => "heartbeat",
            CacheRpc::Join { .. } => "join",
        }
    }

    /// Bytes this *request* puts on the wire. Control messages are
    /// metadata-sized and modelled as free; only data replies (the
    /// sample payload answering [`CacheRpc::FetchRemote`]) pay for
    /// bandwidth, which [`crate::service::SimNet::transfer`] charges
    /// separately.
    pub fn request_bytes(&self) -> ByteSize {
        ByteSize::ZERO
    }
}

/// The answer to a [`CacheRpc`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheRpcReply {
    /// Directory shard answer: the owner of the sample, if any.
    Owner(Option<NodeId>),
    /// A completed local fetch (timing included).
    Fetched(Fetch),
    /// The receiver holds the requested sample and will stream `bytes`
    /// over the interconnect.
    RemoteData {
        /// The sample being streamed.
        sample: SampleId,
        /// Payload size the transfer will carry.
        bytes: ByteSize,
    },
    /// Result of a directory mutation.
    Updated(DirectoryChange),
    /// The receiver does not hold the requested sample (or shard entry).
    NotFound,
    /// Plain acknowledgement (heartbeats, membership announcements).
    Ack,
    /// The receiver never answered: the sender's RPC timer expired.
    /// Synthesized by the service on behalf of crashed nodes.
    TimedOut,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_names_cover_the_vocabulary() {
        let reqs = [
            CacheRpc::Lookup {
                sample: SampleId(1),
            },
            CacheRpc::FetchLocal {
                job: JobId(0),
                sample: SampleId(1),
                size: ByteSize::kib(3),
            },
            CacheRpc::FetchRemote {
                job: JobId(0),
                sample: SampleId(1),
                size: ByteSize::kib(3),
            },
            CacheRpc::DirectoryUpdate {
                sample: SampleId(1),
                op: DirectoryOp::Insert(NodeId(0)),
            },
            CacheRpc::Heartbeat { version: 0 },
            CacheRpc::Join {
                node: NodeId(1),
                warm: true,
            },
        ];
        let names: Vec<_> = reqs.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec![
                "lookup",
                "fetch_local",
                "fetch_remote",
                "directory_update",
                "heartbeat",
                "join"
            ]
        );
        for r in &reqs {
            assert!(r.request_bytes().is_zero(), "requests are metadata-sized");
        }
    }
}
