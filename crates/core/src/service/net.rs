//! A deterministic simulated interconnect.
//!
//! Messages travel over directed links with configurable latency and
//! bandwidth, queued FIFO per link and delivered strictly by simulated
//! time (`SimTime`); ties break on a global send sequence number, so
//! delivery order is a pure function of the send history. No wall
//! clocks anywhere — the determinism lint applies to this module.

use crate::service::CacheRpc;
use icache_obs::{Obs, Observable};
use icache_types::{ByteSize, NodeId, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Latency/bandwidth of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Transfer bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl LinkConfig {
    /// Time for `bytes` to traverse this link.
    pub fn transfer_time(&self, bytes: ByteSize) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes.as_f64() / self.bandwidth)
    }
}

/// A queued message: one [`CacheRpc`] in flight between two nodes.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// When the message entered the link queue.
    pub sent_at: SimTime,
    /// When the message reaches the receiver.
    pub deliver_at: SimTime,
    /// Global send sequence number (the deterministic tiebreak).
    pub seq: u64,
    /// The request being carried.
    pub rpc: CacheRpc,
}

/// The simulated network: per-link FIFO queues over the `SimTime` clock.
///
/// Two planes share the fabric. *Control* messages (directory traffic,
/// heartbeats, membership) are metadata-sized and ride the control link
/// profile; *data* transfers (peer cache reads) are charged the data
/// link profile via [`SimNet::transfer`]. Links are modelled as
/// uncontended: concurrent sends on one link overlap.
#[derive(Debug)]
pub struct SimNet {
    control: LinkConfig,
    data: LinkConfig,
    queues: BTreeMap<(u32, u32), VecDeque<Envelope>>,
    next_seq: u64,
    obs: Obs,
}

impl Observable for SimNet {
    fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }
}

impl SimNet {
    /// A fabric with the given control/data link profiles.
    pub fn new(control: LinkConfig, data: LinkConfig) -> Self {
        SimNet {
            control,
            data,
            queues: BTreeMap::new(),
            next_seq: 0,
            obs: Obs::noop(),
        }
    }

    /// Messages queued but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// Queue a control-plane request; returns its delivery time.
    pub fn send(&mut self, from: NodeId, to: NodeId, rpc: CacheRpc, now: SimTime) -> SimTime {
        let deliver_at = now + self.control.transfer_time(rpc.request_bytes());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.obs.inc("svc.net.sent");
        self.queues
            .entry((from.0, to.0))
            .or_default()
            .push_back(Envelope {
                from,
                to,
                sent_at: now,
                deliver_at,
                seq,
                rpc,
            });
        deliver_at
    }

    /// Send a control-plane request and deliver it in the same step:
    /// the synchronous request/reply path of the service (the caller
    /// blocks on the reply anyway, so the message never sits in a
    /// queue). Returns the delivery time. Counts as one sent and one
    /// delivered message. Metadata-sized and uncontended, so only the
    /// control latency is charged, whatever the endpoints and message.
    pub fn express(&mut self, from: NodeId, to: NodeId, rpc: CacheRpc, now: SimTime) -> SimTime {
        let _ = (from, to, rpc);
        let deliver_at = now + self.control.latency;
        self.next_seq += 1;
        self.obs.inc("svc.net.sent");
        self.obs.add("svc.net.delivered", 1);
        deliver_at
    }

    /// Charge a data-plane payload transfer on the `from → to` link and
    /// return its completion time. This is the peer-read path: latency
    /// plus `bytes / bandwidth` on the data link profile.
    pub fn transfer(&mut self, from: NodeId, to: NodeId, bytes: ByteSize, now: SimTime) -> SimTime {
        let _ = (from, to);
        let done = now + self.data.transfer_time(bytes);
        self.obs.inc("svc.net.transfers");
        self.obs.add("svc.net.bytes", bytes.as_u64());
        done
    }

    /// Deliver every queued message due by `now`, ordered by
    /// `(deliver_at, seq)` — a deterministic merge of the per-link FIFO
    /// queues.
    pub fn deliver_due(&mut self, now: SimTime) -> Vec<Envelope> {
        let mut due: Vec<Envelope> = Vec::new();
        for q in self.queues.values_mut() {
            while q.front().is_some_and(|e| e.deliver_at <= now) {
                if let Some(e) = q.pop_front() {
                    due.push(e);
                }
            }
        }
        due.sort_by_key(|e| (e.deliver_at, e.seq));
        self.obs.add("svc.net.delivered", due.len() as u64);
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_types::SampleId;

    fn net() -> SimNet {
        SimNet::new(
            LinkConfig {
                latency: SimDuration::from_micros(10),
                bandwidth: 1e9,
            },
            LinkConfig {
                latency: SimDuration::from_micros(80),
                bandwidth: 1.25e9,
            },
        )
    }

    #[test]
    fn control_sends_arrive_after_latency_in_fifo_order() {
        let mut n = net();
        let t0 = SimTime::ZERO;
        let a = n.send(NodeId(0), NodeId(1), CacheRpc::Heartbeat { version: 0 }, t0);
        let b = n.send(
            NodeId(0),
            NodeId(1),
            CacheRpc::Lookup {
                sample: SampleId(1),
            },
            t0,
        );
        assert_eq!(a, t0 + SimDuration::from_micros(10));
        assert_eq!(a, b, "uncontended links overlap");
        assert_eq!(n.in_flight(), 2);
        let due = n.deliver_due(a);
        assert_eq!(due.len(), 2);
        assert!(due[0].seq < due[1].seq, "FIFO by send sequence");
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn undelivered_messages_wait_for_their_time() {
        let mut n = net();
        let t = n.send(
            NodeId(1),
            NodeId(0),
            CacheRpc::Heartbeat { version: 1 },
            SimTime::ZERO,
        );
        assert!(n.deliver_due(SimTime::from_nanos(9_999)).is_empty());
        assert_eq!(n.deliver_due(t).len(), 1);
    }

    #[test]
    fn data_transfer_charges_latency_plus_bandwidth() {
        let mut n = net();
        let done = n.transfer(
            NodeId(1),
            NodeId(0),
            ByteSize::new(1_250_000),
            SimTime::ZERO,
        );
        // 80 µs latency + 1.25 MB / 1.25 GB/s = 80 µs + 1 ms.
        assert_eq!(
            done,
            SimTime::ZERO + SimDuration::from_micros(80) + SimDuration::from_millis(1)
        );
    }

    #[test]
    fn net_counters_flow_into_the_installed_obs() {
        let obs = Obs::new();
        let mut n = net().with_obs(obs.clone());
        n.send(
            NodeId(0),
            NodeId(1),
            CacheRpc::Heartbeat { version: 0 },
            SimTime::ZERO,
        );
        n.transfer(NodeId(0), NodeId(1), ByteSize::new(100), SimTime::ZERO);
        n.deliver_due(SimTime::ZERO + SimDuration::from_secs_f64(1.0));
        assert_eq!(obs.counter("svc.net.sent"), 1);
        assert_eq!(obs.counter("svc.net.delivered"), 1);
        assert_eq!(obs.counter("svc.net.transfers"), 1);
        assert_eq!(obs.counter("svc.net.bytes"), 100);
    }
}
