//! The sharded cache service: the cluster event loop.
//!
//! [`CacheService`] owns the nodes, the simulated network, the
//! membership table, and the recovery store, and drives every fetch as
//! a sequence of [`CacheRpc`] exchanges: local probe → directory shard
//! lookup → peer read or storage fall-through, with the directory kept
//! in sync through `DirectoryUpdate` messages. All timing flows from
//! the `SimTime` values the training loop passes in — the service holds
//! a high-water clock (`max` of every fetch time seen) to drive
//! heartbeats and suspicion deterministically.
//!
//! [`CacheService`] is the crate's one multi-node cache: `--nodes N`
//! runs, Fig. 13 and the churn experiments all build it from
//! [`ServiceConfig::for_dataset`] and drive it through [`CacheSystem`].

use crate::service::{
    CacheRpc, CacheRpcReply, DirectoryOp, HeartbeatConfig, LinkConfig, Membership, NodeHandle,
    Partitioner, RecoveryIndex, RecoveryMode, RecoveryStore, ServiceNode, SimNet,
};
use crate::{CacheStats, CacheSystem, Fetch, FetchOutcome, IcacheConfig, IcacheManager};
use icache_obs::{Obs, Observable, TraceEvent};
use icache_sampling::HList;
use icache_storage::StorageBackend;
use icache_types::{
    ByteSize, Dataset, Epoch, Error, JobId, NodeId, Result, SampleId, SimDuration, SimTime,
};
use std::collections::BTreeMap;

/// Local-disk read bandwidth charged when a warm restart replays its
/// recovery index, bytes/second.
const RECOVERY_BANDWIDTH: f64 = 2e9;

/// Configuration of the sharded cache service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of cache nodes.
    pub nodes: usize,
    /// Per-node cache configuration (each node's seed is offset by its
    /// index).
    pub node_config: IcacheConfig,
    /// Control-plane link profile (directory traffic, heartbeats).
    /// Metadata messages carry zero modelled bytes, so only the latency
    /// matters; it defaults to zero.
    pub control: LinkConfig,
    /// Data-plane link profile (peer cache reads): per-hop latency and
    /// interconnect bandwidth.
    pub data: LinkConfig,
    /// Failure-detector timing; `None` freezes membership (no
    /// heartbeats, no suspicion — the default).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Race remote reads against a hedged local storage fetch, first
    /// responder winning by sim-time (ties go to the peer).
    pub race_fetches: bool,
    /// Where recovery indexes are written (warm restarts).
    pub recovery: RecoveryMode,
    /// How often each live node snapshots its residency into the
    /// recovery store *between* epoch boundaries. Epoch-end-only
    /// snapshots (`None`) miss everything admitted since the last
    /// boundary — a node killed mid-epoch would restart from a view one
    /// full epoch stale.
    pub index_interval: Option<SimDuration>,
    /// Keep service-plane metrics (`svc.*`) and events out of the
    /// shared registry, so a static `--nodes N` run records exactly the
    /// cache-level `dist.*`/`cache.*` view. Churn runs turn it off.
    pub quiet_service_plane: bool,
}

impl ServiceConfig {
    /// A static cluster of `nodes` nodes, each caching
    /// `per_node_fraction` of `dataset` (the paper's distributed setup
    /// gives each node 20 %): zero-latency control plane, 80 µs peer
    /// hops over a 10 Gb/s interconnect, frozen membership, no racing,
    /// recovery disabled, quiet service plane. [`ServiceConfig::with_churn`]
    /// turns the churn machinery on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `nodes` is zero or the
    /// per-node config is invalid.
    pub fn for_dataset(dataset: &Dataset, nodes: usize, per_node_fraction: f64) -> Result<Self> {
        if nodes == 0 {
            return Err(Error::invalid_config("nodes", "must be at least 1"));
        }
        let bandwidth = 1.25e9;
        Ok(ServiceConfig {
            nodes,
            node_config: IcacheConfig::for_dataset(dataset, per_node_fraction)?,
            control: LinkConfig {
                latency: SimDuration::ZERO,
                bandwidth,
            },
            data: LinkConfig {
                latency: SimDuration::from_micros(80),
                bandwidth,
            },
            heartbeat: None,
            race_fetches: false,
            recovery: RecoveryMode::Disabled,
            index_interval: None,
            quiet_service_plane: true,
        })
    }

    /// Enable the churn machinery: default failure detector and an
    /// in-memory recovery store.
    pub fn with_churn(mut self) -> Self {
        self.heartbeat = Some(HeartbeatConfig::default());
        self.recovery = RecoveryMode::Memory;
        self.index_interval = Some(SimDuration::from_millis(50));
        self.quiet_service_plane = false;
        self
    }
}

/// A scheduled membership change, applied at cluster epoch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Crash `node` mid-epoch: after the cluster has served half as
    /// many fetches in `epoch` as it served in the previous epoch
    /// (immediately at the epoch start when there is no history).
    Kill {
        /// Node to crash.
        node: NodeId,
        /// Epoch in which the crash fires.
        epoch: Epoch,
    },
    /// Bring `node` back at the start of `epoch`.
    Rejoin {
        /// Node to revive.
        node: NodeId,
        /// Epoch whose start triggers the rejoin.
        epoch: Epoch,
        /// Warm restart (replay the recovery index) vs. cold (empty).
        warm: bool,
    },
}

/// The multi-node iCache as a message-passing service.
///
/// See the [module docs](crate::service::cluster) for the fetch path; the
/// public surface is [`CacheSystem`] (fetch/epoch hooks), the
/// [`CacheService::rpc_from`] message entry point, churn scheduling, and
/// read-only views ([`CacheService::node`], directory accessors).
#[derive(Debug)]
pub struct CacheService {
    config: ServiceConfig,
    dataset: Dataset,
    nodes: Vec<ServiceNode>,
    membership: Membership,
    partitioner: Partitioner,
    net: SimNet,
    recovery: RecoveryStore,
    pending_churn: Vec<ChurnEvent>,
    /// Armed mid-epoch kill: fires when the countdown reaches zero.
    kill_countdown: Option<(NodeId, u64)>,
    cluster_epoch: Option<Epoch>,
    prev_epoch_fetches: u64,
    epoch_fetches: u64,
    next_heartbeat: Vec<SimTime>,
    next_index_write: Vec<SimTime>,
    /// Latest importance view pushed per job. A rejoining node's fresh
    /// manager replays these before restoring residency — without the
    /// H-list, restored hot samples would be routed down the L path and
    /// never found.
    hlists: BTreeMap<JobId, HList>,
    /// High-water mark of every `now` the training loop has passed in;
    /// drives heartbeats and suspicion.
    clock: SimTime,
    remote_hits: u64,
    remote_bytes: ByteSize,
    /// Stats accumulated by managers that have since crashed. A crash
    /// loses cache *contents*, not measurement history — the training
    /// loop's per-epoch deltas must never go backwards.
    lost_stats: CacheStats,
    obs: Obs,
    svc_obs: Obs,
}

impl CacheService {
    /// Build the service for `dataset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `nodes` is zero or any
    /// per-node manager cannot be built.
    pub fn new(config: ServiceConfig, dataset: &Dataset) -> Result<Self> {
        if config.nodes == 0 {
            return Err(Error::invalid_config("nodes", "must be at least 1"));
        }
        let nodes = (0..config.nodes)
            .map(|i| {
                let mut c = config.node_config.clone();
                c.seed = c.seed.wrapping_add(i as u64);
                Ok(ServiceNode::new(
                    NodeId(i as u32),
                    IcacheManager::new(c, dataset)?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let membership = Membership::new(config.nodes, config.heartbeat.unwrap_or_default());
        let partitioner = Partitioner::new(membership.live(), 0);
        let net = SimNet::new(config.control, config.data);
        let recovery = RecoveryStore::new(&config.recovery);
        Ok(CacheService {
            nodes,
            membership,
            partitioner,
            net,
            recovery,
            pending_churn: Vec::new(),
            kill_countdown: None,
            cluster_epoch: None,
            prev_epoch_fetches: 0,
            epoch_fetches: 0,
            next_heartbeat: vec![SimTime::ZERO; config.nodes],
            next_index_write: vec![SimTime::ZERO; config.nodes],
            hlists: BTreeMap::new(),
            clock: SimTime::ZERO,
            remote_hits: 0,
            remote_bytes: ByteSize::ZERO,
            lost_stats: CacheStats::default(),
            obs: Obs::noop(),
            svc_obs: Obs::noop(),
            dataset: dataset.clone(),
            config,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of node slots (live or not).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read-only view of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range (node ids are dense `0..nodes`).
    pub fn node(&self, i: usize) -> NodeHandle<'_> {
        NodeHandle {
            node: &self.nodes[i],
            state: self.membership.state(NodeId(i as u32)),
        }
    }

    /// Peer-cache hits served so far.
    pub fn remote_hits(&self) -> u64 {
        self.remote_hits
    }

    /// Nodes not declared down, ascending.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.membership.live()
    }

    /// The directory shard responsible for `id` under the current
    /// partition map.
    pub fn shard_of(&self, id: SampleId) -> NodeId {
        self.partitioner.owner(id)
    }

    /// The partition-map version (bumps on every membership change).
    pub fn partition_version(&self) -> u64 {
        self.partitioner.version()
    }

    /// Total directory entries across every shard.
    pub fn directory_len(&self) -> usize {
        self.nodes.iter().map(|n| n.shard.len()).sum()
    }

    /// Every `(sample, owner)` mapping, sorted by sample (counter-free).
    pub fn directory_entries(&self) -> Vec<(SampleId, NodeId)> {
        let mut all: Vec<(SampleId, NodeId)> =
            self.nodes.iter().flat_map(|n| n.shard.entries()).collect();
        all.sort_unstable_by_key(|(s, _)| *s);
        all
    }

    /// The node caching `id`, if any — a counted directory read routed
    /// to the responsible shard, exactly like the fetch path's lookup.
    pub fn directory_lookup(&self, id: SampleId) -> Option<NodeId> {
        let shard = self.partitioner.owner(id);
        self.nodes[shard.0 as usize].shard.lookup(id)
    }

    /// Schedule a mid-epoch crash of `node` during `epoch`.
    pub fn schedule_kill(&mut self, node: NodeId, epoch: Epoch) {
        self.pending_churn.push(ChurnEvent::Kill { node, epoch });
    }

    /// Schedule `node` to rejoin at the start of `epoch`.
    pub fn schedule_rejoin(&mut self, node: NodeId, epoch: Epoch, warm: bool) {
        self.pending_churn
            .push(ChurnEvent::Rejoin { node, epoch, warm });
    }

    /// Crash `node` now: its cache contents and in-memory stats are
    /// lost, it stops beaconing and answering messages. With a failure
    /// detector configured the cluster discovers the silence through
    /// suspicion; with static membership the node is declared down (and
    /// the directory repartitioned) immediately.
    pub fn kill_node(&mut self, node: NodeId, now: SimTime) {
        let i = node.0 as usize;
        if self.nodes[i].crashed {
            return;
        }
        self.clock = self.clock.max(now);
        self.retire_manager(i);
        self.svc_obs.inc("svc.kills");
        if self.config.heartbeat.is_some() {
            self.membership.crash(node);
        } else if self.membership.leave(node) {
            self.repartition();
        }
    }

    /// Drop node `i`'s manager, folding its accumulated stats into the
    /// cluster tally first (measurements survive the process).
    fn retire_manager(&mut self, i: usize) {
        if let Some(m) = self.nodes[i].manager.take() {
            absorb(&mut self.lost_stats, &m.stats());
        }
        self.nodes[i].crashed = true;
    }

    /// Revive `node` with a fresh manager; `warm` replays the recovery
    /// index (when one exists) instead of restarting empty.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the replacement manager
    /// cannot be built (the node then stays down).
    pub fn rejoin_node(&mut self, node: NodeId, now: SimTime, warm: bool) -> Result<()> {
        let i = node.0 as usize;
        if self.nodes[i].is_up() {
            return Ok(());
        }
        self.clock = self.clock.max(now);
        let mut c = self.config.node_config.clone();
        c.seed = c.seed.wrapping_add(i as u64);
        let mut manager = IcacheManager::new(c, &self.dataset)?;
        CacheSystem::set_obs(&mut manager, self.obs.clone());
        // Pull the current importance view from the coordinator: the
        // crash dropped every H-list push the node missed, and without
        // them the fresh manager would route all hot samples down the L
        // path until the next epoch-end broadcast.
        for (job, hlist) in &self.hlists {
            manager.update_hlist(*job, hlist);
        }
        let to = NodeId(((i + 1) % self.nodes.len()) as u32);
        self.net
            .express(node, to, CacheRpc::Join { node, warm }, self.clock);
        self.nodes[i].manager = Some(manager);
        self.nodes[i].crashed = false;
        self.next_heartbeat[i] = self.clock;
        self.next_index_write[i] = self.clock;
        self.svc_obs.inc("svc.rejoins");
        if self.membership.rejoin(node, self.clock) {
            self.repartition();
        }
        if warm {
            self.warm_restore(node);
        } else {
            self.svc_obs.inc("svc.recovery.cold_restarts");
        }
        Ok(())
    }

    /// The message-passing entry point: deliver one request from
    /// `from` to `to` over the simulated network and return the reply
    /// with the sim-time at which the sender holds it. Crashed
    /// receivers never answer; the sender gets
    /// [`CacheRpcReply::TimedOut`] after its RPC timer expires.
    pub fn rpc_from(
        &mut self,
        from: NodeId,
        to: NodeId,
        rpc: CacheRpc,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> (CacheRpcReply, SimTime) {
        self.clock = self.clock.max(now);
        if self.nodes[to.0 as usize].crashed {
            self.svc_obs.inc("svc.rpc_timeouts");
            return (CacheRpcReply::TimedOut, now + self.rpc_timeout());
        }
        let delivered = self.net.express(from, to, rpc, now);
        let reply = self.nodes[to.0 as usize].handle(rpc, delivered, storage);
        (reply, delivered + self.config.control.latency)
    }

    fn rpc_timeout(&self) -> SimDuration {
        self.config
            .heartbeat
            .map(|h| h.rpc_timeout)
            .unwrap_or(SimDuration::ZERO)
    }

    fn node_of(&self, job: JobId) -> usize {
        job.0 as usize % self.nodes.len()
    }

    /// Route a fetch through the requesting node's own manager and keep
    /// the directory's residency view in sync.
    fn local_fetch(
        &mut self,
        local: usize,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        let me = NodeId(local as u32);
        let reply = self.nodes[local].handle(
            CacheRpc::FetchLocal {
                job,
                sample: id,
                size,
            },
            now,
            storage,
        );
        let fetch = match reply {
            CacheRpcReply::Fetched(f) => f,
            // Crashed home node: the client reads storage directly and
            // caches nothing.
            _ => {
                self.svc_obs.inc("svc.dead_node_fetches");
                Fetch {
                    ready_at: storage.read_sample(id, size, now),
                    served_id: id,
                    outcome: FetchOutcome::Miss,
                }
            }
        };
        // Register fresh residency; unregister when the sample is served
        // from storage but was not admitted anywhere.
        if self.nodes[local].contains_cached(id) {
            let (_, _) = self.shard_rpc(
                me,
                CacheRpc::DirectoryUpdate {
                    sample: id,
                    op: DirectoryOp::Insert(me),
                },
                now,
                storage,
            );
        } else {
            let (owner, t) = self.shard_rpc(me, CacheRpc::Lookup { sample: id }, now, storage);
            if owner == CacheRpcReply::Owner(Some(me)) {
                let (_, _) = self.shard_rpc(
                    me,
                    CacheRpc::DirectoryUpdate {
                        sample: id,
                        op: DirectoryOp::Remove,
                    },
                    t,
                    storage,
                );
            }
        }
        fetch
    }

    /// Send a directory message to the shard responsible for its sample.
    fn shard_rpc(
        &mut self,
        from: NodeId,
        rpc: CacheRpc,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> (CacheRpcReply, SimTime) {
        let sample = match rpc {
            CacheRpc::Lookup { sample } | CacheRpc::DirectoryUpdate { sample, .. } => sample,
            _ => return (CacheRpcReply::NotFound, now),
        };
        let shard = self.partitioner.owner(sample);
        self.rpc_from(from, shard, rpc, now, storage)
    }

    fn serve_remote(
        &mut self,
        local: usize,
        owner: NodeId,
        job: JobId,
        id: SampleId,
        bytes: ByteSize,
        now: SimTime,
    ) -> Fetch {
        let ready_at = self.net.transfer(owner, NodeId(local as u32), bytes, now);
        self.remote_hits += 1;
        self.remote_bytes += bytes;
        self.obs.inc(&self.nodes[local].keys.remote_hits);
        self.obs.inc("dist.remote_hits");
        self.obs.emit(TraceEvent::RemoteHit {
            job: job.0 as u64,
            sample: id.0,
            node: owner.0 as u64,
        });
        Fetch {
            ready_at,
            served_id: id,
            outcome: FetchOutcome::HitH,
        }
    }

    fn storage_fetch(
        &mut self,
        local: usize,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        self.obs.inc(&self.nodes[local].keys.storage_fetches);
        self.local_fetch(local, job, id, size, now, storage)
    }

    /// Fire an armed mid-epoch kill when its fetch countdown expires.
    fn poll_kill_countdown(&mut self) {
        if let Some((node, left)) = self.kill_countdown {
            if left == 0 {
                self.kill_countdown = None;
                let at = self.clock;
                self.kill_node(node, at);
            } else {
                self.kill_countdown = Some((node, left - 1));
            }
        }
    }

    /// Beacon due heartbeats around the gossip ring, deliver what is
    /// due, and age the suspicion table. Only runs with a detector
    /// configured.
    fn run_failure_detector(&mut self, storage: &mut dyn StorageBackend) {
        let Some(hb) = self.config.heartbeat else {
            return;
        };
        let n = self.nodes.len();
        if n > 1 {
            for i in 0..n {
                if self.nodes[i].crashed {
                    continue;
                }
                while self.next_heartbeat[i] <= self.clock {
                    let at = self.next_heartbeat[i];
                    let to = NodeId(((i + 1) % n) as u32);
                    self.net.send(
                        NodeId(i as u32),
                        to,
                        CacheRpc::Heartbeat {
                            version: self.membership.version(),
                        },
                        at,
                    );
                    self.svc_obs.inc("svc.heartbeats_sent");
                    self.next_heartbeat[i] = at + hb.interval;
                }
            }
            for env in self.net.deliver_due(self.clock) {
                let receiver = env.to.0 as usize;
                if self.nodes[receiver].crashed {
                    // Beacons addressed to a dead node are lost; the
                    // sender is still provably alive, so the shared
                    // table hears it anyway (the ring re-routes).
                    self.membership.note_heard(env.from, env.deliver_at);
                    continue;
                }
                let _ = self.nodes[receiver].handle(env.rpc, env.deliver_at, storage);
                self.membership.note_heard(env.from, env.deliver_at);
            }
        }
        if !self.membership.advance(self.clock).is_empty() {
            self.repartition();
        }
    }

    /// Rebuild the partition map over the live set, move every shard
    /// entry to its new home (tracing `directory_remap` per move), and
    /// purge residency entries whose owner is down (counted as
    /// directory removes, preserving `len == inserts − removes`).
    fn repartition(&mut self) {
        let live = self.membership.live();
        let version = self.membership.version();
        self.partitioner = Partitioner::new(live.clone(), version);
        let mut all: Vec<(SampleId, NodeId, NodeId)> = Vec::new();
        for node in &mut self.nodes {
            let old_shard = node.id;
            for (s, owner) in node.shard.take_map() {
                all.push((s, owner, old_shard));
            }
        }
        all.sort_unstable_by_key(|&(s, _, _)| s);
        let mut purged = 0u64;
        let mut moved = 0u64;
        for (s, owner, old_shard) in all {
            if !self.membership.is_live(owner) {
                purged += 1;
                continue;
            }
            let new_shard = self.partitioner.owner(s);
            self.nodes[new_shard.0 as usize].shard.adopt(s, owner);
            if new_shard != old_shard {
                moved += 1;
                self.svc_obs.emit(TraceEvent::DirectoryRemap {
                    sample: s.0,
                    from_node: old_shard.0 as u64,
                    to_node: new_shard.0 as u64,
                });
            }
        }
        if purged > 0 {
            self.obs.add("dist.directory.removes", purged);
        }
        self.svc_obs.add("svc.repartition.moved", moved);
        self.svc_obs.add("svc.repartition.purged", purged);
        self.svc_obs.emit(TraceEvent::PartitionUpdate {
            version,
            live: live.len() as u64,
            moved,
            purged,
        });
    }

    /// Replay the node's recovery index against its fresh manager,
    /// skipping samples another live node owns by now (no duplication).
    fn warm_restore(&mut self, node: NodeId) {
        let Some(index) = self.recovery.load(node) else {
            self.svc_obs.inc("svc.recovery.cold_restarts");
            return;
        };
        let i = node.0 as usize;
        let mut keep = Vec::new();
        let mut skipped = 0u64;
        for e in &index.entries {
            let shard = self.partitioner.owner(e.id);
            match self.nodes[shard.0 as usize].shard.peek(e.id) {
                Some(owner) if owner != node => skipped += 1,
                _ => keep.push(*e),
            }
        }
        let bytes: ByteSize = keep.iter().map(|e| e.size).sum();
        let ready_at = self.clock + SimDuration::from_secs_f64(bytes.as_f64() / RECOVERY_BANDWIDTH);
        let Some(manager) = self.nodes[i].manager.as_mut() else {
            return;
        };
        let (restored, h, l) = manager.restore_residency(&keep, ready_at);
        for id in &restored {
            let shard = self.partitioner.owner(*id);
            self.nodes[shard.0 as usize].shard.insert(*id, node);
        }
        self.svc_obs.inc("svc.recovery.warm_restarts");
        self.svc_obs.add("svc.recovery.restored_samples", h + l);
        self.svc_obs.add("svc.recovery.skipped", skipped);
        self.svc_obs.add("svc.recovery.bytes", bytes.as_u64());
        self.svc_obs.emit(TraceEvent::WarmRecovery {
            node: node.0 as u64,
            restored_h: h,
            restored_l: l,
            skipped,
        });
    }

    /// Write the node's residency snapshot into the recovery store.
    fn write_recovery_index(&mut self, i: usize, epoch: Epoch) {
        if !self.recovery.enabled() {
            return;
        }
        let Some(manager) = self.nodes[i].manager.as_ref() else {
            return;
        };
        let index = RecoveryIndex {
            node: NodeId(i as u32),
            epoch,
            entries: manager.residency_snapshot(),
        };
        if self.recovery.save(&index).is_ok() {
            self.svc_obs.inc("svc.recovery.index_writes");
        }
    }

    /// Snapshot live nodes' residency on the periodic cadence, so a
    /// mid-epoch crash restarts from a view at most one interval stale
    /// rather than one full epoch.
    fn poll_index_writes(&mut self) {
        let Some(interval) = self.config.index_interval else {
            return;
        };
        let epoch = self.cluster_epoch.unwrap_or(Epoch(0));
        for i in 0..self.nodes.len() {
            if self.nodes[i].is_up() && self.next_index_write[i] <= self.clock {
                self.write_recovery_index(i, epoch);
                self.next_index_write[i] = self.clock + interval;
            }
        }
    }

    /// Apply scheduled churn for the cluster epoch that just began.
    fn on_cluster_epoch(&mut self, epoch: Epoch) {
        self.prev_epoch_fetches = self.epoch_fetches;
        self.epoch_fetches = 0;
        let due: Vec<ChurnEvent> = self
            .pending_churn
            .iter()
            .copied()
            .filter(|e| match e {
                ChurnEvent::Kill { epoch: e2, .. } | ChurnEvent::Rejoin { epoch: e2, .. } => {
                    *e2 == epoch
                }
            })
            .collect();
        self.pending_churn.retain(|e| match e {
            ChurnEvent::Kill { epoch: e2, .. } | ChurnEvent::Rejoin { epoch: e2, .. } => {
                *e2 != epoch
            }
        });
        for ev in due {
            match ev {
                ChurnEvent::Kill { node, .. } => {
                    let countdown = self.prev_epoch_fetches / 2;
                    if countdown == 0 {
                        let at = self.clock;
                        self.kill_node(node, at);
                    } else {
                        self.kill_countdown = Some((node, countdown));
                    }
                }
                ChurnEvent::Rejoin { node, warm, .. } => {
                    if self.rejoin_node(node, self.clock, warm).is_err() {
                        self.svc_obs.inc("svc.rejoin_failures");
                    }
                }
            }
        }
    }
}

impl Observable for CacheService {
    fn set_obs(&mut self, obs: Obs) {
        // One shared handle across every layer of the cluster: node
        // managers, the directory shards, and the cluster-level
        // counters all record into the same registry and trace ring.
        for node in &mut self.nodes {
            if let Some(m) = node.manager.as_mut() {
                CacheSystem::set_obs(m, obs.clone());
            }
            node.shard.set_obs(obs.clone());
        }
        obs.set_gauge("dist.nodes", self.nodes.len() as f64);
        self.obs = obs.clone();
        // The service plane (net, membership, recovery, churn) records
        // separately so static runs can keep it out of the registry.
        let svc = if self.config.quiet_service_plane {
            Obs::noop()
        } else {
            obs
        };
        self.net.set_obs(svc.clone());
        self.membership.set_obs(svc.clone());
        self.svc_obs = svc;
    }
}

impl CacheSystem for CacheService {
    fn name(&self) -> &str {
        "icache-distributed"
    }

    fn fetch(
        &mut self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        self.clock = self.clock.max(now);
        self.poll_kill_countdown();
        self.run_failure_detector(storage);
        self.poll_index_writes();
        self.epoch_fetches += 1;

        let local = self.node_of(job);
        let me = NodeId(local as u32);
        if self.nodes[local].is_up() && self.nodes[local].contains_cached(id) {
            self.obs.inc(&self.nodes[local].keys.local_hits);
            return self.local_fetch(local, job, id, size, now, storage);
        }
        let (lookup, t_dir) = self.shard_rpc(me, CacheRpc::Lookup { sample: id }, now, storage);
        let owner = match lookup {
            CacheRpcReply::Owner(o) => o,
            // Shard host crashed and not yet repartitioned away: the
            // lookup timed out and the client treats it as a miss.
            _ => None,
        };
        if let Some(owner_id) = owner {
            if owner_id != me {
                let (reply, t_remote) = self.rpc_from(
                    me,
                    owner_id,
                    CacheRpc::FetchRemote {
                        job,
                        sample: id,
                        size,
                    },
                    t_dir,
                    storage,
                );
                if let CacheRpcReply::RemoteData { bytes, .. } = reply {
                    if self.config.race_fetches {
                        // Hedge: issue the local storage fetch too and let
                        // the first responder win (ties go to the peer).
                        let hedged = self.local_fetch(local, job, id, size, t_remote, storage);
                        let remote_ready = t_remote + self.config.data.transfer_time(bytes);
                        if remote_ready <= hedged.ready_at {
                            self.svc_obs.inc("svc.race.remote_wins");
                            return self.serve_remote(local, owner_id, job, id, bytes, t_remote);
                        }
                        self.svc_obs.inc("svc.race.storage_wins");
                        self.obs.inc(&self.nodes[local].keys.storage_fetches);
                        return hedged;
                    }
                    return self.serve_remote(local, owner_id, job, id, bytes, t_dir);
                }
                // Owner unreachable (timed out) or no longer holds the
                // sample: fall through to storage from where the
                // exchange left off.
                return self.storage_fetch(local, job, id, size, t_remote, storage);
            }
        }
        self.storage_fetch(local, job, id, size, t_dir, storage)
    }

    fn update_hlist(&mut self, job: JobId, hlist: &HList) {
        // Every live node needs the importance view to manage its
        // regions; crashed nodes miss the broadcast and catch up from
        // the retained copy when they rejoin.
        self.hlists.insert(job, hlist.clone());
        for node in &mut self.nodes {
            if let Some(m) = node.manager.as_mut() {
                m.update_hlist(job, hlist);
            }
        }
    }

    fn on_epoch_start(&mut self, job: JobId, epoch: Epoch) {
        if self.cluster_epoch.is_none_or(|e| epoch > e) {
            self.cluster_epoch = Some(epoch);
            self.on_cluster_epoch(epoch);
        }
        let i = self.node_of(job);
        if let Some(m) = self.nodes[i].manager.as_mut() {
            m.on_epoch_start(job, epoch);
        }
    }

    fn on_epoch_end(&mut self, job: JobId, epoch: Epoch) {
        let i = self.node_of(job);
        if let Some(m) = self.nodes[i].manager.as_mut() {
            m.on_epoch_end(job, epoch);
            self.write_recovery_index(i, epoch);
        }
    }

    fn stats(&self) -> CacheStats {
        let mut total = self.lost_stats;
        for n in &self.nodes {
            let Some(m) = n.manager.as_ref() else {
                continue;
            };
            absorb(&mut total, &m.stats());
        }
        // Peer hits are cache hits of the cluster.
        total.h_hits += self.remote_hits;
        total.bytes_from_cache += self.remote_bytes;
        total
    }

    fn set_obs(&mut self, obs: Obs) {
        Observable::set_obs(self, obs);
    }

    fn reset_stats(&mut self) {
        for n in &mut self.nodes {
            if let Some(m) = n.manager.as_mut() {
                m.reset_stats();
            }
        }
        self.lost_stats = CacheStats::default();
        self.remote_hits = 0;
        self.remote_bytes = ByteSize::ZERO;
    }

    fn used_bytes(&self) -> ByteSize {
        self.nodes
            .iter()
            .filter_map(|n| n.manager.as_ref())
            .map(|m| m.used_bytes())
            .sum()
    }

    fn capacity(&self) -> ByteSize {
        self.nodes
            .iter()
            .filter_map(|n| n.manager.as_ref())
            .map(|m| m.capacity())
            .sum()
    }
}

/// Field-wise accumulate `s` into `total`.
fn absorb(total: &mut CacheStats, s: &CacheStats) {
    total.h_hits += s.h_hits;
    total.l_hits += s.l_hits;
    total.pm_hits += s.pm_hits;
    total.substitutions += s.substitutions;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.rejections += s.rejections;
    total.bytes_from_cache += s.bytes_from_cache;
    total.bytes_from_storage += s.bytes_from_storage;
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_sampling::ImportanceTable;
    use icache_storage::{Nfs, NfsConfig};
    use icache_types::{DatasetBuilder, SizeModel};

    fn dataset() -> Dataset {
        DatasetBuilder::new("d", 1_000)
            .size_model(SizeModel::Fixed(ByteSize::kib(3)))
            .build()
            .unwrap()
    }

    fn cluster(ds: &Dataset, nodes: usize) -> CacheService {
        CacheService::new(ServiceConfig::for_dataset(ds, nodes, 0.2).unwrap(), ds).unwrap()
    }

    fn hlist(ds: &Dataset) -> HList {
        let mut t = ImportanceTable::new(ds.len());
        for i in 0..200 {
            t.record_loss(SampleId(i), 10.0);
        }
        HList::top_fraction(&t, 0.2)
    }

    /// A two-node cluster with both jobs' H-lists pushed.
    fn two_nodes(ds: &Dataset) -> CacheService {
        let mut svc = cluster(ds, 2);
        svc.update_hlist(JobId(0), &hlist(ds));
        svc.update_hlist(JobId(1), &hlist(ds));
        svc
    }

    #[test]
    fn peer_cache_serves_without_duplication() {
        let ds = dataset();
        let mut svc = two_nodes(&ds);
        let mut st = Nfs::new(NfsConfig::cloud_default()).unwrap();

        // Job 0 (node 0) faults sample 5 in from storage.
        let sz = ds.sample_size(SampleId(5));
        let f0 = svc.fetch(JobId(0), SampleId(5), sz, SimTime::ZERO, &mut st);
        assert_eq!(f0.outcome, FetchOutcome::Miss);
        assert_eq!(svc.directory_lookup(SampleId(5)), Some(NodeId(0)));
        assert_eq!(svc.remote_hits(), 0);

        // Job 1 (node 1) now reads it from node 0, not storage, and does
        // not cache a second copy.
        let before = st.stats().sample_reads;
        let f1 = svc.fetch(JobId(1), SampleId(5), sz, f0.ready_at, &mut st);
        assert!(f1.outcome.served_from_cache());
        assert_eq!(st.stats().sample_reads, before, "no storage read");
        assert_eq!(svc.remote_hits(), 1);
        assert_eq!(svc.directory_lookup(SampleId(5)), Some(NodeId(0)));
        assert!(!svc.node(1).contains_cached(SampleId(5)));
    }

    #[test]
    fn remote_read_is_slower_than_local_but_faster_than_storage() {
        let ds = dataset();
        let mut svc = two_nodes(&ds);
        let mut st = Nfs::new(NfsConfig::cloud_default()).unwrap();
        let sz = ds.sample_size(SampleId(7));

        let miss = svc.fetch(JobId(0), SampleId(7), sz, SimTime::ZERO, &mut st);
        let t_storage = miss.ready_at.saturating_since(SimTime::ZERO);

        let local = svc.fetch(JobId(0), SampleId(7), sz, miss.ready_at, &mut st);
        let t_local = local.ready_at.saturating_since(miss.ready_at);

        let remote = svc.fetch(JobId(1), SampleId(7), sz, local.ready_at, &mut st);
        let t_remote = remote.ready_at.saturating_since(local.ready_at);

        assert!(t_local < t_remote, "local {t_local} vs remote {t_remote}");
        assert!(
            t_remote < t_storage,
            "remote {t_remote} vs storage {t_storage}"
        );
    }

    #[test]
    fn jobs_map_to_nodes_round_robin() {
        let ds = dataset();
        let svc = cluster(&ds, 4);
        assert_eq!(svc.node_of(JobId(0)), 0);
        assert_eq!(svc.node_of(JobId(5)), 1);
        assert_eq!(svc.node_count(), 4);
    }

    #[test]
    fn cluster_capacity_sums_nodes() {
        let ds = dataset();
        let svc = cluster(&ds, 4);
        assert_eq!(svc.capacity(), ds.total_bytes().scaled(0.2) * 4);
    }

    #[test]
    fn zero_nodes_rejected() {
        let ds = dataset();
        assert!(ServiceConfig::for_dataset(&ds, 0, 0.2).is_err());
        let mut cfg = ServiceConfig::for_dataset(&ds, 1, 0.2).unwrap();
        cfg.nodes = 0;
        assert!(CacheService::new(cfg, &ds).is_err());
    }

    #[test]
    fn per_node_counters_classify_every_fetch() {
        let ds = dataset();
        let mut svc = two_nodes(&ds);
        let obs = Obs::new();
        Observable::set_obs(&mut svc, obs.clone());
        let mut st = Nfs::new(NfsConfig::cloud_default()).unwrap();
        let sz = ds.sample_size(SampleId(5));

        // Node 0 faults sample 5 in (storage), re-reads it (local hit),
        // then node 1 reads it over the interconnect (remote hit).
        let f0 = svc.fetch(JobId(0), SampleId(5), sz, SimTime::ZERO, &mut st);
        let f1 = svc.fetch(JobId(0), SampleId(5), sz, f0.ready_at, &mut st);
        let _ = svc.fetch(JobId(1), SampleId(5), sz, f1.ready_at, &mut st);

        assert_eq!(obs.counter("dist.node0.storage_fetches"), 1);
        assert_eq!(obs.counter("dist.node0.local_hits"), 1);
        assert_eq!(obs.counter("dist.node1.remote_hits"), 1);
        assert_eq!(obs.counter("dist.remote_hits"), svc.remote_hits());
        assert_eq!(obs.gauge("dist.nodes"), Some(2.0));
        let counts: std::collections::HashMap<String, u64> =
            obs.trace_event_counts().into_iter().collect();
        assert_eq!(counts.get("remote_hit"), Some(&1));

        // The static cluster keeps the service plane silent: no svc.*
        // counters leak into the shared registry.
        assert_eq!(obs.counter("svc.net.sent"), 0);
        assert_eq!(obs.counter("svc.heartbeats_sent"), 0);
    }

    #[test]
    fn stats_aggregate_across_nodes_and_remote_hits() {
        let ds = dataset();
        let mut svc = two_nodes(&ds);
        let mut st = Nfs::new(NfsConfig::cloud_default()).unwrap();
        let sz = ds.sample_size(SampleId(1));
        let f = svc.fetch(JobId(0), SampleId(1), sz, SimTime::ZERO, &mut st);
        let _ = svc.fetch(JobId(1), SampleId(1), sz, f.ready_at, &mut st);
        let s = svc.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.h_hits, 1, "remote hit counted");
        svc.reset_stats();
        assert_eq!(svc.stats().requests(), 0);
        assert_eq!(svc.remote_hits(), 0);
    }
}
