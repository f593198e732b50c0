//! Canonical experiment scenarios (§V-A vocabulary).

use crate::{run_single_job, JobConfig, RunMetrics, SamplingMode};
use icache_baselines::{IlfuCache, LruCache, MinIoCache, OracleSource, QuiverCache};
use icache_core::{
    CacheService, CacheSystem, IcacheConfig, IcacheManager, RecoveryMode, ServiceConfig,
    Substitution,
};
use icache_dnn::ModelProfile;
use icache_sampling::ImportanceCriterion;
use icache_storage::{LocalTier, Nfs, NfsConfig, Pfs, PfsConfig, StorageBackend};
use icache_types::{Dataset, Epoch, JobId, NodeId, Result, SimDuration};

/// The cache/sampling systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// **Default**: PyTorch + user-level LRU cache, uniform sampling.
    Default,
    /// **Base**: LRU cache + computing-oriented IS (CIS).
    Base,
    /// **+IIS** (Fig. 10): LRU cache + I/O-oriented IS.
    IisLru,
    /// **Quiver**: substitutability for any sample, chunked reads.
    Quiver,
    /// **CoorDL**: the MinIO never-evict cache.
    CoorDl,
    /// **iLFU**: IIS + an LFU cache.
    Ilfu,
    /// **+HC** (Fig. 10): iCache with the L-cache disabled.
    IcacheNoL,
    /// **iCache** (All): the full system.
    Icache,
    /// iCache with substitution disabled (`Def` in Table III).
    IcacheNoSub,
    /// iCache substituting L-misses from the H-cache (`ST_HC`, Table III).
    IcacheSubH,
    /// **Oracle**: the whole dataset in local DRAM.
    Oracle,
}

impl SystemKind {
    /// Report label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Default => "Default",
            SystemKind::Base => "Base",
            SystemKind::IisLru => "+IIS",
            SystemKind::Quiver => "Quiver",
            SystemKind::CoorDl => "CoorDL",
            SystemKind::Ilfu => "iLFU",
            SystemKind::IcacheNoL => "+HC",
            SystemKind::Icache => "iCache",
            SystemKind::IcacheNoSub => "iCache-Def",
            SystemKind::IcacheSubH => "iCache-STHC",
            SystemKind::Oracle => "Oracle",
        }
    }

    /// The sampling mode this system trains with.
    pub fn sampling(self, iis_fraction: f64, cis_fraction: f64) -> SamplingMode {
        match self {
            SystemKind::Default | SystemKind::Quiver | SystemKind::CoorDl | SystemKind::Oracle => {
                SamplingMode::Uniform
            }
            SystemKind::Base => SamplingMode::Cis {
                fraction: cis_fraction,
            },
            SystemKind::IisLru
            | SystemKind::Ilfu
            | SystemKind::IcacheNoL
            | SystemKind::Icache
            | SystemKind::IcacheNoSub
            | SystemKind::IcacheSubH => SamplingMode::Iis {
                fraction: iis_fraction,
            },
        }
    }

    /// The six-system comparison of Figure 8.
    pub fn figure8_lineup() -> Vec<SystemKind> {
        vec![
            SystemKind::Default,
            SystemKind::Base,
            SystemKind::Quiver,
            SystemKind::CoorDl,
            SystemKind::Ilfu,
            SystemKind::Icache,
            SystemKind::Oracle,
        ]
    }
}

/// Which storage substrate backs the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageKind {
    /// The paper's OrangeFS deployment (4 servers, 64 KB stripes).
    OrangeFs,
    /// The cloud NFS server of the distributed experiments.
    Nfs,
    /// Local DRAM tmpfs (the Fig. 2 motivation case).
    Tmpfs,
    /// Local NVMe SSD.
    NvmeSsd,
}

impl StorageKind {
    /// Build the backend.
    ///
    /// # Errors
    ///
    /// Returns [`icache_types::Error::InvalidConfig`] if a preset is
    /// invalid (cannot happen for the built-in presets).
    pub fn build(self) -> Result<Box<dyn StorageBackend>> {
        Ok(match self {
            StorageKind::OrangeFs => Box::new(Pfs::new(PfsConfig::orangefs_default())?),
            StorageKind::Nfs => Box::new(Nfs::new(NfsConfig::cloud_default())?),
            StorageKind::Tmpfs => Box::new(LocalTier::tmpfs()),
            StorageKind::NvmeSsd => Box::new(LocalTier::nvme_ssd()),
        })
    }
}

/// A complete single-job experiment configuration with the paper's §V-A
/// defaults, built fluently and run with [`Scenario::run`].
///
/// # Examples
///
/// ```
/// use icache_sim::{Scenario, SystemKind};
///
/// let m = Scenario::cifar10(SystemKind::Default)
///     .scale_dataset(0.02)?
///     .epochs(2)
///     .run()?;
/// assert_eq!(m.system, "lru");
/// # Ok::<(), icache_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    system: SystemKind,
    storage: StorageKind,
    model: ModelProfile,
    dataset: Dataset,
    cache_fraction: f64,
    iis_fraction: f64,
    cis_fraction: f64,
    batch_size: usize,
    workers: usize,
    gpus: usize,
    epochs: u32,
    multi_job: bool,
    h_list_fraction: f64,
    criterion: ImportanceCriterion,
    seed: u64,
    prefetch_depth: usize,
}

impl Scenario {
    /// CIFAR-10 defaults: ResNet18, OrangeFS, 20 % cache, batch 256,
    /// 6 workers, 1 GPU, 5 epochs.
    pub fn cifar10(system: SystemKind) -> Scenario {
        Scenario {
            system,
            storage: StorageKind::OrangeFs,
            model: ModelProfile::resnet18(),
            dataset: Dataset::cifar10(),
            cache_fraction: 0.2,
            iis_fraction: 0.7,
            cis_fraction: 0.7,
            batch_size: 256,
            workers: 6,
            gpus: 1,
            epochs: 5,
            multi_job: false,
            h_list_fraction: 0.5,
            criterion: ImportanceCriterion::Loss,
            seed: 0x5EED,
            prefetch_depth: 0,
        }
    }

    /// ImageNet defaults: SqueezeNet on ImageNet-1K, otherwise as
    /// [`Scenario::cifar10`].
    pub fn imagenet(system: SystemKind) -> Scenario {
        let mut s = Scenario::cifar10(system);
        s.model = ModelProfile::squeezenet();
        s.dataset = Dataset::imagenet_1k();
        s
    }

    /// Swap the model.
    pub fn model(mut self, model: ModelProfile) -> Scenario {
        self.model = model;
        self
    }

    /// Swap the dataset outright.
    pub fn dataset(mut self, dataset: Dataset) -> Scenario {
        self.dataset = dataset;
        self
    }

    /// Scale the dataset down for affordable sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`icache_types::Error::InvalidConfig`] when `fraction` is
    /// not in `(0, 1]`.
    pub fn scale_dataset(mut self, fraction: f64) -> Result<Scenario> {
        self.dataset = self.dataset.scaled(fraction)?;
        Ok(self)
    }

    /// Set the cache size as a fraction of the dataset.
    pub fn cache_fraction(mut self, f: f64) -> Scenario {
        self.cache_fraction = f;
        self
    }

    /// Set the IIS per-epoch fetch fraction.
    pub fn iis_fraction(mut self, f: f64) -> Scenario {
        self.iis_fraction = f;
        self
    }

    /// Set the mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Scenario {
        self.batch_size = b;
        self
    }

    /// Set the number of data-loader workers.
    pub fn workers(mut self, w: usize) -> Scenario {
        self.workers = w;
        self
    }

    /// Set the number of data-parallel GPUs.
    pub fn gpus(mut self, g: usize) -> Scenario {
        self.gpus = g;
        self
    }

    /// Set the number of epochs.
    pub fn epochs(mut self, e: u32) -> Scenario {
        self.epochs = e;
        self
    }

    /// Select the storage substrate.
    pub fn storage(mut self, s: StorageKind) -> Scenario {
        self.storage = s;
        self
    }

    /// Enable iCache's multi-job module (benefit probing + AIV).
    pub fn multi_job(mut self, on: bool) -> Scenario {
        self.multi_job = on;
        self
    }

    /// Set the fraction of the dataset treated as H-samples (the H-list).
    pub fn h_list_fraction(mut self, f: f64) -> Scenario {
        self.h_list_fraction = f;
        self
    }

    /// Select the importance criterion (§VI extension).
    pub fn criterion(mut self, c: ImportanceCriterion) -> Scenario {
        self.criterion = c;
        self
    }

    /// Set the run seed.
    pub fn seed(mut self, s: u64) -> Scenario {
        self.seed = s;
        self
    }

    /// Set the clairvoyant prefetch lookahead depth (DESIGN.md §11).
    /// Depth 0 — the default — disables the prefetch pipeline and is
    /// byte-identical to the pre-prefetch simulator.
    pub fn prefetch_depth(mut self, depth: usize) -> Scenario {
        self.prefetch_depth = depth;
        self
    }

    /// The dataset this scenario trains on.
    pub fn dataset_ref(&self) -> &Dataset {
        &self.dataset
    }

    /// Build the cache system under test.
    ///
    /// # Errors
    ///
    /// Returns [`icache_types::Error::InvalidConfig`] for invalid cache
    /// fractions.
    pub fn build_cache(&self) -> Result<Box<dyn CacheSystem>> {
        let cap = self.dataset.total_bytes().scaled(self.cache_fraction);
        Ok(match self.system {
            SystemKind::Default | SystemKind::Base | SystemKind::IisLru => {
                Box::new(LruCache::new(cap))
            }
            SystemKind::Quiver => Box::new(QuiverCache::new(&self.dataset, cap, self.seed)?),
            SystemKind::CoorDl => Box::new(MinIoCache::new(cap)),
            SystemKind::Ilfu => Box::new(IlfuCache::new(cap)),
            SystemKind::Oracle => Box::new(OracleSource::new(self.dataset.total_bytes())),
            SystemKind::Icache
            | SystemKind::IcacheNoL
            | SystemKind::IcacheNoSub
            | SystemKind::IcacheSubH => {
                let mut cfg = IcacheConfig::for_dataset(&self.dataset, self.cache_fraction)?;
                cfg.seed = self.seed;
                cfg.multi_job = self.multi_job;
                match self.system {
                    SystemKind::IcacheNoL => cfg.enable_lcache = false,
                    SystemKind::IcacheNoSub => cfg.substitution = Substitution::None,
                    SystemKind::IcacheSubH => cfg.substitution = Substitution::FromH,
                    _ => {}
                }
                Box::new(IcacheManager::new(cfg, &self.dataset)?)
            }
        })
    }

    /// Build the storage backend.
    ///
    /// # Errors
    ///
    /// See [`StorageKind::build`].
    pub fn build_storage(&self) -> Result<Box<dyn StorageBackend>> {
        self.storage.build()
    }

    /// The job configuration this scenario runs.
    pub fn job_config(&self, job: JobId) -> JobConfig {
        let mut cfg = JobConfig::new(job, self.model.clone(), self.dataset.clone());
        cfg.batch_size = self.batch_size;
        cfg.workers = self.workers;
        cfg.gpus = self.gpus;
        cfg.epochs = self.epochs;
        cfg.sampling = self.system.sampling(self.iis_fraction, self.cis_fraction);
        cfg.h_list_fraction = self.h_list_fraction;
        cfg.criterion = self.criterion;
        cfg.seed = self.seed ^ (job.0 as u64).wrapping_mul(0x9E37_79B9);
        cfg.prefetch_depth = self.prefetch_depth;
        cfg
    }

    /// Run the scenario to completion.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from cache, storage, or job
    /// construction.
    pub fn run(&self) -> Result<RunMetrics> {
        let mut cache = self.build_cache()?;
        let mut storage = self.build_storage()?;
        run_single_job(self.job_config(JobId(0)), cache.as_mut(), storage.as_mut())
    }

    /// Run the scenario with an observability handle collecting metrics
    /// and structured trace events from every layer.
    ///
    /// The trace is deterministic: two runs of the same scenario with the
    /// same seed fill `obs` with byte-identical
    /// [`icache_obs::Obs::trace_jsonl`] output.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from cache, storage, or job
    /// construction.
    pub fn run_with_obs(&self, obs: &icache_obs::Obs) -> Result<RunMetrics> {
        let mut cache = self.build_cache()?;
        let mut storage = self.build_storage()?;
        crate::run_single_job_with_obs(
            self.job_config(JobId(0)),
            cache.as_mut(),
            storage.as_mut(),
            obs,
        )
    }

    /// Run the scenario on a static [`CacheService`] cluster of `nodes`
    /// data-parallel ranks (§III-E), one sharded job per node, all sharing
    /// the scenario seed so the shards walk one common epoch plan.
    ///
    /// Only [`SystemKind::Icache`] has a distributed deployment; other
    /// systems are rejected. Rank 0 emits the `epoch_start`/`epoch_end`
    /// trace markers, so a trace split on `epoch_start` yields exactly
    /// [`Scenario::epochs`] segments.
    ///
    /// # Errors
    ///
    /// Returns [`icache_types::Error::InvalidConfig`] when `nodes < 2` or
    /// the system under test is not `Icache`, and propagates construction
    /// errors from the cluster, storage, or jobs.
    pub fn run_distributed_with_obs(
        &self,
        nodes: u32,
        obs: &icache_obs::Obs,
    ) -> Result<Vec<RunMetrics>> {
        let configs = self.shard_jobs(nodes)?;
        let mut cluster = CacheService::new(
            ServiceConfig::for_dataset(&self.dataset, nodes as usize, self.cache_fraction)?,
            &self.dataset,
        )?;
        let mut storage = self.build_storage()?;
        crate::run_multi_job_with_obs(configs, &mut cluster, storage.as_mut(), obs)
    }

    /// One data-parallel job per rank of an iCache cluster of `nodes`
    /// nodes, each training its shard of a common epoch plan.
    fn shard_jobs(&self, nodes: u32) -> Result<Vec<JobConfig>> {
        if self.system != SystemKind::Icache {
            return Err(icache_types::Error::InvalidConfig {
                field: "system",
                reason: format!(
                    "distributed runs require the iCache system, got {:?}",
                    self.system
                ),
            });
        }
        if nodes < 2 {
            return Err(icache_types::Error::InvalidConfig {
                field: "nodes",
                reason: format!("a distributed run needs at least 2 nodes, got {nodes}"),
            });
        }
        Ok((0..nodes)
            .map(|k| {
                let mut cfg = self.job_config(JobId(k));
                cfg.shard = Some((k, nodes));
                // Shards share one epoch plan: same seed on every rank.
                cfg.seed = self.seed;
                cfg
            })
            .collect())
    }

    /// Like [`Scenario::run_distributed_with_obs`], but on the full
    /// [`CacheService`] with membership churn enabled: a heartbeat
    /// failure detector, directory repartitioning, and (optionally) a
    /// scheduled kill/rejoin of one node. Returns the service alongside
    /// the per-rank metrics so callers can assert on post-run cluster
    /// state (membership, directory ownership, recovery counters).
    ///
    /// # Errors
    ///
    /// Returns [`icache_types::Error::InvalidConfig`] when the system is
    /// not `Icache`, `nodes < 2`, or the churn spec names a node outside
    /// the cluster; propagates construction errors otherwise.
    pub fn run_distributed_churn_with_obs(
        &self,
        nodes: u32,
        churn: &ChurnSpec,
        obs: &icache_obs::Obs,
    ) -> Result<(Vec<RunMetrics>, CacheService)> {
        let configs = self.shard_jobs(nodes)?;
        let mut svc_cfg =
            ServiceConfig::for_dataset(&self.dataset, nodes as usize, self.cache_fraction)?
                .with_churn();
        svc_cfg.race_fetches = churn.race;
        if let Some(latency) = churn.net_latency {
            svc_cfg.control.latency = latency;
            svc_cfg.data.latency = latency;
        }
        if let Some(dir) = &churn.recovery_dir {
            svc_cfg.recovery = RecoveryMode::Dir(dir.clone());
        }
        let mut service = CacheService::new(svc_cfg, &self.dataset)?;
        if let Some((node, epoch)) = churn.kill {
            if node >= nodes {
                return Err(icache_types::Error::InvalidConfig {
                    field: "kill",
                    reason: format!("cannot kill node {node} in a {nodes}-node cluster"),
                });
            }
            service.schedule_kill(NodeId(node), epoch);
            if churn.rejoin {
                service.schedule_rejoin(NodeId(node), Epoch(epoch.0 + 1), churn.warm);
            }
        }
        let mut storage = self.build_storage()?;
        let metrics = crate::run_multi_job_with_obs(configs, &mut service, storage.as_mut(), obs)?;
        Ok((metrics, service))
    }
}

/// Membership-churn schedule for
/// [`Scenario::run_distributed_churn_with_obs`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnSpec {
    /// Crash this node mid-way through this epoch (the `--kill-node i@e`
    /// flag). `None` runs the churn machinery — heartbeats, detector,
    /// repartition-capable directory — with no actual failure.
    pub kill: Option<(u32, Epoch)>,
    /// Bring the killed node back at the start of the following epoch.
    pub rejoin: bool,
    /// Warm rejoin: replay the node's recovery index instead of
    /// restarting with an empty cache. Only meaningful with `rejoin`.
    pub warm: bool,
    /// Override both control- and data-plane link latency (the
    /// `--net-latency` flag); `None` keeps the static cluster's
    /// defaults (zero control latency, 80 µs data latency).
    pub net_latency: Option<SimDuration>,
    /// Race remote cache reads against a hedged local storage fetch.
    pub race: bool,
    /// Write recovery indexes as real files under this directory instead
    /// of the in-memory store.
    pub recovery_dir: Option<std::path::PathBuf>,
}

impl ChurnSpec {
    /// Kill `node` in `epoch` and rejoin it warm one epoch later — the
    /// canonical churn experiment.
    pub fn kill_and_rejoin(node: u32, epoch: u32) -> Self {
        ChurnSpec {
            kill: Some((node, Epoch(epoch))),
            rejoin: true,
            warm: true,
            ..ChurnSpec::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(system: SystemKind) -> Scenario {
        Scenario::cifar10(system)
            .scale_dataset(0.02)
            .unwrap()
            .epochs(3)
            .batch_size(64)
    }

    #[test]
    fn every_system_kind_builds_and_runs() {
        for kind in [
            SystemKind::Default,
            SystemKind::Base,
            SystemKind::IisLru,
            SystemKind::Quiver,
            SystemKind::CoorDl,
            SystemKind::Ilfu,
            SystemKind::IcacheNoL,
            SystemKind::Icache,
            SystemKind::IcacheNoSub,
            SystemKind::IcacheSubH,
            SystemKind::Oracle,
        ] {
            let m = quick(kind)
                .run()
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(m.epochs.len(), 3, "{kind:?}");
        }
    }

    #[test]
    fn icache_beats_default_on_remote_storage() {
        let default = quick(SystemKind::Default).run().unwrap();
        let icache = quick(SystemKind::Icache).run().unwrap();
        let speedup = default
            .avg_epoch_time_steady()
            .ratio(icache.avg_epoch_time_steady());
        assert!(speedup > 1.2, "speedup only {speedup:.2}x");
    }

    #[test]
    fn oracle_is_fastest() {
        let oracle = quick(SystemKind::Oracle).run().unwrap();
        let default = quick(SystemKind::Default).run().unwrap();
        assert!(oracle.avg_epoch_time() < default.avg_epoch_time());
        assert!(oracle.epochs.iter().all(|e| e.stall_time < e.wall_time));
    }

    #[test]
    fn iis_systems_fetch_less_than_uniform_systems() {
        let default = quick(SystemKind::Default).run().unwrap();
        let icache = quick(SystemKind::Icache).run().unwrap();
        assert!(
            icache.epochs[1].samples_fetched < default.epochs[1].samples_fetched,
            "IIS must fetch fewer samples"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SystemKind::Icache.label(), "iCache");
        assert_eq!(SystemKind::Default.label(), "Default");
        assert_eq!(SystemKind::figure8_lineup().len(), 7);
    }

    #[test]
    fn prefetch_depth_zero_matches_unpiped_run() {
        let base = quick(SystemKind::Icache).run().unwrap();
        let piped = quick(SystemKind::Icache).prefetch_depth(0).run().unwrap();
        assert_eq!(base, piped, "depth 0 must not perturb the simulation");
    }

    #[test]
    fn prefetch_reduces_stall_time() {
        // One loader worker so consumption follows plan order: the
        // lookahead window then slides cleanly (a multi-worker consumer
        // visits batch-strided positions and needs depth ≳ workers ×
        // batch_size before the window covers its working set).
        let demand = quick(SystemKind::Default).workers(1).run().unwrap();
        let piped = quick(SystemKind::Default)
            .workers(1)
            .prefetch_depth(8)
            .run()
            .unwrap();
        let stall = |m: &RunMetrics| m.epochs.iter().map(|e| e.stall_time).sum::<SimDuration>();
        assert!(
            stall(&piped) < stall(&demand),
            "lookahead 8 should hide stall: demand {} piped {}",
            stall(&demand),
            stall(&piped)
        );
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = quick(SystemKind::Icache).run().unwrap();
        let b = quick(SystemKind::Icache).run().unwrap();
        assert_eq!(a, b);
    }
}
