//! One training job over simulated time.

use crate::{EpochMetrics, RunMetrics};
use icache_core::{CacheSystem, FetchOutcome, PlannedAccess, PrefetchPipeline};
use icache_dnn::{AccuracyModel, EpochQuality, LossModel, LossModelConfig, ModelProfile};
use icache_obs::{Obs, Observable, TraceEvent};
use icache_sampling::{
    CisSelector, CriterionTable, EpochPlan, HList, IisSelector, ImportanceCriterion,
    ImportanceTable, Selector, UniformSelector,
};
use icache_storage::StorageBackend;
use icache_types::{
    Dataset, Epoch, Error, IdSet, JobId, LatencyHistogram, Result, SimDuration, SimTime,
};
use rand::rngs::StdRng;

/// How the job selects samples each epoch (§II-B/§III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingMode {
    /// Conventional training: fetch and compute everything, shuffled.
    Uniform,
    /// Computing-oriented IS: fetch everything, compute a weighted subset.
    Cis {
        /// Fraction of samples computed per epoch.
        fraction: f64,
    },
    /// I/O-oriented IS (the paper's IIS): fetch and compute a weighted
    /// subset chosen before the epoch.
    Iis {
        /// Fraction of samples fetched (and computed) per epoch.
        fraction: f64,
    },
}

impl SamplingMode {
    fn build_selector(self) -> Result<Box<dyn Selector>> {
        Ok(match self {
            SamplingMode::Uniform => Box::new(UniformSelector::new()),
            SamplingMode::Cis { fraction } => Box::new(CisSelector::new(fraction)?),
            SamplingMode::Iis { fraction } => Box::new(IisSelector::new(fraction)?),
        })
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SamplingMode::Uniform => "uniform",
            SamplingMode::Cis { .. } => "cis",
            SamplingMode::Iis { .. } => "iis",
        }
    }
}

/// Configuration of one training job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Job identity (also selects the node in distributed runs).
    pub job: JobId,
    /// The DNN being trained.
    pub model: ModelProfile,
    /// The dataset being trained on.
    pub dataset: Dataset,
    /// Mini-batch size (paper default 256).
    pub batch_size: usize,
    /// Data-parallel GPUs (paper default 1).
    pub gpus: usize,
    /// Prefetching data-loader workers (paper default 6).
    pub workers: usize,
    /// Batches each worker may run ahead of training (PyTorch default 2).
    pub prefetch_factor: usize,
    /// Per-epoch sample selection policy.
    pub sampling: SamplingMode,
    /// Fraction of the dataset treated as H-samples (the H-list). The
    /// paper defines H-samples by importance, not by cache size; the top
    /// half of the importance ranking is the natural split (see DESIGN.md).
    pub h_list_fraction: f64,
    /// Number of epochs to run.
    pub epochs: u32,
    /// How observed losses are turned into importance values (§VI).
    pub criterion: ImportanceCriterion,
    /// Seed for all of this job's randomness.
    pub seed: u64,
    /// Clairvoyant prefetch lookahead depth (DESIGN.md §11): how many
    /// planned fetches the loader may run ahead of consumption. `0`
    /// disables the pipeline entirely — the job fetches on demand,
    /// byte-identical to the pre-prefetch simulator.
    pub prefetch_depth: usize,
    /// Data-parallel shard `(index, world_size)`: the job trains every
    /// `world_size`-th planned sample starting at `index` (PyTorch's
    /// `DistributedSampler`), and pays a gradient-synchronisation factor.
    /// `None` for single-node training.
    pub shard: Option<(u32, u32)>,
}

impl JobConfig {
    /// A job with the paper's §V-A defaults (batch 256, 6 workers, 1 GPU,
    /// uniform sampling, H-list covering the top half of the dataset).
    pub fn new(job: JobId, model: ModelProfile, dataset: Dataset) -> Self {
        JobConfig {
            job,
            model,
            dataset,
            batch_size: 256,
            gpus: 1,
            workers: 6,
            prefetch_factor: 2,
            sampling: SamplingMode::Uniform,
            h_list_fraction: 0.5,
            epochs: 5,
            criterion: ImportanceCriterion::Loss,
            seed: 42,
            prefetch_depth: 0,
            shard: None,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(Error::invalid_config("batch_size", "must be at least 1"));
        }
        if self.workers == 0 {
            return Err(Error::invalid_config("workers", "must be at least 1"));
        }
        if self.gpus == 0 {
            return Err(Error::invalid_config("gpus", "must be at least 1"));
        }
        if self.prefetch_factor == 0 {
            return Err(Error::invalid_config(
                "prefetch_factor",
                "must be at least 1",
            ));
        }
        if self.epochs == 0 {
            return Err(Error::invalid_config("epochs", "must be at least 1"));
        }
        if !(self.h_list_fraction >= 0.0 && self.h_list_fraction <= 1.0) {
            return Err(Error::invalid_config(
                "h_list_fraction",
                "must be in [0, 1]",
            ));
        }
        if let Some((idx, world)) = self.shard {
            if world == 0 || idx >= world {
                return Err(Error::invalid_config(
                    "shard",
                    "requires index < world_size",
                ));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct EpochAccum {
    stall: SimDuration,
    compute: SimDuration,
    fetch: SimDuration,
    preprocess: SimDuration,
    samples_fetched: u64,
    samples_trained: u64,
    served_from_cache: u64,
    subs_h: u64,
    subs_l: u64,
    fetch_latency: LatencyHistogram,
}

/// One data-loader worker: its virtual clock and the batch it is
/// currently assembling (batch index, next position within the batch).
#[derive(Debug, Clone, Copy)]
struct WorkerState {
    cur: SimTime,
    batch: Option<(usize, usize)>,
}

/// A training job advancing sample by sample over virtual time.
///
/// Reproduces the PyTorch pipeline the paper measures: `W` blocking
/// worker processes fetch whole batches round-robin (each at most
/// `prefetch_factor·W` batches ahead of the GPU), preprocess samples
/// serially, and hand batches to a single training stream whose idle gaps
/// are the *data stalls* of Figure 1. Worker fetches are interleaved in
/// virtual-time order (the earliest worker advances first), so concurrent
/// workers genuinely overlap on the shared storage queues.
///
/// Drive it with [`TrainingJob::step`] (one sample fetch per call) or run
/// it to completion via [`crate::run_single_job`].
pub struct TrainingJob {
    config: JobConfig,
    selector: Box<dyn Selector>,
    table: CriterionTable,
    loss_model: LossModel,
    accuracy: AccuracyModel,
    rng: StdRng,
    epoch: u32,
    current_hlist: HList,
    plan: Option<EpochPlan>,
    num_batches: usize,
    workers: Vec<WorkerState>,
    /// Clairvoyant prefetcher for the current epoch (depth > 0 only).
    prefetch: Option<PrefetchPipeline>,
    assign_next: usize,
    train_next: usize,
    batch_ready: Vec<Option<SimTime>>,
    computed_counts: Vec<u32>,
    batch_lens: Vec<u32>,
    train_done: Vec<SimTime>,
    gpu_free: SimTime,
    epoch_start: SimTime,
    distinct: IdSet,
    /// Per-sample expected losses snapshotted at epoch start; coverage is
    /// measured against these (end-of-epoch losses would bias against the
    /// very samples that were trained).
    start_losses: Vec<f64>,
    start_loss_mass: f64,
    accum: EpochAccum,
    cache_mark: icache_core::CacheStats,
    storage_mark: icache_storage::StorageStats,
    metrics: RunMetrics,
    done: bool,
    /// Shared observability handle; the job emits the epoch-boundary
    /// markers that let a trace be split without the run summary.
    obs: Obs,
}

impl TrainingJob {
    /// Build a job from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero-sized knobs or fractions
    /// out of range.
    pub fn new(config: JobConfig) -> Result<Self> {
        config.validate()?;
        let seq = icache_types::SeedSequence::new(config.seed).child("job");
        let selector = config.sampling.build_selector()?;
        let n = config.dataset.len();
        Ok(TrainingJob {
            selector,
            table: CriterionTable::new(ImportanceTable::new(n), config.criterion),
            loss_model: LossModel::new(n, LossModelConfig::default(), seq.seed("loss")),
            accuracy: AccuracyModel::new(&config.model, seq.seed("accuracy")),
            rng: seq.rng("selector"),
            epoch: 0,
            current_hlist: HList::empty(n),
            plan: None,
            num_batches: 0,
            workers: vec![
                WorkerState {
                    cur: SimTime::ZERO,
                    batch: None
                };
                config.workers
            ],
            prefetch: None,
            assign_next: 0,
            train_next: 0,
            batch_ready: Vec::new(),
            computed_counts: Vec::new(),
            batch_lens: Vec::new(),
            train_done: Vec::new(),
            gpu_free: SimTime::ZERO,
            epoch_start: SimTime::ZERO,
            distinct: IdSet::new(n),
            start_losses: Vec::new(),
            start_loss_mass: 0.0,
            accum: EpochAccum::default(),
            cache_mark: Default::default(),
            storage_mark: Default::default(),
            metrics: RunMetrics {
                system: String::new(),
                model: config.model.name().to_string(),
                epochs: Vec::new(),
            },
            done: false,
            obs: Obs::noop(),
            config,
        })
    }

    /// Whether this job emits cluster-wide epoch markers: the unsharded
    /// case, or rank 0 of a sharded (data-parallel) run.
    fn emits_epoch_markers(&self) -> bool {
        self.config.shard.is_none_or(|(idx, _)| idx == 0)
    }

    /// The job's identity.
    pub fn id(&self) -> JobId {
        self.config.job
    }

    /// The job's configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// Whether every epoch has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The epoch currently in progress (or about to start).
    pub fn current_epoch(&self) -> Epoch {
        Epoch(self.epoch)
    }

    /// Read access to the raw loss-based importance table (for Fig. 3-style
    /// traces).
    pub fn importance_table(&self) -> &ImportanceTable {
        self.table.raw()
    }

    /// Read access to the loss model.
    pub fn loss_model(&self) -> &LossModel {
        &self.loss_model
    }

    /// The accumulated run metrics (complete once [`Self::is_done`]).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consume the job, returning its metrics with the system name filled.
    pub fn into_metrics(mut self, system: &str) -> RunMetrics {
        self.metrics.system = system.to_string();
        self.metrics
    }

    /// The virtual time at which this job will next do work — used by the
    /// multi-job runner to interleave jobs fairly.
    pub fn next_event_time(&self) -> SimTime {
        if self.done {
            return SimTime::from_nanos(u64::MAX);
        }
        if self.plan.is_none() {
            return self.gpu_free;
        }
        self.workers
            .iter()
            .filter(|w| w.batch.is_some())
            .map(|w| w.cur)
            .min()
            .unwrap_or(self.gpu_free)
    }

    fn begin_epoch(&mut self, cache: &mut dyn CacheSystem, storage: &dyn StorageBackend) {
        let epoch = Epoch(self.epoch);
        self.epoch_start = self.gpu_free;
        self.table.on_epoch_start(epoch);
        let scored = self.table.scored_table();
        // Plan the epoch first (it reads only the scored table and the
        // job's own RNG) so the epoch marker can carry the selected-sample
        // count and precede every cache-side event of the epoch.
        let mut plan = self.selector.plan_epoch(&scored, epoch, &mut self.rng);
        if let Some((idx, world)) = self.config.shard {
            // DistributedSampler: keep every world-th planned sample.
            let (order, computed): (Vec<_>, Vec<_>) = plan
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as u32) % world == idx)
                .map(|(_, pair)| pair)
                .unzip();
            plan = EpochPlan::new(order, computed);
        }
        if self.emits_epoch_markers() {
            self.obs.emit(TraceEvent::EpochStart {
                job: self.config.job.0 as u64,
                epoch: self.epoch as u64,
                selected: plan.len() as u64,
            });
        }
        // Push the fresh H-list to the cache. During the warm-up epoch no
        // losses have been observed yet — every value is the optimistic
        // prior — so there is no H-list to publish and the cache serves as
        // a plain pass-through fill.
        if self.epoch > 0 {
            let hlist = HList::top_fraction(&scored, self.config.h_list_fraction);
            cache.update_hlist(self.config.job, &hlist);
            self.current_hlist = hlist;
        }
        cache.on_epoch_start(self.config.job, epoch);
        self.num_batches = plan.len().div_ceil(self.config.batch_size);
        let bs = self.config.batch_size;
        self.batch_lens = (0..self.num_batches)
            .map(|b| ((plan.len() - b * bs).min(bs)) as u32)
            .collect();
        // Arm the clairvoyant prefetcher over the (post-shard) plan: the
        // access order is now fully known, which is the whole premise.
        self.prefetch = if self.config.prefetch_depth > 0 {
            let planned: Vec<PlannedAccess> = plan
                .fetch_order()
                .iter()
                .map(|&id| PlannedAccess {
                    job: self.config.job,
                    id,
                    size: self.config.dataset.sample_size(id),
                })
                .collect();
            Some(
                PrefetchPipeline::new(
                    self.config.prefetch_depth,
                    planned,
                    self.epoch_start,
                    self.obs.clone(),
                )
                .expect("depth checked nonzero by the surrounding branch"),
            )
        } else {
            None
        };
        self.plan = Some(plan);
        self.assign_next = 0;
        self.train_next = 0;
        self.batch_ready = vec![None; self.num_batches];
        self.computed_counts = vec![0; self.num_batches];
        for w in &mut self.workers {
            w.cur = self.epoch_start.max(w.cur);
            w.batch = None;
        }
        self.train_done.clear();
        self.distinct.clear();
        self.start_losses = (0..self.config.dataset.len())
            .map(|i| self.loss_model.expected_loss(icache_types::SampleId(i)))
            .collect();
        self.start_loss_mass = self.start_losses.iter().sum();
        self.accum = EpochAccum::default();
        self.cache_mark = cache.stats();
        self.storage_mark = storage.stats();
    }

    /// Train every batch whose data is ready, in batch order.
    fn drain_trainable(&mut self) {
        while self.train_next < self.num_batches {
            let Some(ready) = self.batch_ready[self.train_next] else {
                break;
            };
            let b = self.train_next;
            let batch_len = self.batch_lens[b] as usize;
            let full = self
                .config
                .model
                .batch_compute_time(batch_len.max(1), self.config.gpus)
                .expect("validated batch/gpus");
            let compute_dur = match self.config.sampling {
                // CIS: forward pass on everything, backward only on the
                // selected subset (~35 % forward / 65 % backward split).
                SamplingMode::Cis { .. } => {
                    full * (0.35 + 0.65 * self.computed_counts[b] as f64 / batch_len.max(1) as f64)
                }
                _ => full,
            };
            // Gradient all-reduce overhead in data-parallel training.
            let compute_dur = match self.config.shard {
                Some((_, world)) if world > 1 => {
                    compute_dur * (1.0 + 0.06 * ((world - 1) as f64).sqrt())
                }
                _ => compute_dur,
            };
            let train_start = self.gpu_free.max(ready);
            self.accum.stall += train_start.saturating_since(self.gpu_free.max(self.epoch_start));
            self.gpu_free = train_start + compute_dur;
            self.accum.compute += compute_dur;
            self.train_done.push(self.gpu_free);
            self.train_next += 1;
        }
    }

    /// Hand fresh batches to idle workers, respecting the prefetch
    /// back-pressure window.
    fn assign_work(&mut self) {
        let window = self.config.workers * self.config.prefetch_factor;
        for w in 0..self.workers.len() {
            if self.workers[w].batch.is_some() || self.assign_next >= self.num_batches {
                continue;
            }
            let b = self.assign_next;
            let throttle = match b.checked_sub(window) {
                None => self.epoch_start,
                Some(i) if i < self.train_done.len() => self.train_done[i],
                Some(_) => continue, // gate not yet open; retry later
            };
            self.workers[w].batch = Some((b, 0));
            self.workers[w].cur = self.workers[w].cur.max(throttle).max(self.epoch_start);
            self.assign_next += 1;
        }
    }

    fn finish_epoch(&mut self, cache: &mut dyn CacheSystem, storage: &dyn StorageBackend) {
        let epoch = Epoch(self.epoch);
        if let Some(pipe) = self.prefetch.take() {
            // Counters and trace events were emitted as they happened;
            // finishing just settles leftover in-flight issues as
            // cancelled.
            let _ = pipe.finish();
        }
        cache.on_epoch_end(self.config.job, epoch);
        if self.emits_epoch_markers() {
            self.obs.emit(TraceEvent::EpochEnd {
                job: self.config.job.0 as u64,
                epoch: self.epoch as u64,
                fetched: self.accum.samples_fetched,
            });
        }

        // Epoch quality for the accuracy model.
        let trained = self.accum.samples_trained.max(1);
        let covered: f64 = self
            .distinct
            .iter()
            .map(|id| self.start_losses[id.index()])
            .sum();
        let mass = self.start_loss_mass.max(f64::MIN_POSITIVE);
        // Substitution harm depends on the sampler's intent: under uniform
        // sampling a random cached substitute barely changes the trained
        // distribution (Quiver's "negligible loss" claim holds), while
        // under importance sampling it breaks the distribution the IS
        // algorithm chose — substituting with over-trained H-samples most
        // of all (§V-E).
        let (subs_h, subs_l) = match self.config.sampling {
            SamplingMode::Uniform => (0.0, 0.25 * (self.accum.subs_h + self.accum.subs_l) as f64),
            _ => (self.accum.subs_h as f64, self.accum.subs_l as f64),
        };
        let quality = EpochQuality {
            loss_mass_coverage: (covered / mass).clamp(0.0, 1.0),
            distinct_fraction: self.distinct.len() as f64 / trained as f64,
            h_substitution_fraction: subs_h / trained as f64,
            l_substitution_fraction: subs_l / trained as f64,
        };
        let q_scalar = quality.q();
        let snap = self.accuracy.record_epoch(quality);

        self.metrics.epochs.push(EpochMetrics {
            epoch,
            wall_time: self.gpu_free.saturating_since(self.epoch_start),
            stall_time: self.accum.stall,
            compute_time: self.accum.compute,
            fetch_time: self.accum.fetch,
            preprocess_time: self.accum.preprocess,
            samples_fetched: self.accum.samples_fetched,
            samples_trained: self.accum.samples_trained,
            served_from_cache: self.accum.served_from_cache,
            distinct_trained: self.distinct.len() as u64,
            substitutions_h: self.accum.subs_h,
            substitutions_l: self.accum.subs_l,
            cache: cache.stats().delta_since(&self.cache_mark),
            storage: storage.stats().delta_since(&self.storage_mark),
            fetch_p50: self.accum.fetch_latency.quantile(0.5),
            fetch_p99: self.accum.fetch_latency.quantile(0.99),
            coverage: (covered / mass).clamp(0.0, 1.0),
            quality: q_scalar,
            top1: snap.top1,
            top5: snap.top5,
        });

        self.plan = None;
        self.epoch += 1;
        if self.epoch >= self.config.epochs {
            self.done = true;
        }
    }

    /// Advance by one sample fetch (starting or finishing epochs as
    /// needed). Returns false once the run is complete.
    pub fn step(&mut self, cache: &mut dyn CacheSystem, storage: &mut dyn StorageBackend) -> bool {
        if self.done {
            return false;
        }
        if self.plan.is_none() {
            self.begin_epoch(cache, storage);
            if self.num_batches == 0 {
                // Degenerate shard: nothing to do this epoch.
                self.finish_epoch(cache, storage);
                return !self.done;
            }
        }

        self.drain_trainable();
        self.assign_work();

        // Advance the earliest active worker by one sample.
        let Some(w) = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, ws)| ws.batch.is_some())
            .min_by_key(|(_, ws)| ws.cur)
            .map(|(i, _)| i)
        else {
            // All batches assigned and fetched; only training remains.
            self.drain_trainable();
            debug_assert_eq!(self.train_next, self.num_batches);
            self.plan = None;
            self.finish_epoch(cache, storage);
            return !self.done;
        };

        let (b, pos) = self.workers[w].batch.expect("selected an active worker");
        let plan = self.plan.take().expect("plan exists during an epoch");
        let i = b * self.config.batch_size + pos;
        let id = plan.fetch_order()[i];
        let size = self.config.dataset.sample_size(id);
        let cur = self.workers[w].cur;
        let preprocess = self.config.model.preprocess_time_per_sample();

        // With the prefetcher armed, delivery time is max(request,
        // prefetch completion): the fetch cost the consumer sees is only
        // its residual stall. Depth 0 keeps the original demand path.
        let fetch = match self.prefetch.as_mut() {
            Some(pipe) => pipe.fetch(i, cur, cache, storage),
            None => cache.fetch(self.config.job, id, size, cur, storage),
        };
        let latency = fetch.ready_at.saturating_since(cur);
        self.accum.fetch_latency.record(latency);
        self.accum.fetch += latency;
        self.accum.preprocess += preprocess;
        self.accum.samples_fetched += 1;
        if fetch.outcome.served_from_cache() {
            self.accum.served_from_cache += 1;
        }
        self.workers[w].cur = fetch.ready_at + preprocess;

        if plan.is_computed(i) {
            self.computed_counts[b] += 1;
            if let FetchOutcome::Substituted { by, .. } = fetch.outcome {
                // Classify the substitute against this job's current
                // importance view: substituting with an H-sample skews
                // the training distribution more (§V-E).
                if self.current_hlist.contains(by) {
                    self.accum.subs_h += 1;
                } else {
                    self.accum.subs_l += 1;
                }
            }
            // Losses feed the importance table (loss-based IS [18]).
            let served = fetch.served_id;
            let loss = self.loss_model.observe(served);
            self.table.record_loss(served, loss, Epoch(self.epoch));
            self.distinct.insert(served);
            self.accum.samples_trained += 1;
        }

        // Batch complete?
        if pos + 1 >= self.batch_lens[b] as usize {
            self.batch_ready[b] = Some(self.workers[w].cur);
            self.workers[w].batch = None;
        } else {
            self.workers[w].batch = Some((b, pos + 1));
        }
        self.plan = Some(plan);

        self.drain_trainable();
        if self.train_next >= self.num_batches {
            self.plan = None;
            self.finish_epoch(cache, storage);
        }
        !self.done
    }
}

impl Observable for TrainingJob {
    /// Install the shared observability handle. The job contributes
    /// [`TraceEvent::EpochStart`]/[`TraceEvent::EpochEnd`] markers to the
    /// trace; in sharded runs only rank 0 emits them, so splitting the
    /// JSONL on `epoch_start` yields exactly one segment per epoch.
    fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_baselines::LruCache;
    use icache_storage::{LocalTier, Pfs, PfsConfig};
    use icache_types::{ByteSize, DatasetBuilder, SizeModel};

    fn dataset(n: u64) -> Dataset {
        DatasetBuilder::new("t", n)
            .size_model(SizeModel::Fixed(ByteSize::kib(3)))
            .build()
            .unwrap()
    }

    fn quick_config(n: u64, epochs: u32) -> JobConfig {
        let mut c = JobConfig::new(JobId(0), ModelProfile::shufflenet(), dataset(n));
        c.batch_size = 32;
        c.epochs = epochs;
        c
    }

    #[test]
    fn job_runs_to_completion_and_records_epochs() {
        let mut job = TrainingJob::new(quick_config(320, 3)).unwrap();
        let mut cache = LruCache::new(ByteSize::kib(300));
        let mut storage = LocalTier::tmpfs();
        while job.step(&mut cache, &mut storage) {}
        assert!(job.is_done());
        let m = job.into_metrics("lru");
        assert_eq!(m.epochs.len(), 3);
        for e in &m.epochs {
            assert_eq!(e.samples_fetched, 320, "uniform fetches everything");
            assert!(e.wall_time > SimDuration::ZERO);
            assert!(e.top1 > 0.0);
        }
        // Accuracy improves over epochs.
        assert!(m.epochs[2].top1 > m.epochs[0].top1);
    }

    #[test]
    fn iis_fetches_fraction_after_warmup() {
        let mut cfg = quick_config(320, 3);
        cfg.sampling = SamplingMode::Iis { fraction: 0.5 };
        let mut job = TrainingJob::new(cfg).unwrap();
        let mut cache = LruCache::new(ByteSize::kib(300));
        let mut storage = LocalTier::tmpfs();
        while job.step(&mut cache, &mut storage) {}
        let m = job.into_metrics("lru");
        assert_eq!(m.epochs[0].samples_fetched, 320, "warm-up epoch");
        assert_eq!(m.epochs[1].samples_fetched, 160);
        assert_eq!(m.epochs[2].samples_fetched, 160);
    }

    #[test]
    fn cis_fetches_everything_but_computes_fraction() {
        let mut cfg = quick_config(320, 2);
        cfg.sampling = SamplingMode::Cis { fraction: 0.5 };
        let mut job = TrainingJob::new(cfg).unwrap();
        let mut cache = LruCache::new(ByteSize::kib(300));
        let mut storage = LocalTier::tmpfs();
        while job.step(&mut cache, &mut storage) {}
        let m = job.into_metrics("lru");
        assert_eq!(m.epochs[1].samples_fetched, 320);
        assert_eq!(m.epochs[1].samples_trained, 160);
        // CIS compute per epoch is below uniform compute.
        assert!(m.epochs[1].compute_time < m.epochs[0].compute_time);
    }

    #[test]
    fn slow_storage_creates_stalls_fast_storage_does_not() {
        let run = |use_pfs: bool| {
            let mut job = TrainingJob::new(quick_config(640, 2)).unwrap();
            let mut cache = LruCache::new(ByteSize::kib(60)); // tiny: mostly misses
            let mut m: Box<dyn StorageBackend> = if use_pfs {
                Box::new(Pfs::new(PfsConfig::orangefs_default()).unwrap())
            } else {
                Box::new(LocalTier::tmpfs())
            };
            while job.step(&mut cache, m.as_mut()) {}
            job.into_metrics("lru")
        };
        let remote = run(true);
        let local = run(false);
        assert!(
            remote.epochs[1].stall_time > local.epochs[1].stall_time * 5.0,
            "remote {} vs local {}",
            remote.epochs[1].stall_time,
            local.epochs[1].stall_time
        );
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = || {
            let mut job = TrainingJob::new(quick_config(320, 2)).unwrap();
            let mut cache = LruCache::new(ByteSize::kib(100));
            let mut storage = LocalTier::tmpfs();
            while job.step(&mut cache, &mut storage) {}
            job.into_metrics("lru")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = quick_config(32, 1);
        c.batch_size = 0;
        assert!(TrainingJob::new(c).is_err());
        let mut c = quick_config(32, 1);
        c.workers = 0;
        assert!(TrainingJob::new(c).is_err());
        let mut c = quick_config(32, 1);
        c.epochs = 0;
        assert!(TrainingJob::new(c).is_err());
        let mut c = quick_config(32, 1);
        c.h_list_fraction = 1.5;
        assert!(TrainingJob::new(c).is_err());
    }

    #[test]
    fn next_event_time_is_monotone_while_running() {
        let mut job = TrainingJob::new(quick_config(320, 2)).unwrap();
        let mut cache = LruCache::new(ByteSize::kib(100));
        let mut storage = LocalTier::tmpfs();
        let mut last = SimTime::ZERO;
        while !job.is_done() {
            let t = job.next_event_time();
            assert!(
                t >= last || job.current_epoch().0 > 0,
                "time went backwards"
            );
            last = t;
            job.step(&mut cache, &mut storage);
        }
        assert_eq!(job.next_event_time(), SimTime::from_nanos(u64::MAX));
    }
}
