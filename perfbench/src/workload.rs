//! The four workloads: how each is set up, run, checked and digested.
//!
//! A *unit* is one complete simulated run of a workload: a whole
//! training run, or one replay of the trace through every policy. The
//! benchmark repeats units; every unit builds its inputs afresh from the
//! seed ([`setup`]) and then runs them in one of three modes ([`run`]).

use crate::tracer::{self, Kind, StatsTap, Totals, TracedCache, TracedConcurrent, TracedStorage};
use icache_bench::workload as lineup;
use icache_core::{CacheStats, CacheSystem, ConcurrentCache};
use icache_dnn::{AccuracyModel, EpochQuality, ModelProfile};
use icache_obs::{Obs, Observable};
use icache_sim::replay::{replay, replay_concurrent, AccessPattern, ReplayReport, Trace};
use icache_sim::{RunMetrics, Scenario, StorageKind, SystemKind, TrainingJob};
use icache_storage::{StorageBackend, StorageStats};
use icache_types::{ByteSize, Dataset, DatasetBuilder, Epoch, JobId, SizeModel};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// iCache trains ResNet-50 on full ImageNet-1K over OrangeFS.
    TrainImagenet,
    /// iCache trains ResNet-18 on CIFAR-10 with a cache holding 80 %.
    TrainCifarHot,
    /// The five-policy sequential replay of a Zipf-1.1 trace.
    ReplayLineup,
    /// The lock-striped iCache on two loader threads, epoch-shuffle trace.
    ReplayStriped,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainImagenet,
        Workload::TrainCifarHot,
        Workload::ReplayLineup,
        Workload::ReplayStriped,
    ];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainImagenet => "train-imagenet",
            Workload::TrainCifarHot => "train-cifar-hot",
            Workload::ReplayLineup => "replay-lineup",
            Workload::ReplayStriped => "replay-striped",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The size of a workload. [`Spec::full`] is what the benchmark runs;
/// [`Spec::small`] keeps the same shape at test size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Training: fraction of the dataset kept.
    pub dataset_fraction: f64,
    /// Training: epochs run.
    pub epochs: u32,
    /// Replay: accesses in the trace.
    pub accesses: usize,
    /// Replay: samples the trace draws from.
    pub universe: u64,
    /// Replay: loader threads serving the shared cache.
    pub threads: usize,
}

/// Cache fraction of both replay workloads (the `icache_replay` default).
const REPLAY_CACHE_FRACTION: f64 = 0.1;

impl Spec {
    /// The benchmark's size.
    pub fn full(workload: Workload) -> Spec {
        let base = Spec {
            workload,
            dataset_fraction: 1.0,
            epochs: 0,
            accesses: 0,
            universe: 0,
            threads: 1,
        };
        match workload {
            Workload::TrainImagenet => Spec { epochs: 2, ..base },
            Workload::TrainCifarHot => Spec { epochs: 20, ..base },
            Workload::ReplayLineup => Spec {
                accesses: 200_000,
                universe: 20_000,
                ..base
            },
            Workload::ReplayStriped => Spec {
                accesses: 2_000_000,
                universe: 200_000,
                threads: 2,
                ..base
            },
        }
    }

    /// A test-sized version of the same workload.
    pub fn small(workload: Workload) -> Spec {
        let full = Spec::full(workload);
        match workload {
            Workload::TrainImagenet => Spec {
                dataset_fraction: 0.005,
                ..full
            },
            Workload::TrainCifarHot => Spec {
                dataset_fraction: 0.05,
                epochs: 4,
                ..full
            },
            Workload::ReplayLineup => Spec {
                accesses: 6_000,
                universe: 1_000,
                ..full
            },
            Workload::ReplayStriped => Spec {
                accesses: 100_000,
                universe: 10_000,
                ..full
            },
        }
    }

    /// Whether repeats of one seed must give identical modelled
    /// statistics: everything but the multi-threaded replay.
    pub fn deterministic(&self) -> bool {
        self.workload != Workload::ReplayStriped || self.threads == 1
    }

    /// Samples in the workload's dataset.
    pub fn samples(&self) -> u64 {
        let full = match self.workload {
            Workload::TrainImagenet => Dataset::imagenet_1k().len(),
            Workload::TrainCifarHot => Dataset::cifar10().len(),
            Workload::ReplayLineup | Workload::ReplayStriped => return self.universe,
        };
        (full as f64 * self.dataset_fraction).round() as u64
    }

    /// Replay: passes over the universe the trace makes, the replay's
    /// stand-in for an epoch.
    pub fn epoch_equivalents(&self) -> f64 {
        self.accesses as f64 / self.universe as f64
    }
}

/// Largest share of traced thread time the layers' self times may leave
/// unattributed.
pub const RECONCILE: f64 = 0.10;

/// How a unit runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced, with a live `Obs::new()` attached (the end-to-end run).
    Live,
    /// Untraced, with `Obs::noop()` attached.
    Noop,
    /// Traced through the decorators, with a live `Obs::new()`.
    Traced,
}

impl Mode {
    fn obs(self) -> Obs {
        match self {
            Mode::Noop => Obs::noop(),
            Mode::Live | Mode::Traced => Obs::new(),
        }
    }
}

/// One lineup policy with its own storage backend.
pub type Policy = (String, Box<dyn CacheSystem + Send>, Box<dyn StorageBackend>);

/// A unit's inputs, built from the seed and ready to run.
pub enum Prepared {
    /// A training run.
    Train {
        /// The job.
        job: Box<TrainingJob>,
        /// The cache under test.
        cache: Box<dyn CacheSystem>,
        /// The storage backend.
        storage: Box<dyn StorageBackend>,
        /// Samples in the dataset.
        dataset_len: u64,
    },
    /// The sequential five-policy replay.
    Lineup {
        /// The access trace.
        trace: Trace,
        /// The dataset it reads.
        dataset: Dataset,
        /// Every policy with its own storage backend, in lineup order.
        policies: Vec<Policy>,
    },
    /// The striped concurrent replay.
    Striped {
        /// The access trace.
        trace: Trace,
        /// The dataset it reads.
        dataset: Dataset,
        /// The shared cache.
        cache: Box<dyn ConcurrentCache>,
    },
}

fn training_scenario(spec: &Spec, seed: u64) -> Result<Scenario, String> {
    let scenario = match spec.workload {
        Workload::TrainImagenet => {
            Scenario::imagenet(SystemKind::Icache).model(ModelProfile::resnet50())
        }
        _ => Scenario::cifar10(SystemKind::Icache).cache_fraction(0.8),
    };
    // Sample sizes are inputs too: draw them from the seed.
    let preset = scenario.dataset_ref();
    let mut dataset = DatasetBuilder::new(preset.name(), preset.len())
        .size_model(preset.size_model())
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    if spec.dataset_fraction < 1.0 {
        dataset = dataset
            .scaled(spec.dataset_fraction)
            .map_err(|e| e.to_string())?;
    }
    Ok(scenario.dataset(dataset).epochs(spec.epochs).seed(seed))
}

fn replay_dataset(spec: &Spec) -> Result<Dataset, String> {
    DatasetBuilder::new("replay", spec.universe)
        .size_model(SizeModel::Fixed(ByteSize::kib(3)))
        .build()
        .map_err(|e| e.to_string())
}

/// Build a unit's dataset, trace, H-list, caches, storage and job.
///
/// # Errors
///
/// Returns a message when a layer refuses its configuration.
pub fn setup(spec: &Spec, seed: u64) -> Result<Prepared, String> {
    match spec.workload {
        Workload::TrainImagenet | Workload::TrainCifarHot => {
            let scenario = training_scenario(spec, seed)?;
            let dataset_len = scenario.dataset_ref().len();
            let cache = scenario.build_cache().map_err(|e| e.to_string())?;
            let storage = scenario.build_storage().map_err(|e| e.to_string())?;
            let job = TrainingJob::new(scenario.job_config(JobId(0))).map_err(|e| e.to_string())?;
            Ok(Prepared::Train {
                job: Box::new(job),
                cache,
                storage,
                dataset_len,
            })
        }
        Workload::ReplayLineup => {
            let trace = AccessPattern::Zipf { s: 1.1 }
                .generate(spec.universe, spec.accesses, JobId(0), seed)
                .map_err(|e| e.to_string())?;
            let dataset = replay_dataset(spec)?;
            let cap = dataset.total_bytes().scaled(REPLAY_CACHE_FRACTION);
            let hlist = lineup::popularity_hlist(&trace, spec.universe);
            let mut policies = Vec::new();
            for name in lineup::POLICIES {
                let cache =
                    lineup::build_policy(name, &dataset, cap, REPLAY_CACHE_FRACTION, seed, &hlist)?;
                let storage = StorageKind::OrangeFs.build().map_err(|e| e.to_string())?;
                policies.push((name.to_string(), cache, storage));
            }
            Ok(Prepared::Lineup {
                trace,
                dataset,
                policies,
            })
        }
        Workload::ReplayStriped => {
            let trace = AccessPattern::EpochShuffle
                .generate(spec.universe, spec.accesses, JobId(0), seed)
                .map_err(|e| e.to_string())?;
            let dataset = replay_dataset(spec)?;
            let cap = dataset.total_bytes().scaled(REPLAY_CACHE_FRACTION);
            let hlist = lineup::popularity_hlist(&trace, spec.universe);
            let cache = lineup::build_concurrent_policy(
                "icache",
                &dataset,
                cap,
                REPLAY_CACHE_FRACTION,
                seed,
                &hlist,
                spec.threads,
            )?;
            Ok(Prepared::Striped {
                trace,
                dataset,
                cache,
            })
        }
    }
}

/// The end-to-end modelled metrics of one unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modelled {
    /// Simulated seconds per steady-state epoch.
    pub epoch_s: f64,
    /// Simulated data-stall seconds per steady-state epoch.
    pub stall_s: f64,
    /// Steady-state hit ratio.
    pub hit_ratio: f64,
    /// Final top-1 accuracy, percent.
    pub top1: f64,
}

/// What a traced unit recorded.
#[derive(Debug, Clone, Default)]
pub struct TraceRecord {
    /// Everything, merged over threads and policies.
    pub totals: Totals,
    /// Per policy (the lineup replays policies one after another).
    pub per_policy: Vec<(String, Totals)>,
    /// The sampled span trees, each labelled with its policy.
    pub spans: Vec<(String, tracer::SpanRecord)>,
    /// Thread time the run kept busy, ns: the main thread's timed phase,
    /// plus loader threads' lifetimes less the main thread's wait on them.
    pub busy_ns: u64,
}

/// Everything one unit produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Fetches the unit issued.
    pub fetches: u64,
    /// Host seconds of the timed phase.
    pub secs: f64,
    /// FNV-1a digest of the modelled statistics.
    pub digest: u64,
    /// The statistics the digest covers, one line per epoch or policy.
    pub detail: Vec<String>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// End-to-end modelled metrics.
    pub modelled: Modelled,
    /// Modelled per-layer metrics, by metric name.
    pub model_layers: Vec<(&'static str, f64)>,
    /// Lock acquisitions that had to wait (striped replay only).
    pub contended: u64,
    /// Filled in traced mode.
    pub trace: Option<TraceRecord>,
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn check_capacity(cache: &dyn CacheSystem, when: &str, failures: &mut Vec<String>) {
    let (used, cap) = (cache.used_bytes(), cache.capacity());
    if used > cap {
        failures.push(format!(
            "{}: used {used} > capacity {cap} {when}",
            cache.name()
        ));
    }
}

/// Run a prepared unit.
pub fn run(prepared: Prepared, spec: &Spec, seed: u64, mode: Mode) -> Outcome {
    if mode == Mode::Traced {
        // Nothing from an earlier unit may leak into this one.
        let _ = tracer::take_thread();
        let _ = tracer::take_collected();
    }
    let mut out = match prepared {
        Prepared::Train {
            job,
            cache,
            storage,
            dataset_len,
        } => run_train(*job, cache, storage, dataset_len, spec, mode),
        Prepared::Lineup {
            trace,
            dataset,
            policies,
        } => run_lineup(&trace, &dataset, policies, spec, seed, mode),
        Prepared::Striped {
            trace,
            dataset,
            cache,
        } => run_striped(&trace, &dataset, cache, spec, seed, mode),
    };
    if let Some(t) = &out.trace {
        let left = t.busy_ns as f64 - t.totals.self_ns() as f64;
        if left.abs() > RECONCILE * t.busy_ns as f64 {
            out.failures.push(format!(
                "layer self times leave {:.2}% of traced thread time unattributed",
                left / t.busy_ns.max(1) as f64 * 100.0
            ));
        }
    }
    out
}

/// Step a job to completion, checking the cache's fill whenever an epoch
/// ends.
fn drive(
    job: &mut TrainingJob,
    cache: &mut dyn CacheSystem,
    storage: &mut dyn StorageBackend,
    failures: &mut Vec<String>,
) {
    let mut epoch = job.current_epoch();
    while job.step(cache, storage) {
        if job.current_epoch() != epoch {
            epoch = job.current_epoch();
            check_capacity(cache, "after an epoch ended", failures);
        }
    }
    check_capacity(cache, "after the run", failures);
}

fn run_train(
    mut job: TrainingJob,
    mut cache: Box<dyn CacheSystem>,
    mut storage: Box<dyn StorageBackend>,
    dataset_len: u64,
    spec: &Spec,
    mode: Mode,
) -> Outcome {
    let obs = mode.obs();
    cache.set_obs(obs.clone());
    storage.set_obs(obs.clone());
    job.set_obs(obs);
    let system = cache.name().to_string();
    let mut out = Outcome::default();
    let (cache_stats, storage_stats);
    if mode == Mode::Traced {
        let mut cache = TracedCache::new(cache, true);
        let mut storage = TracedStorage::new(storage);
        let t0 = Instant::now();
        tracer::span(Kind::Driver, || {
            drive(&mut job, &mut cache, &mut storage, &mut out.failures)
        });
        out.secs = t0.elapsed().as_secs_f64();
        let (totals, spans) = tracer::take_thread();
        out.failures.append(&mut cache.overfull);
        let issued = cache.fetches;
        cache_stats = cache.stats();
        storage_stats = storage.stats();
        out.trace = Some(TraceRecord {
            busy_ns: (out.secs * 1e9) as u64,
            spans: spans.into_iter().map(|s| (system.clone(), s)).collect(),
            per_policy: vec![(system.clone(), totals.clone())],
            totals,
        });
        out.fetches = issued;
    } else {
        let t0 = Instant::now();
        drive(
            &mut job,
            cache.as_mut(),
            storage.as_mut(),
            &mut out.failures,
        );
        out.secs = t0.elapsed().as_secs_f64();
        cache_stats = cache.stats();
        storage_stats = storage.stats();
    }
    let metrics = job.into_metrics(&system);
    let fetched: u64 = metrics.epochs.iter().map(|e| e.samples_fetched).sum();
    if mode != Mode::Traced {
        out.fetches = fetched;
    }
    check_training(&metrics, spec, &cache_stats, out.fetches, &mut out.failures);

    let text = format!("{metrics:?} {cache_stats:?} {storage_stats:?}");
    for e in &metrics.epochs {
        out.detail.push(format!(
            "epoch {}: wall {:.6}s stall {:.6}s fetched {} trained {} hits {:.4} top1 {:.4}",
            e.epoch.0,
            e.wall_time.as_secs_f64(),
            e.stall_time.as_secs_f64(),
            e.samples_fetched,
            e.samples_trained,
            e.hit_ratio(),
            e.top1
        ));
    }
    out.detail.push(format!("cache {cache_stats:?}"));
    out.detail.push(format!("storage {storage_stats:?}"));
    out.digest = fnv1a(&text);
    out.modelled = Modelled {
        epoch_s: metrics.avg_epoch_time_steady().as_secs_f64(),
        stall_s: metrics.avg_stall_time_steady().as_secs_f64(),
        hit_ratio: metrics.avg_hit_ratio_steady(),
        top1: metrics.final_top1(),
    };
    out.model_layers = training_layers(&metrics, dataset_len, out.trace.as_ref());
    out
}

fn check_training(
    metrics: &RunMetrics,
    spec: &Spec,
    cache_total: &CacheStats,
    issued: u64,
    failures: &mut Vec<String>,
) {
    if metrics.epochs.len() != spec.epochs as usize {
        failures.push(format!(
            "ran {} epochs, configured {}",
            metrics.epochs.len(),
            spec.epochs
        ));
    }
    for e in &metrics.epochs {
        if e.samples_trained > e.samples_fetched {
            failures.push(format!(
                "epoch {}: trained {} > fetched {}",
                e.epoch.0, e.samples_trained, e.samples_fetched
            ));
        }
        if e.cache.requests() != e.samples_fetched {
            failures.push(format!(
                "epoch {}: cache outcomes {} != fetches {}",
                e.epoch.0,
                e.cache.requests(),
                e.samples_fetched
            ));
        }
    }
    if cache_total.requests() != issued {
        failures.push(format!(
            "h_hits+l_hits+pm_hits+substitutions+misses = {} != fetches issued {issued}",
            cache_total.requests()
        ));
    }
}

/// Fractions of a `CacheStats` by outcome.
fn outcome_fractions(s: &CacheStats) -> [(&'static str, f64); 4] {
    let n = s.requests().max(1) as f64;
    [
        ("core.h_hit_frac", s.h_hits as f64 / n),
        ("core.l_hit_frac", (s.l_hits + s.pm_hits) as f64 / n),
        ("core.sub_frac", s.substitutions as f64 / n),
        ("core.miss_frac", s.misses as f64 / n),
    ]
}

/// Tallies that only a traced run sees, per epoch (or per epoch
/// equivalent); zero in untraced runs.
fn traced_model_layers(totals: Option<&Totals>, per: f64) -> [(&'static str, f64); 2] {
    let m = totals.map(|t| t.model).unwrap_or_default();
    [
        ("core.sim_hit_service_s", m.hit_ns as f64 / 1e9 / per),
        (
            "storage.sim_queue_s",
            m.miss_ns.saturating_sub(m.demand_service_ns) as f64 / 1e9 / per,
        ),
    ]
}

fn training_layers(
    metrics: &RunMetrics,
    dataset_len: u64,
    trace: Option<&TraceRecord>,
) -> Vec<(&'static str, f64)> {
    let steady = if metrics.epochs.len() > 1 {
        &metrics.epochs[1..]
    } else {
        &metrics.epochs[..]
    };
    let per = steady.len().max(1) as f64;
    let mut cache = CacheStats::default();
    let mut service = 0.0;
    let mut fetched = 0;
    for e in steady {
        let c = &e.cache;
        cache.h_hits += c.h_hits;
        cache.l_hits += c.l_hits;
        cache.pm_hits += c.pm_hits;
        cache.substitutions += c.substitutions;
        cache.misses += c.misses;
        service += e.storage.service_time.as_secs_f64();
        fetched += e.samples_fetched;
    }
    let mut v = vec![(
        "sampling.fetch_frac",
        fetched as f64 / per / dataset_len.max(1) as f64,
    )];
    v.extend(outcome_fractions(&cache));
    v.push(("storage.sim_service_s", service / per));
    v.extend(traced_model_layers(trace.map(|t| &t.totals), per));
    v
}

/// The replay workloads' stand-ins for the training metrics, from the
/// iCache policy's replay: simulated time and storage time per epoch
/// equivalent, the hit ratio, and the top-1 accuracy the accuracy model
/// gives a run whose only loss of quality is the substitutes served.
fn replay_modelled(rep: &ReplayReport, storage: &StorageStats, spec: &Spec, seed: u64) -> Modelled {
    let per = spec.epoch_equivalents();
    let subs = rep.stats.substitutions as f64 / rep.stats.requests().max(1) as f64;
    let mut accuracy = AccuracyModel::new(&ModelProfile::resnet18(), seed);
    let quality = EpochQuality {
        l_substitution_fraction: subs,
        ..EpochQuality::ideal()
    };
    for _ in 0..per.round() as u64 {
        accuracy.record_epoch(quality);
    }
    Modelled {
        epoch_s: rep.elapsed.as_secs_f64() / per,
        stall_s: storage.service_time.as_secs_f64() / spec.threads as f64 / per,
        hit_ratio: rep.hit_ratio(),
        top1: accuracy.top1(),
    }
}

fn replay_layers(
    rep: &ReplayReport,
    storage: &StorageStats,
    spec: &Spec,
    totals: Option<&Totals>,
) -> Vec<(&'static str, f64)> {
    let per = spec.epoch_equivalents();
    let mut v = vec![("sampling.fetch_frac", 0.0)];
    v.extend(outcome_fractions(&rep.stats));
    v.push((
        "storage.sim_service_s",
        storage.service_time.as_secs_f64() / per,
    ));
    v.extend(traced_model_layers(totals, per));
    v
}

fn check_replay(name: &str, rep: &ReplayReport, accesses: usize, failures: &mut Vec<String>) {
    if rep.stats.requests() != accesses as u64 {
        failures.push(format!(
            "{name}: h_hits+l_hits+pm_hits+substitutions+misses = {} != accesses {accesses}",
            rep.stats.requests()
        ));
    }
}

fn replay_detail(name: &str, rep: &ReplayReport, storage: &StorageStats) -> String {
    format!(
        "{name}: hits {:.4} elapsed {:.6}s {:?} storage {:?}",
        rep.hit_ratio(),
        rep.elapsed.as_secs_f64(),
        rep.stats,
        storage
    )
}

fn run_lineup(
    trace: &Trace,
    dataset: &Dataset,
    policies: Vec<Policy>,
    spec: &Spec,
    seed: u64,
    mode: Mode,
) -> Outcome {
    let mut out = Outcome::default();
    let mut text = String::new();
    let mut record = TraceRecord::default();
    let t0 = Instant::now();
    for (name, mut cache, mut storage) in policies {
        // One registry per policy, as `icache_replay` does.
        let obs = mode.obs();
        cache.set_obs(obs.clone());
        storage.set_obs(obs);
        let (rep, storage_stats) = if mode == Mode::Traced {
            let mut cache = TracedCache::new(cache, false);
            let mut storage = TracedStorage::new(storage);
            let rep = tracer::span(Kind::Driver, || {
                cache.on_epoch_start(JobId(0), Epoch(0));
                replay(trace, dataset, &mut cache, &mut storage)
            });
            check_capacity(&cache, "after the replay", &mut out.failures);
            out.failures.append(&mut cache.overfull);
            let (totals, spans) = tracer::take_thread();
            record.totals.merge(&totals);
            record
                .spans
                .extend(spans.into_iter().map(|s| (name.clone(), s)));
            record.per_policy.push((name.clone(), totals));
            (rep, storage.stats())
        } else {
            cache.on_epoch_start(JobId(0), Epoch(0));
            check_capacity(cache.as_ref(), "after on_epoch_start", &mut out.failures);
            let rep = replay(trace, dataset, cache.as_mut(), storage.as_mut());
            check_capacity(cache.as_ref(), "after the replay", &mut out.failures);
            (rep, storage.stats())
        };
        check_replay(&name, &rep, trace.len(), &mut out.failures);
        out.fetches += trace.len() as u64;
        let _ = write!(text, "{name} {rep:?} {storage_stats:?};");
        out.detail.push(replay_detail(&name, &rep, &storage_stats));
        if name == "icache" {
            out.modelled = replay_modelled(&rep, &storage_stats, spec, seed);
            let totals = record.per_policy.last().map(|(_, t)| t);
            out.model_layers = replay_layers(&rep, &storage_stats, spec, totals);
        }
    }
    out.secs = t0.elapsed().as_secs_f64();
    out.digest = fnv1a(&text);
    if mode == Mode::Traced {
        record.busy_ns = (out.secs * 1e9) as u64;
        out.trace = Some(record);
    }
    out
}

fn run_striped(
    trace: &Trace,
    dataset: &Dataset,
    cache: Box<dyn ConcurrentCache>,
    spec: &Spec,
    seed: u64,
    mode: Mode,
) -> Outcome {
    let mut out = Outcome::default();
    cache.set_obs(mode.obs());
    let cache: Box<dyn ConcurrentCache> = if mode == Mode::Traced {
        Box::new(TracedConcurrent::new(cache))
    } else {
        cache
    };
    let sink = Arc::new(Mutex::new(StorageStats::default()));
    let traced = mode == Mode::Traced;
    let make_storage = || -> icache_types::Result<Box<dyn StorageBackend>> {
        let inner = StorageKind::OrangeFs.build()?;
        Ok(if traced {
            Box::new(TracedStorage::loader(inner, sink.clone()))
        } else {
            Box::new(StatsTap::new(inner, sink.clone()))
        })
    };
    let check = |when: &str, failures: &mut Vec<String>| {
        let (used, cap) = (cache.used_bytes(), cache.capacity());
        if used > cap {
            failures.push(format!(
                "{}: used {used} > capacity {cap} {when}",
                cache.name()
            ));
        }
    };
    let t0 = Instant::now();
    cache.on_epoch_start(JobId(0), Epoch(0));
    check("after on_epoch_start", &mut out.failures);
    let rep = replay_concurrent(
        trace,
        dataset,
        cache.as_ref(),
        spec.threads,
        seed,
        make_storage,
    );
    cache.on_epoch_end(JobId(0), Epoch(0));
    check("after on_epoch_end", &mut out.failures);
    out.secs = t0.elapsed().as_secs_f64();
    let rep = match rep {
        Ok(rep) => rep,
        Err(e) => {
            out.failures.push(format!("replay_concurrent failed: {e}"));
            return out;
        }
    };
    let storage_stats = *sink.lock().expect("storage stats sink poisoned");
    out.contended = cache.contended();
    out.fetches = trace.len() as u64;
    check_replay(cache.name(), &rep, trace.len(), &mut out.failures);
    let detail = replay_detail(cache.name(), &rep, &storage_stats);
    out.digest = fnv1a(&detail);
    out.detail.push(detail);
    if traced {
        let (main, main_spans) = tracer::take_thread();
        let (loaders, loader_spans) = tracer::take_collected();
        let main_ns = (out.secs * 1e9) as u64;
        let mut totals = main;
        totals.merge(&loaders);
        out.trace = Some(TraceRecord {
            busy_ns: main_ns.saturating_sub(loaders.max_root_ns) + loaders.roots_ns,
            per_policy: vec![("icache".to_string(), totals.clone())],
            spans: main_spans
                .into_iter()
                .chain(loader_spans)
                .map(|s| ("icache".to_string(), s))
                .collect(),
            totals,
        });
    }
    out.modelled = replay_modelled(&rep, &storage_stats, spec, seed);
    out.model_layers = replay_layers(
        &rep,
        &storage_stats,
        spec,
        out.trace.as_ref().map(|t| &t.totals),
    );
    out
}
