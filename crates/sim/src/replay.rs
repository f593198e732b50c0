//! Trace replay: drive any cache system with a raw access trace.
//!
//! Training-loop simulation answers "how fast does the job run"; replay
//! answers the narrower cache-design question "how does this policy
//! behave under this reference stream", the way classic cache simulators
//! do. Traces come from three sources:
//!
//! * recorded [`crate::TracingCache`] JSONL (via [`Trace::parse_jsonl`]);
//! * synthetic generators ([`AccessPattern`]) — uniform, Zipfian,
//!   sequential scan, and epoch-shuffle (the DNN pattern);
//! * hand-built [`Trace`]s in tests.

use icache_core::{
    CacheStats, CacheSystem, ConcurrentCache, PlannedAccess, PrefetchPipeline, PrefetchReport,
};
use icache_storage::StorageBackend;
use icache_types::{
    Dataset, Error, JobId, LatencyHistogram, Result, SampleId, SeedSequence, SimDuration, SimTime,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// One access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Requesting job.
    pub job: JobId,
    /// Requested sample.
    pub sample: SampleId,
}

/// An access trace over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Build from raw records.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        Trace { records }
    }

    /// The accesses in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Parse the JSONL format emitted by
    /// [`crate::TracingCache::to_jsonl`] (fields `job` and `requested`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on malformed lines.
    pub fn parse_jsonl(input: &str) -> Result<Trace> {
        let mut records = Vec::new();
        for (lineno, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = icache_obs::Json::parse(line)
                .map_err(|e| Error::invalid_config("trace", format!("line {}: {e}", lineno + 1)))?;
            let job = v["job"].as_u64().ok_or_else(|| {
                Error::invalid_config("trace", format!("line {}: missing `job`", lineno + 1))
            })?;
            let sample = v["requested"].as_u64().ok_or_else(|| {
                Error::invalid_config("trace", format!("line {}: missing `requested`", lineno + 1))
            })?;
            records.push(TraceRecord {
                job: JobId(job as u32),
                sample: SampleId(sample),
            });
        }
        Ok(Trace { records })
    }
}

/// Synthetic access-pattern generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Independent uniform draws.
    Uniform,
    /// Zipf-distributed draws with the given skew `s > 0` (1.0 ≈ classic
    /// web/cache skew). Popular ids are the low ids.
    Zipf {
        /// Skew exponent.
        s: f64,
    },
    /// Repeated sequential scans of the dataset (the cache-adversarial
    /// pattern).
    Scan,
    /// Per-epoch random permutations — the DNN training pattern (§II-A).
    EpochShuffle,
}

impl AccessPattern {
    /// Generate `n` accesses over `universe` samples for `job`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty universe or a
    /// non-positive Zipf skew.
    pub fn generate(self, universe: u64, n: usize, job: JobId, seed: u64) -> Result<Trace> {
        if universe == 0 {
            return Err(Error::invalid_config("universe", "must be non-empty"));
        }
        let mut rng = SeedSequence::new(seed).rng("trace-gen");
        let mut records = Vec::with_capacity(n);
        match self {
            AccessPattern::Uniform => {
                for _ in 0..n {
                    records.push(TraceRecord {
                        job,
                        sample: SampleId(rng.gen_range(0..universe)),
                    });
                }
            }
            AccessPattern::Zipf { s } => {
                if !(s > 0.0 && s.is_finite()) {
                    return Err(Error::invalid_config("s", "zipf skew must be positive"));
                }
                // Precomputed CDF + binary search. Universe capped for the
                // table; ids above the cap occur with ~zero probability
                // under any practical skew anyway.
                let m = universe.min(1_000_000) as usize;
                let mut cdf = Vec::with_capacity(m);
                let mut acc = 0.0;
                for k in 1..=m {
                    acc += 1.0 / (k as f64).powf(s);
                    cdf.push(acc);
                }
                let total = acc;
                for _ in 0..n {
                    let u: f64 = rng.gen_range(0.0..total);
                    let idx = cdf.partition_point(|&c| c < u);
                    records.push(TraceRecord {
                        job,
                        sample: SampleId(idx as u64),
                    });
                }
            }
            AccessPattern::Scan => {
                for i in 0..n {
                    records.push(TraceRecord {
                        job,
                        sample: SampleId(i as u64 % universe),
                    });
                }
            }
            AccessPattern::EpochShuffle => {
                let mut order: Vec<u64> = (0..universe).collect();
                let mut i = 0;
                while records.len() < n {
                    if i == 0 {
                        order.shuffle(&mut rng);
                    }
                    records.push(TraceRecord {
                        job,
                        sample: SampleId(order[i]),
                    });
                    i = (i + 1) % order.len();
                }
            }
        }
        Ok(Trace { records })
    }
}

/// The outcome of replaying a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Cache counters accumulated over the replay.
    pub stats: CacheStats,
    /// Per-access service latency distribution.
    pub latency: LatencyHistogram,
    /// Virtual time consumed by the replay.
    pub elapsed: SimDuration,
}

impl ReplayReport {
    /// The paper-style hit ratio of the replay.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }
}

/// Replay `trace` through `cache` against `storage`, back to back (each
/// access submits when the previous completes).
pub fn replay(
    trace: &Trace,
    dataset: &Dataset,
    cache: &mut dyn CacheSystem,
    storage: &mut dyn StorageBackend,
) -> ReplayReport {
    let start_stats = cache.stats();
    let (latency, _, end) = replay_sequential(trace, dataset, cache, storage, SimDuration::ZERO);
    ReplayReport {
        stats: cache.stats().delta_since(&start_stats),
        latency,
        elapsed: end.saturating_since(SimTime::ZERO),
    }
}

/// The one sequential demand-fetch loop behind [`replay`] and depth-0
/// [`replay_prefetch`]: each access submits when the previous one was
/// delivered plus `compute`. Returns the per-access wait histogram, the
/// summed wait (stall), and the final clock.
fn replay_sequential(
    trace: &Trace,
    dataset: &Dataset,
    cache: &mut dyn CacheSystem,
    storage: &mut dyn StorageBackend,
    compute: SimDuration,
) -> (LatencyHistogram, SimDuration, SimTime) {
    let mut now = SimTime::ZERO;
    let mut latency = LatencyHistogram::new();
    let mut stall = SimDuration::ZERO;
    for r in &trace.records {
        let size = dataset.sample_size(r.sample);
        // The sequential clock only moves forward, so the storage model
        // may retire queue bookings from the virtual past.
        storage.release_before(now);
        let f = cache.fetch(r.job, r.sample, size, now, storage);
        let wait = f.ready_at.saturating_since(now);
        latency.record(wait);
        stall += wait;
        now = f.ready_at + compute;
    }
    (latency, stall, now)
}

/// Replay `trace` through a shared [`ConcurrentCache`] on `threads`
/// loader threads.
///
/// The trace is partitioned round-robin (record `i` goes to thread
/// `i % threads`), mirroring how a DNN data loader splits one epoch's
/// index list across workers. Each thread owns its storage backend
/// (built by `make_storage` inside the thread), its RNG stream
/// (derived from `seed` and the thread index), and its virtual clock;
/// the cache is the only shared state. The report's `elapsed` is the
/// *slowest* thread's clock — the batch is ready when the last worker
/// is — and the latency histogram is the merge of all threads'.
///
/// With `threads == 1` this visits records in exactly the sequential
/// [`replay`] order. With more threads the per-access results depend
/// on the interleaving, so runs are reproducible only given the same
/// thread schedule; counters still sum exactly (see
/// `icache_core::AtomicCacheStats`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `threads == 0`, and
/// propagates `make_storage` failures. A panicking loader thread
/// surfaces as [`Error::InvalidState`] rather than poisoning the
/// caller.
pub fn replay_concurrent<F>(
    trace: &Trace,
    dataset: &Dataset,
    cache: &dyn ConcurrentCache,
    threads: usize,
    seed: u64,
    make_storage: F,
) -> Result<ReplayReport>
where
    F: Fn() -> Result<Box<dyn StorageBackend>> + Sync,
{
    if threads == 0 {
        return Err(Error::invalid_config(
            "threads",
            "need at least one loader thread",
        ));
    }
    let start_stats = cache.stats();
    let mut shards: Vec<Vec<TraceRecord>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, r) in trace.records.iter().enumerate() {
        shards[i % threads].push(*r);
    }
    let make_storage = &make_storage;
    let per_thread: Vec<Result<(LatencyHistogram, SimTime)>> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(t, records)| {
                s.spawn(move || -> Result<(LatencyHistogram, SimTime)> {
                    let mut storage = make_storage()?;
                    let mut rng = SeedSequence::new(seed).rng(&format!("loader{t}"));
                    let mut now = SimTime::ZERO;
                    let mut latency = LatencyHistogram::new();
                    for r in records {
                        let size = dataset.sample_size(r.sample);
                        // Thread-local storage + monotone thread-local
                        // clock: safe to retire the virtual past.
                        storage.release_before(now);
                        let f = cache.fetch(r.job, r.sample, size, now, storage.as_mut(), &mut rng);
                        latency.record(f.ready_at.saturating_since(now));
                        now = f.ready_at;
                    }
                    Ok((latency, now))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Error::InvalidState("loader thread panicked".into())))
            })
            .collect()
    });
    let mut latency = LatencyHistogram::new();
    let mut elapsed = SimTime::ZERO;
    for r in per_thread {
        let (hist, now) = r?;
        latency.merge(&hist);
        elapsed = elapsed.max(now);
    }
    Ok(ReplayReport {
        stats: cache.stats().delta_since(&start_stats),
        latency,
        elapsed: elapsed.saturating_since(SimTime::ZERO),
    })
}

/// The outcome of a pipelined (compute/IO-overlapped) replay.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchReplayReport {
    /// The usual replay accounting. With prefetching the latency
    /// histogram records per-access *stall* (delivery minus request),
    /// not raw storage time, and `elapsed` includes per-sample compute.
    pub report: ReplayReport,
    /// Total time the consumer stalled waiting on data.
    pub stall: SimDuration,
    /// Prefetcher counters; all zero at depth 0 (no prefetcher runs).
    pub prefetch: PrefetchReport,
}

/// Replay `trace` with a simulated compute/IO overlap clock: the
/// consumer spends `compute` per sample, and a clairvoyant prefetcher
/// of lookahead `depth` issues the known access order ahead of it
/// (DESIGN.md §11), so per-access cost is `max(compute, stall)` instead
/// of `compute + fetch`.
///
/// `depth == 0` disables the prefetcher: every access is a demand fetch
/// whose full storage latency is a stall. The access *order* seen by
/// the cache is identical at every depth (plan order), so time-agnostic
/// policies count identically across depths; policies with time-paced
/// machinery (e.g. iCache's background package loader) may shift
/// because issue timestamps feed their pacing.
pub fn replay_prefetch(
    trace: &Trace,
    dataset: &Dataset,
    cache: &mut dyn CacheSystem,
    storage: &mut dyn StorageBackend,
    depth: usize,
    compute: SimDuration,
    obs: icache_obs::Obs,
) -> Result<PrefetchReplayReport> {
    let start_stats = cache.stats();
    let (latency, stall, end, prefetch) = if depth == 0 {
        let (latency, stall, end) = replay_sequential(trace, dataset, cache, storage, compute);
        (latency, stall, end, PrefetchReport::default())
    } else {
        let plan: Vec<PlannedAccess> = trace
            .records
            .iter()
            .map(|r| PlannedAccess {
                job: r.job,
                id: r.sample,
                size: dataset.sample_size(r.sample),
            })
            .collect();
        let mut pipe = PrefetchPipeline::new(depth, plan, SimTime::ZERO, obs)?;
        let mut now = SimTime::ZERO;
        let mut latency = LatencyHistogram::new();
        let mut stall = SimDuration::ZERO;
        for pos in 0..trace.records.len() {
            let f = pipe.fetch(pos, now, cache, storage);
            let wait = f.ready_at.saturating_since(now);
            latency.record(wait);
            stall += wait;
            now = f.ready_at + compute;
        }
        (latency, stall, now, pipe.finish())
    };
    Ok(PrefetchReplayReport {
        report: ReplayReport {
            stats: cache.stats().delta_since(&start_stats),
            latency,
            elapsed: end.saturating_since(SimTime::ZERO),
        },
        stall,
        prefetch,
    })
}

/// Convenience: a one-line summary string for reports.
pub fn summarize(report: &ReplayReport) -> String {
    format!(
        "hits {:.1}% | p50 {} | p99 {} | elapsed {}",
        report.hit_ratio() * 100.0,
        report.latency.quantile(0.5),
        report.latency.quantile(0.99),
        report.elapsed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_baselines::LruCache;
    use icache_storage::LocalTier;
    use icache_types::{ByteSize, DatasetBuilder, SizeModel};

    fn dataset(n: u64) -> Dataset {
        DatasetBuilder::new("rp", n)
            .size_model(SizeModel::Fixed(ByteSize::kib(3)))
            .build()
            .unwrap()
    }

    #[test]
    fn zipf_concentrates_on_low_ids() {
        let t = AccessPattern::Zipf { s: 1.1 }
            .generate(10_000, 20_000, JobId(0), 7)
            .unwrap();
        let head = t.records().iter().filter(|r| r.sample.0 < 100).count();
        assert!(head > 8_000, "zipf head too light: {head}");
    }

    #[test]
    fn epoch_shuffle_visits_everything_once_per_epoch() {
        let t = AccessPattern::EpochShuffle
            .generate(50, 100, JobId(0), 7)
            .unwrap();
        let first: std::collections::HashSet<u64> =
            t.records()[..50].iter().map(|r| r.sample.0).collect();
        assert_eq!(first.len(), 50, "first epoch is a permutation");
    }

    #[test]
    fn lru_loves_zipf_and_hates_scans() {
        let ds = dataset(10_000);
        let cap = ds.total_bytes().scaled(0.1);

        let zipf = AccessPattern::Zipf { s: 1.1 }
            .generate(10_000, 30_000, JobId(0), 1)
            .unwrap();
        let mut lru = LruCache::new(cap);
        let mut st = LocalTier::tmpfs();
        let z = replay(&zipf, &ds, &mut lru, &mut st);

        let scan = AccessPattern::Scan
            .generate(10_000, 30_000, JobId(0), 1)
            .unwrap();
        let mut lru = LruCache::new(cap);
        let mut st = LocalTier::tmpfs();
        let s = replay(&scan, &ds, &mut lru, &mut st);

        assert!(z.hit_ratio() > 0.5, "zipf hit ratio {}", z.hit_ratio());
        assert!(s.hit_ratio() < 0.01, "scan hit ratio {}", s.hit_ratio());
        assert!(z.elapsed < s.elapsed);
    }

    #[test]
    fn jsonl_roundtrip_through_tracing_cache() {
        use crate::TracingCache;
        let ds = dataset(100);
        let mut traced = TracingCache::new(LruCache::new(ByteSize::kib(64)), 256);
        let mut st = LocalTier::tmpfs();
        let original = AccessPattern::Uniform
            .generate(100, 50, JobId(2), 3)
            .unwrap();
        replay(&original, &ds, &mut traced, &mut st);
        let parsed = Trace::parse_jsonl(&traced.to_jsonl()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Trace::parse_jsonl("not json").is_err());
        assert!(Trace::parse_jsonl("{\"job\":1}").is_err());
        assert!(Trace::parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn generators_validate_inputs() {
        assert!(AccessPattern::Uniform.generate(0, 10, JobId(0), 1).is_err());
        assert!(AccessPattern::Zipf { s: 0.0 }
            .generate(10, 10, JobId(0), 1)
            .is_err());
        assert!(AccessPattern::Zipf { s: f64::NAN }
            .generate(10, 10, JobId(0), 1)
            .is_err());
    }

    #[test]
    fn concurrent_replay_one_thread_matches_sequential() {
        use icache_core::MutexCache;
        let ds = dataset(500);
        let cap = ds.total_bytes().scaled(0.2);
        let t = AccessPattern::Zipf { s: 1.1 }
            .generate(500, 2_000, JobId(0), 9)
            .unwrap();

        let mut lru = LruCache::new(cap);
        let mut st = LocalTier::tmpfs();
        let seq = replay(&t, &ds, &mut lru, &mut st);

        let shared = MutexCache::new(Box::new(LruCache::new(cap)));
        let conc =
            replay_concurrent(&t, &ds, &shared, 1, 9, || Ok(Box::new(LocalTier::tmpfs()))).unwrap();
        assert_eq!(seq.stats, conc.stats);
        assert_eq!(seq.elapsed, conc.elapsed);
        assert_eq!(
            seq.latency.quantile(0.99),
            conc.latency.quantile(0.99),
            "one loader thread visits records in sequential order"
        );
    }

    /// `IcacheManager` and a `ConcurrentManager` on one loader thread
    /// agree on everything the H side decides: hits, admission,
    /// eviction, and the epoch-end H/L rebalance — at one stripe and at
    /// four, since H decisions must not depend on the stripe count.
    /// ROADMAP item 2 records that their L paths still diverge
    /// (substitutions and misses differ at one loader thread), so L-side
    /// counters are deliberately not compared.
    #[test]
    fn one_stripe_concurrent_manager_matches_sequential_h_side() {
        use icache_core::{ConcurrentManager, IcacheConfig, IcacheManager};
        use icache_sampling::{HList, ImportanceTable};
        use icache_storage::{Pfs, PfsConfig};
        use icache_types::Epoch;

        let universe = 2_000;
        let ds = dataset(universe);
        for pattern in [
            AccessPattern::Zipf { s: 1.1 },
            AccessPattern::Uniform,
            AccessPattern::EpochShuffle,
        ] {
            let t = pattern.generate(universe, 20_000, JobId(0), 11).unwrap();
            // Trace popularity as importance, top half as H-samples.
            let mut counts = vec![0.0; universe as usize];
            for r in t.records() {
                counts[r.sample.index()] += 1.0;
            }
            let mut table = ImportanceTable::new(universe);
            for (id, &count) in counts.iter().enumerate() {
                if count > 0.0 {
                    table.record_loss(SampleId(id as u64), count);
                }
            }
            let hlist = HList::top_fraction(&table, 0.5);
            let mut cfg = IcacheConfig::for_dataset(&ds, 0.1).unwrap();
            // Packages small enough that the epoch-end rebalance can
            // move the H/L split of this test-sized cache.
            cfg.package_size = ByteSize::kib(48);

            let mut seq = IcacheManager::new(cfg.clone(), &ds).unwrap();
            seq.update_hlist(JobId(0), &hlist);
            seq.on_epoch_start(JobId(0), Epoch(0));
            let mut pfs = Pfs::new(PfsConfig::orangefs_default()).unwrap();
            let s = replay(&t, &ds, &mut seq, &mut pfs).stats;
            seq.on_epoch_end(JobId(0), Epoch(0));

            assert!(s.h_hits > 0, "{pattern:?}: trace never hit H");
            for stripes in [1, 4] {
                let conc = ConcurrentManager::new(cfg.clone(), &ds, stripes).unwrap();
                conc.update_hlist(JobId(0), &hlist);
                conc.on_epoch_start(JobId(0), Epoch(0));
                let c = replay_concurrent(&t, &ds, &conc, 1, 11, || {
                    Ok(Box::new(Pfs::new(PfsConfig::orangefs_default())?))
                })
                .unwrap()
                .stats;
                conc.on_epoch_end(JobId(0), Epoch(0));

                let at = format!("{pattern:?} at {stripes} stripes");
                assert_eq!(s.h_hits, c.h_hits, "{at}: h_hits");
                assert_eq!(s.insertions, c.insertions, "{at}: insertions");
                assert_eq!(s.evictions, c.evictions, "{at}: evictions");
                assert_eq!(s.rejections, c.rejections, "{at}: rejections");
                assert_eq!(seq.h_capacity(), conc.h_capacity(), "{at}: H size");
                assert_eq!(seq.l_capacity(), conc.l_capacity(), "{at}: L size");
            }
        }
    }

    #[test]
    fn concurrent_replay_counters_sum_across_threads() {
        use icache_core::MutexCache;
        let ds = dataset(500);
        let t = AccessPattern::Uniform
            .generate(500, 4_000, JobId(0), 5)
            .unwrap();
        let shared = MutexCache::new(Box::new(LruCache::new(ds.total_bytes().scaled(0.2))));
        let rep =
            replay_concurrent(&t, &ds, &shared, 4, 5, || Ok(Box::new(LocalTier::tmpfs()))).unwrap();
        assert_eq!(
            rep.stats.requests(),
            4_000,
            "per-thread fetches must add up exactly"
        );
        assert!(
            replay_concurrent(&t, &ds, &shared, 0, 5, || Ok(Box::new(LocalTier::tmpfs()))).is_err()
        );
    }

    #[test]
    fn prefetch_depth_zero_matches_demand_access_stream() {
        let ds = dataset(2_000);
        let cap = ds.total_bytes().scaled(0.1);
        let t = AccessPattern::Zipf { s: 1.1 }
            .generate(2_000, 6_000, JobId(0), 3)
            .unwrap();

        let mut lru = LruCache::new(cap);
        let mut st =
            icache_storage::Pfs::new(icache_storage::PfsConfig::orangefs_default()).unwrap();
        let seq = replay(&t, &ds, &mut lru, &mut st);

        let mut lru = LruCache::new(cap);
        let mut st =
            icache_storage::Pfs::new(icache_storage::PfsConfig::orangefs_default()).unwrap();
        let p0 = replay_prefetch(
            &t,
            &ds,
            &mut lru,
            &mut st,
            0,
            SimDuration::ZERO,
            icache_obs::Obs::noop(),
        )
        .unwrap();
        assert_eq!(seq.stats, p0.report.stats, "same access stream");
        assert_eq!(seq.elapsed, p0.report.elapsed, "zero compute, depth 0");
        assert_eq!(
            p0.stall, p0.report.elapsed,
            "with zero compute at depth 0 the whole replay is stall"
        );
        assert_eq!(p0.prefetch, icache_core::PrefetchReport::default());
    }

    #[test]
    fn prefetch_stall_non_increasing_in_depth() {
        let ds = dataset(2_000);
        let cap = ds.total_bytes().scaled(0.1);
        let t = AccessPattern::Zipf { s: 1.1 }
            .generate(2_000, 6_000, JobId(0), 3)
            .unwrap();
        let compute = SimDuration::from_micros(150);
        let mut stalls = Vec::new();
        let mut stats = Vec::new();
        for depth in [0usize, 1, 4, 16] {
            let mut lru = LruCache::new(cap);
            let mut st =
                icache_storage::Pfs::new(icache_storage::PfsConfig::orangefs_default()).unwrap();
            let rep = replay_prefetch(
                &t,
                &ds,
                &mut lru,
                &mut st,
                depth,
                compute,
                icache_obs::Obs::noop(),
            )
            .unwrap();
            if depth > 0 {
                assert_eq!(
                    rep.prefetch.hits + rep.prefetch.late,
                    t.len() as u64,
                    "conservation: every consumed access is a hit or late"
                );
                assert_eq!(rep.prefetch.issued, t.len() as u64);
                assert_eq!(rep.prefetch.cancelled, 0);
            }
            stalls.push(rep.stall);
            stats.push(rep.report.stats);
        }
        for s in &stats[1..] {
            assert_eq!(&stats[0], s, "cache behavior identical across depths");
        }
        for pair in stalls.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "stall must not increase with depth: {stalls:?}"
            );
        }
        assert!(
            *stalls.last().unwrap() < stalls[0],
            "deep lookahead hides some storage latency: {stalls:?}"
        );
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let ds = dataset(100);
        let mut lru = LruCache::new(ByteSize::kib(64));
        let mut st = LocalTier::tmpfs();
        let t = AccessPattern::Scan.generate(100, 100, JobId(0), 1).unwrap();
        let rep = replay(&t, &ds, &mut lru, &mut st);
        let s = summarize(&rep);
        assert!(s.contains("hits"));
        assert!(s.contains("p99"));
    }
}
