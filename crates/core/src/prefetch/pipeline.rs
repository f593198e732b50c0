//! The clairvoyant prefetch scheduler (DESIGN.md §11).
//!
//! IIS/CIS fix the *entire* epoch's access order before the epoch
//! begins, so the loader knows every fetch it will ever make — the
//! premise of NoPFS-style clairvoyant prefetching. The
//! [`PrefetchPipeline`] walks that plan ahead of the consumer, keeping
//! at most `depth` fetches in flight
//! ([`crate::prefetch::InflightWindow`]): each fetch is issued the
//! moment a window slot is available, so up to `depth` storage reads
//! overlap in the backend's queueing model. By the time the consumer
//! asks for plan position `i` the data is usually already resident and
//! the per-request cost collapses from `compute + fetch` to
//! `max(compute, stall)`.
//!
//! Package granularity for L-samples comes for free: the pipeline
//! issues through the same [`crate::CacheSystem`], so the first
//! L-sample of a substitution group loads its whole ≥ 1 MB package and
//! every later member of the group is a cheap L-hit.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use icache_obs::{Obs, TraceEvent};
use icache_storage::StorageBackend;
use icache_types::{ByteSize, Error, JobId, Result, SampleId, SimTime};

use crate::prefetch::InflightWindow;
use crate::system::{CacheSystem, Fetch};

/// One planned access in an epoch's fetch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedAccess {
    /// Job that will consume the sample.
    pub job: JobId,
    /// Sample to fetch.
    pub id: SampleId,
    /// Its size in bytes.
    pub size: ByteSize,
}

/// One entry of the prefetcher's issue log: which plan position was
/// issued, in issue order, and how many fetches were in flight right
/// after the issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRecord {
    /// Zero-based position in the epoch plan.
    pub position: u64,
    /// The sample at that position.
    pub sample: SampleId,
    /// In-flight population immediately after this issue (≤ depth).
    pub in_flight: usize,
}

/// End-of-epoch accounting returned by [`PrefetchPipeline::finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchReport {
    /// Lookahead fetches issued by the prefetcher.
    pub issued: u64,
    /// Consumed positions whose data was resident before the consumer
    /// asked (stall == 0).
    pub hits: u64,
    /// Consumed positions the consumer had to wait for — still in
    /// flight, or demand-fetched outside the window.
    pub late: u64,
    /// Planned positions the prefetcher skipped (already demand-fetched)
    /// plus issues never consumed before the epoch ended.
    pub cancelled: u64,
    /// Total time consumers spent stalled waiting on data.
    pub stall: icache_types::SimDuration,
    /// The exact issue order, for invariant checks.
    pub issue_log: Vec<IssueRecord>,
}

/// A deterministic lookahead prefetcher over one epoch's known plan.
///
/// Issues happen in plan order, each at the virtual time the window
/// slot it occupies was freed by a past delivery (with `depth` slots
/// free at the epoch start) — so up to `depth` storage reads are
/// outstanding at once, and the storage backend's own queueing model
/// decides how much of that concurrency turns into throughput. The
/// consumer calls [`fetch`] with the plan position it wants; a position
/// never issued (possible when a multi-worker consumer runs far out of
/// plan order) falls back to a demand fetch at the request time and is
/// counted late.
///
/// [`fetch`]: PrefetchPipeline::fetch
#[derive(Debug)]
pub struct PrefetchPipeline {
    plan: Vec<PlannedAccess>,
    window: InflightWindow,
    /// Next plan index the prefetcher has not yet issued or skipped.
    next_issue: usize,
    /// Times at which window slots were freed, oldest first; an issue
    /// starts exactly when the slot it reuses became free (causality:
    /// the prefetcher cannot use capacity before a delivery released
    /// it).
    slot_free: VecDeque<SimTime>,
    /// Completed prefetches awaiting their consumer, by plan position.
    ready: BTreeMap<u64, Fetch>,
    consumed: Vec<bool>,
    report: PrefetchReport,
    obs: Obs,
}

impl PrefetchPipeline {
    /// Build a pipeline of `depth` over `plan`, with all window slots
    /// free at `start` (the epoch start). `depth == 0` is refused: the
    /// caller must bypass the pipeline entirely so depth 0 stays
    /// byte-identical to the unpiped driver.
    pub fn new(depth: usize, plan: Vec<PlannedAccess>, start: SimTime, obs: Obs) -> Result<Self> {
        if depth == 0 {
            return Err(Error::InvalidState(
                "prefetch pipeline requires depth >= 1; depth 0 must bypass the pipeline".into(),
            ));
        }
        let consumed = vec![false; plan.len()];
        Ok(PrefetchPipeline {
            plan,
            window: InflightWindow::new(depth),
            next_issue: 0,
            slot_free: VecDeque::from(vec![start; depth]),
            ready: BTreeMap::new(),
            consumed,
            report: PrefetchReport::default(),
            obs,
        })
    }

    /// The configured lookahead depth.
    pub fn depth(&self) -> usize {
        self.window.depth()
    }

    /// Issue lookahead fetches in plan order while a window slot is
    /// free. Each issue starts at the freeing time of the oldest free
    /// slot, so the backend sees up to `depth` temporally-overlapping
    /// reads and its queueing model sets their completion times.
    fn pump(&mut self, cache: &mut dyn CacheSystem, storage: &mut dyn StorageBackend) {
        while self.next_issue < self.plan.len() {
            let pos = self.next_issue;
            if self.consumed[pos] {
                // Demand-fetched before the sweep got here: skip it.
                self.report.cancelled += 1;
                self.obs.inc("prefetch.cancelled");
                self.next_issue += 1;
                continue;
            }
            let Some(&slot_freed) = self.slot_free.front() else {
                break; // window full
            };
            if !self.window.try_issue(pos as u64) {
                break;
            }
            self.slot_free.pop_front();
            let access = self.plan[pos];
            let fetch = cache.fetch(access.job, access.id, access.size, slot_freed, storage);
            self.ready.insert(pos as u64, fetch);
            self.report.issued += 1;
            self.report.issue_log.push(IssueRecord {
                position: pos as u64,
                sample: access.id,
                in_flight: self.window.in_flight(),
            });
            self.obs.inc("prefetch.issued");
            self.obs.emit(TraceEvent::PrefetchIssue {
                job: access.job.0 as u64,
                sample: access.id.0,
                position: pos as u64,
            });
            self.next_issue += 1;
        }
    }

    /// Consume plan position `position` at virtual time `now`.
    ///
    /// Returns the fetch as the consumer experiences it: `ready_at` is
    /// when the data is in the consumer's hands (`max(now, prefetch
    /// completion)`), so the consumer's stall is `ready_at - now`. A
    /// position the prefetcher never reached is demand-fetched at `now`
    /// and counted late.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range or already consumed — the
    /// plan-driven callers index straight from the epoch plan.
    pub fn fetch(
        &mut self,
        position: usize,
        now: SimTime,
        cache: &mut dyn CacheSystem,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        assert!(
            position < self.plan.len() && !self.consumed[position],
            "prefetch consumer must visit each plan position exactly once"
        );
        self.pump(cache, storage);
        let access = self.plan[position];
        let fetch = match self.ready.remove(&(position as u64)) {
            Some(prefetched) => {
                let delivered = self.window.consume(position as u64);
                debug_assert!(delivered, "ready entries are always in flight");
                let stall = prefetched.ready_at.saturating_since(now);
                if stall.is_zero() {
                    self.report.hits += 1;
                    self.obs.inc("prefetch.hits");
                } else {
                    self.report.late += 1;
                    self.report.stall += stall;
                    self.obs.inc("prefetch.late");
                    self.obs.emit(TraceEvent::PrefetchLate {
                        job: access.job.0 as u64,
                        sample: access.id.0,
                        position: position as u64,
                        wait_nanos: stall.as_nanos(),
                    });
                }
                let delivered_at = now.max(prefetched.ready_at);
                self.slot_free.push_back(delivered_at);
                Fetch {
                    ready_at: delivered_at,
                    ..prefetched
                }
            }
            None => {
                // The sweep has not reached this position (out-of-order
                // consumption beyond the lookahead): demand-fetch it.
                let fetch = cache.fetch(access.job, access.id, access.size, now, storage);
                let stall = fetch.ready_at.saturating_since(now);
                self.report.late += 1;
                self.report.stall += stall;
                self.obs.inc("prefetch.late");
                self.obs.emit(TraceEvent::PrefetchLate {
                    job: access.job.0 as u64,
                    sample: access.id.0,
                    position: position as u64,
                    wait_nanos: stall.as_nanos(),
                });
                fetch
            }
        };
        self.consumed[position] = true;
        fetch
    }

    /// Close the epoch: leftover issued-but-unconsumed prefetches are
    /// counted cancelled, and the final accounting is returned.
    pub fn finish(mut self) -> PrefetchReport {
        let leftovers = self.ready.len() as u64;
        if leftovers > 0 {
            self.report.cancelled += leftovers;
            self.obs.add("prefetch.cancelled", leftovers);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_storage::{Pfs, PfsConfig};
    use icache_types::{Dataset, SimDuration};

    fn plan_for(dataset: &Dataset, n: usize) -> Vec<PlannedAccess> {
        (0..n)
            .map(|i| {
                let id = SampleId(i as u64 % dataset.len());
                PlannedAccess {
                    job: JobId(0),
                    id,
                    size: dataset.sample_size(id),
                }
            })
            .collect()
    }

    fn lru(dataset: &Dataset) -> Box<dyn CacheSystem> {
        Box::new(LruStub::new(dataset.total_bytes() / 10))
    }

    // A tiny in-test LRU stand-in so the core crate's unit tests don't
    // depend on icache-baselines (which depends on core).
    struct LruStub {
        cap: ByteSize,
        used: ByteSize,
        resident: BTreeMap<SampleId, (ByteSize, u64)>,
        tick: u64,
        stats: crate::CacheStats,
    }

    impl LruStub {
        fn new(cap: ByteSize) -> Self {
            LruStub {
                cap,
                used: ByteSize::ZERO,
                resident: BTreeMap::new(),
                tick: 0,
                stats: crate::CacheStats::default(),
            }
        }
    }

    impl CacheSystem for LruStub {
        fn name(&self) -> &str {
            "lru-stub"
        }

        fn fetch(
            &mut self,
            _job: JobId,
            id: SampleId,
            size: ByteSize,
            now: SimTime,
            storage: &mut dyn StorageBackend,
        ) -> Fetch {
            self.tick += 1;
            if let Some(entry) = self.resident.get_mut(&id) {
                entry.1 = self.tick;
                self.stats.h_hits += 1;
                return Fetch {
                    ready_at: now + SimDuration::from_micros(1),
                    served_id: id,
                    outcome: crate::FetchOutcome::HitH,
                };
            }
            let ready_at = storage.read_sample(id, size, now);
            while self.used.as_u64() + size.as_u64() > self.cap.as_u64() {
                let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, v)| v.1) else {
                    break;
                };
                let (vsize, _) = self
                    .resident
                    .remove(&victim)
                    .expect("victim chosen from resident map must be present");
                self.used = self.used.saturating_sub(vsize);
            }
            if size.as_u64() <= self.cap.as_u64() {
                self.resident.insert(id, (size, self.tick));
                self.used += size;
            }
            self.stats.misses += 1;
            Fetch {
                ready_at,
                served_id: id,
                outcome: crate::FetchOutcome::Miss,
            }
        }

        fn stats(&self) -> crate::CacheStats {
            self.stats
        }

        fn reset_stats(&mut self) {
            self.stats = crate::CacheStats::default();
        }

        fn used_bytes(&self) -> ByteSize {
            self.used
        }

        fn capacity(&self) -> ByteSize {
            self.cap
        }
    }

    #[test]
    fn depth_zero_is_refused() {
        let err = PrefetchPipeline::new(0, Vec::new(), SimTime::ZERO, Obs::noop());
        assert!(err.is_err(), "depth 0 must bypass the pipeline");
    }

    #[test]
    fn sequential_consumption_issues_every_position_once() {
        let dataset = Dataset::cifar10()
            .scaled(0.01)
            .expect("valid scale fraction");
        let plan = plan_for(&dataset, 64);
        let mut cache = lru(&dataset);
        let mut storage = Pfs::new(PfsConfig::orangefs_default()).expect("default PFS config");
        let mut pipe =
            PrefetchPipeline::new(4, plan.clone(), SimTime::ZERO, Obs::noop()).expect("depth 4");
        let mut now = SimTime::ZERO;
        for pos in 0..plan.len() {
            let f = pipe.fetch(pos, now, cache.as_mut(), &mut storage);
            assert!(f.ready_at >= now);
            now = f.ready_at + SimDuration::from_micros(50);
        }
        let report = pipe.finish();
        assert_eq!(report.issued, plan.len() as u64, "every position issued");
        assert_eq!(report.cancelled, 0);
        assert_eq!(
            report.hits + report.late,
            plan.len() as u64,
            "conservation: every consumed position is a hit or late"
        );
        let mut positions: Vec<u64> = report.issue_log.iter().map(|r| r.position).collect();
        assert!(
            report.issue_log.iter().all(|r| r.in_flight <= 4),
            "issue log never exceeds depth"
        );
        positions.dedup();
        assert_eq!(positions.len(), plan.len(), "issue stream duplicate-free");
    }

    #[test]
    fn deeper_window_never_increases_stall() {
        let dataset = Dataset::cifar10()
            .scaled(0.01)
            .expect("valid scale fraction");
        let plan = plan_for(&dataset, 128);
        let compute = SimDuration::from_micros(200);
        let mut stalls = Vec::new();
        for depth in [1usize, 2, 4, 8] {
            let mut cache = lru(&dataset);
            let mut storage = Pfs::new(PfsConfig::orangefs_default()).expect("default PFS config");
            let mut pipe = PrefetchPipeline::new(depth, plan.clone(), SimTime::ZERO, Obs::noop())
                .expect("nonzero depth");
            let mut now = SimTime::ZERO;
            for pos in 0..plan.len() {
                let f = pipe.fetch(pos, now, cache.as_mut(), &mut storage);
                now = f.ready_at + compute;
            }
            stalls.push(pipe.finish().stall);
        }
        for pair in stalls.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "stall must be non-increasing in depth: {stalls:?}"
            );
        }
    }

    #[test]
    fn out_of_order_consumer_demand_fetches_late_positions() {
        let dataset = Dataset::cifar10()
            .scaled(0.01)
            .expect("valid scale fraction");
        let plan = plan_for(&dataset, 16);
        let mut cache = lru(&dataset);
        let mut storage = Pfs::new(PfsConfig::orangefs_default()).expect("default PFS config");
        let mut pipe =
            PrefetchPipeline::new(2, plan.clone(), SimTime::ZERO, Obs::noop()).expect("depth 2");
        // Jump straight to the last position: far outside the window.
        let f = pipe.fetch(plan.len() - 1, SimTime::ZERO, cache.as_mut(), &mut storage);
        assert!(f.ready_at > SimTime::ZERO, "demand fetch pays storage time");
        // Now walk the rest; the skipped position is swept as cancelled.
        let mut now = f.ready_at;
        for pos in 0..plan.len() - 1 {
            let f = pipe.fetch(pos, now, cache.as_mut(), &mut storage);
            now = f.ready_at;
        }
        let report = pipe.finish();
        assert_eq!(report.hits + report.late, plan.len() as u64);
        assert!(report.late >= 1, "the jumped position was late");
        assert_eq!(
            report.issued + report.cancelled,
            report.issue_log.len() as u64 + report.cancelled,
            "issue log matches issued count"
        );
    }
}
