//! The traced run's span recorder and the decorators that feed it.
//!
//! Every span has a kind, a start, an end and a parent. Spans nest on a
//! per-thread stack, so a layer's *self* time is its span's duration
//! minus the time its child spans cover. Self and total times are
//! aggregated per kind in memory; full span records are kept only for a
//! bounded, strided sample of request trees (one tree = one direct child
//! of a root span together with everything beneath it), so a run with
//! millions of fetches stays small.
//!
//! The decorators forward every call verbatim to the wrapped layer and
//! only time it, so a traced run computes exactly what an untraced run
//! computes (`tests/transparent.rs` checks this by digest).

use icache_core::{CacheStats, CacheSystem, ConcurrentCache, Fetch};
use icache_obs::Obs;
use icache_sampling::HList;
use icache_storage::{StorageBackend, StorageStats};
use icache_types::{ByteSize, Epoch, JobId, SampleId, SimTime};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a span measures. Each kind belongs to one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The driver: a training job's step loop or a replay loop.
    Driver,
    /// One cache fetch (`CacheSystem::fetch` or `ConcurrentCache::fetch`).
    Fetch,
    /// An epoch hook: `update_hlist`, `on_epoch_start` or `on_epoch_end`.
    Hook,
    /// `StorageBackend::read_sample` (demand read).
    SampleRead,
    /// `StorageBackend::read_samples` (bulk read).
    BulkRead,
    /// `StorageBackend::read_package`.
    PackageRead,
    /// `StorageBackend::release_before` (timeline pruning).
    Release,
}

/// Number of span kinds.
pub const KINDS: usize = 7;

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; KINDS] = [
        Kind::Driver,
        Kind::Fetch,
        Kind::Hook,
        Kind::SampleRead,
        Kind::BulkRead,
        Kind::PackageRead,
        Kind::Release,
    ];

    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Driver => "sim.driver",
            Kind::Fetch => "cache.fetch",
            Kind::Hook => "cache.epoch_hook",
            Kind::SampleRead => "storage.sample_read",
            Kind::BulkRead => "storage.bulk_read",
            Kind::PackageRead => "storage.package_read",
            Kind::Release => "storage.release",
        }
    }

    /// The layer a kind's self time is charged to.
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Driver => "sim",
            Kind::Fetch | Kind::Hook => "cache",
            _ => "storage",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Host-time totals of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindTotals {
    /// Spans closed.
    pub calls: u64,
    /// Requests handled, counted for bulk reads only.
    pub items: u64,
    /// Span durations summed.
    pub total_ns: u64,
    /// Durations minus child-span time, summed.
    pub self_ns: u64,
}

/// Simulated-time tallies the decorators take from the values they
/// forward. Only accesses made while counting is on are tallied (the
/// training workloads switch it off for the cold epoch 0).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelTally {
    /// Fetches served from cache (hits and substitutions).
    pub hits: u64,
    /// Their simulated latency, summed.
    pub hit_ns: u64,
    /// Fetches served from storage.
    pub misses: u64,
    /// Their simulated latency, summed.
    pub miss_ns: u64,
    /// `StorageStats::service_time` added by demand reads.
    pub demand_service_ns: u64,
}

/// Everything one thread (or a merge of threads) recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Per-kind host times, indexed like [`Kind::ALL`].
    pub kinds: [KindTotals; KINDS],
    /// Durations of root spans (spans opened on an empty stack), summed.
    pub roots_ns: u64,
    /// The longest root span.
    pub max_root_ns: u64,
    /// Simulated-time tallies.
    pub model: ModelTally,
}

impl Totals {
    /// Totals of one kind.
    pub fn kind(&self, k: Kind) -> KindTotals {
        self.kinds[k.index()]
    }

    /// Self time summed over every kind.
    pub fn self_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.self_ns).sum()
    }

    /// Self time of the kinds charged to `layer`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|k| self.kind(*k).self_ns)
            .sum()
    }

    /// Add `other` into `self`.
    pub fn merge(&mut self, other: &Totals) {
        for (a, b) in self.kinds.iter_mut().zip(other.kinds.iter()) {
            a.calls += b.calls;
            a.items += b.items;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        self.roots_ns += other.roots_ns;
        self.max_root_ns = self.max_root_ns.max(other.max_root_ns);
        let (m, o) = (&mut self.model, &other.model);
        m.hits += o.hits;
        m.hit_ns += o.hit_ns;
        m.misses += o.misses;
        m.miss_ns += o.miss_ns;
        m.demand_service_ns += o.demand_service_ns;
    }
}

/// One recorded span. Times are nanoseconds since the process's first
/// span; `parent` is 0 for a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (thread number in the high bits).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Span kind.
    pub kind: Kind,
    /// Start, ns since the trace base.
    pub start_ns: u64,
    /// End, ns since the trace base.
    pub end_ns: u64,
}

impl SpanRecord {
    /// One JSON line for the span file.
    pub fn to_json_line(&self, label: &str) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.id,
            self.parent,
            self.kind.name(),
            label,
            self.start_ns,
            self.end_ns
        )
    }
}

/// Every `SAMPLE_STRIDE`-th request tree is kept in full ...
pub const SAMPLE_STRIDE: u64 = 4096;
/// ... until a thread holds this many span records.
pub const SAMPLE_CAP: usize = 4096;

struct Open {
    kind: Kind,
    id: u64,
    start: Instant,
    child_ns: u64,
    sampled: bool,
}

struct Tracer {
    thread: u64,
    next_id: u64,
    stack: Vec<Open>,
    totals: Totals,
    trees: u64,
    records: Vec<SpanRecord>,
    counting: bool,
}

static BASE: OnceLock<Instant> = OnceLock::new();
static THREADS: AtomicU64 = AtomicU64::new(0);
static COLLECTED: Mutex<Option<(Totals, Vec<SpanRecord>)>> = Mutex::new(None);

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        thread: THREADS.fetch_add(1, Ordering::Relaxed) + 1,
        next_id: 0,
        stack: Vec::new(),
        totals: Totals::default(),
        trees: 0,
        records: Vec::new(),
        counting: true,
    });
}

/// Nanoseconds from the first root span to `t`.
fn since_base(t: Instant) -> u64 {
    t.saturating_duration_since(*BASE.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// Open a span of `kind` on this thread's stack.
pub fn enter(kind: Kind) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let sampled = match t.stack.last() {
            None => {
                BASE.get_or_init(Instant::now);
                true
            }
            Some(p) if p.sampled && t.stack.len() > 1 => true,
            Some(_) if t.stack.len() == 1 => {
                t.trees += 1;
                t.trees % SAMPLE_STRIDE == 1 && t.records.len() < SAMPLE_CAP
            }
            Some(_) => false,
        };
        t.next_id += 1;
        let id = (t.thread << 40) | t.next_id;
        t.stack.push(Open {
            kind,
            id,
            start: Instant::now(),
            child_ns: 0,
            sampled,
        });
    });
}

/// Close the innermost open span, which must be of `kind`.
pub fn exit(kind: Kind) {
    let end = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let open = t.stack.pop().expect("span exit without a matching enter");
        debug_assert_eq!(open.kind, kind, "spans must close innermost first");
        let dur = end.saturating_duration_since(open.start).as_nanos() as u64;
        let k = &mut t.totals.kinds[open.kind.index()];
        k.calls += 1;
        k.total_ns += dur;
        k.self_ns += dur.saturating_sub(open.child_ns);
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => {
                t.totals.roots_ns += dur;
                t.totals.max_root_ns = t.totals.max_root_ns.max(dur);
                0
            }
        };
        if open.sampled {
            let rec = SpanRecord {
                id: open.id,
                parent,
                kind: open.kind,
                start_ns: since_base(open.start),
                end_ns: since_base(end),
            };
            t.records.push(rec);
        }
    });
}

/// Run `f` inside a span of `kind`.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    enter(kind);
    let r = f();
    exit(kind);
    r
}

fn add_items(kind: Kind, extra: u64) {
    TRACER.with(|t| t.borrow_mut().totals.kinds[kind.index()].items += extra);
}

/// Tally simulated time on this thread, if counting is on.
pub fn tally(f: impl FnOnce(&mut ModelTally)) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.counting {
            f(&mut t.totals.model);
        }
    });
}

/// Switch simulated-time tallies on or off for this thread.
pub fn set_counting(on: bool) {
    TRACER.with(|t| t.borrow_mut().counting = on);
}

/// Take and clear this thread's totals and span records. Counting is
/// switched back on.
pub fn take_thread() -> (Totals, Vec<SpanRecord>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "taking a trace with spans still open");
        t.trees = 0;
        t.counting = true;
        (
            std::mem::take(&mut t.totals),
            std::mem::take(&mut t.records),
        )
    })
}

/// Move this thread's recording into the process-wide collection (for
/// threads that end before the run is reported).
pub fn flush_thread() {
    let (totals, records) = take_thread();
    let mut c = COLLECTED.lock().expect("trace collection lock poisoned");
    let (all, recs) = c.get_or_insert_with(Default::default);
    all.merge(&totals);
    recs.extend(records);
}

/// Take and clear everything flushed by other threads.
pub fn take_collected() -> (Totals, Vec<SpanRecord>) {
    COLLECTED
        .lock()
        .expect("trace collection lock poisoned")
        .take()
        .unwrap_or_default()
}

/// Demand-read service time of one call: the growth of the backend's
/// `service_time` counter across it.
fn service_ns(before: &StorageStats, after: &StorageStats) -> u64 {
    after
        .service_time
        .saturating_sub(before.service_time)
        .as_nanos()
}

/// A storage backend that times every call and forwards it verbatim.
///
/// Built with [`TracedStorage::loader`], it also brackets the thread it
/// lives on with a root driver span (a replay loader thread builds its
/// storage first and drops it last) and, when dropped, flushes the
/// thread's recording and adds its final counters to `sink`.
pub struct TracedStorage {
    inner: Box<dyn StorageBackend>,
    loader: Option<Arc<Mutex<StorageStats>>>,
}

impl TracedStorage {
    /// Wrap a backend used on the caller's thread.
    pub fn new(inner: Box<dyn StorageBackend>) -> Self {
        TracedStorage {
            inner,
            loader: None,
        }
    }

    /// Wrap the backend a loader thread builds for itself.
    pub fn loader(inner: Box<dyn StorageBackend>, sink: Arc<Mutex<StorageStats>>) -> Self {
        enter(Kind::Driver);
        TracedStorage {
            inner,
            loader: Some(sink),
        }
    }
}

impl Drop for TracedStorage {
    fn drop(&mut self) {
        if let Some(sink) = self.loader.take() {
            exit(Kind::Driver);
            flush_thread();
            let stats = self.inner.stats();
            add_stats(&sink, &stats);
        }
    }
}

/// Add a backend's counters to a shared total.
pub fn add_stats(sink: &Mutex<StorageStats>, s: &StorageStats) {
    let mut t = sink.lock().expect("storage stats sink poisoned");
    t.sample_reads += s.sample_reads;
    t.package_reads += s.package_reads;
    t.sample_bytes += s.sample_bytes;
    t.package_bytes += s.package_bytes;
    t.service_time += s.service_time;
}

impl StorageBackend for TracedStorage {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_sample(&mut self, id: SampleId, size: ByteSize, now: SimTime) -> SimTime {
        let before = self.inner.stats();
        let done = span(Kind::SampleRead, || self.inner.read_sample(id, size, now));
        let after = self.inner.stats();
        tally(|m| m.demand_service_ns += service_ns(&before, &after));
        done
    }

    fn read_samples(&mut self, reqs: &[(SampleId, ByteSize)], now: SimTime) -> SimTime {
        add_items(Kind::BulkRead, reqs.len() as u64);
        span(Kind::BulkRead, || self.inner.read_samples(reqs, now))
    }

    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime {
        span(Kind::PackageRead, || self.inner.read_package(size, now))
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }

    fn release_before(&mut self, t: SimTime) {
        span(Kind::Release, || self.inner.release_before(t))
    }
}

fn tally_fetch(f: &Fetch, now: SimTime) {
    let ns = f.ready_at.saturating_since(now).as_nanos();
    tally(|m| {
        if f.outcome.served_from_cache() {
            m.hits += 1;
            m.hit_ns += ns;
        } else {
            m.misses += 1;
            m.miss_ns += ns;
        }
    });
}

/// A sequential cache that times fetches and epoch hooks, forwards them
/// verbatim, and checks `used_bytes() <= capacity()` after every hook.
pub struct TracedCache {
    inner: Box<dyn CacheSystem>,
    /// Fetches forwarded.
    pub fetches: u64,
    /// Capacity violations seen after hooks.
    pub overfull: Vec<String>,
    /// Switch tallies off during epoch 0 (training) or never (replay).
    pub skip_cold_epoch: bool,
}

impl TracedCache {
    /// Wrap a cache.
    pub fn new(inner: Box<dyn CacheSystem>, skip_cold_epoch: bool) -> Self {
        TracedCache {
            inner,
            fetches: 0,
            overfull: Vec::new(),
            skip_cold_epoch,
        }
    }

    fn check(&mut self, hook: &str) {
        let (used, cap) = (self.inner.used_bytes(), self.inner.capacity());
        if used > cap {
            self.overfull.push(format!(
                "{}: used {used} > capacity {cap} after {hook}",
                self.inner.name()
            ));
        }
    }
}

impl CacheSystem for TracedCache {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(
        &mut self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        let f = span(Kind::Fetch, || {
            self.inner.fetch(job, id, size, now, storage)
        });
        self.fetches += 1;
        tally_fetch(&f, now);
        f
    }

    fn update_hlist(&mut self, job: JobId, hlist: &HList) {
        span(Kind::Hook, || self.inner.update_hlist(job, hlist));
        self.check("update_hlist");
    }

    fn on_epoch_start(&mut self, job: JobId, epoch: Epoch) {
        if self.skip_cold_epoch {
            set_counting(epoch.0 > 0);
        }
        span(Kind::Hook, || self.inner.on_epoch_start(job, epoch));
        self.check("on_epoch_start");
    }

    fn on_epoch_end(&mut self, job: JobId, epoch: Epoch) {
        span(Kind::Hook, || self.inner.on_epoch_end(job, epoch));
        self.check("on_epoch_end");
    }

    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn used_bytes(&self) -> ByteSize {
        self.inner.used_bytes()
    }

    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }
}

/// A concurrent cache that times fetches (including lock waits) and
/// epoch hooks on whichever thread calls them, and forwards verbatim.
pub struct TracedConcurrent {
    inner: Box<dyn ConcurrentCache>,
    fetches: AtomicU64,
}

impl TracedConcurrent {
    /// Wrap a concurrent cache.
    pub fn new(inner: Box<dyn ConcurrentCache>) -> Self {
        TracedConcurrent {
            inner,
            fetches: AtomicU64::new(0),
        }
    }

    /// Fetches forwarded.
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }
}

impl ConcurrentCache for TracedConcurrent {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(
        &self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
        rng: &mut StdRng,
    ) -> Fetch {
        let f = span(Kind::Fetch, || {
            self.inner.fetch(job, id, size, now, storage, rng)
        });
        self.fetches.fetch_add(1, Ordering::Relaxed);
        tally_fetch(&f, now);
        f
    }

    fn update_hlist(&self, job: JobId, hlist: &HList) {
        span(Kind::Hook, || self.inner.update_hlist(job, hlist))
    }

    fn on_epoch_start(&self, job: JobId, epoch: Epoch) {
        span(Kind::Hook, || self.inner.on_epoch_start(job, epoch))
    }

    fn on_epoch_end(&self, job: JobId, epoch: Epoch) {
        span(Kind::Hook, || self.inner.on_epoch_end(job, epoch))
    }

    fn set_obs(&self, obs: Obs) {
        self.inner.set_obs(obs)
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn used_bytes(&self) -> ByteSize {
        self.inner.used_bytes()
    }

    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }

    fn contended(&self) -> u64 {
        self.inner.contended()
    }
}

/// The untraced counterpart of [`TracedStorage::loader`]: forwards every
/// call and, when dropped, adds the backend's final counters to `sink`.
pub struct StatsTap {
    inner: Box<dyn StorageBackend>,
    sink: Arc<Mutex<StorageStats>>,
}

impl StatsTap {
    /// Wrap a loader thread's backend.
    pub fn new(inner: Box<dyn StorageBackend>, sink: Arc<Mutex<StorageStats>>) -> Self {
        StatsTap { inner, sink }
    }
}

impl Drop for StatsTap {
    fn drop(&mut self) {
        add_stats(&self.sink, &self.inner.stats());
    }
}

impl StorageBackend for StatsTap {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn read_sample(&mut self, id: SampleId, size: ByteSize, now: SimTime) -> SimTime {
        self.inner.read_sample(id, size, now)
    }
    fn read_samples(&mut self, reqs: &[(SampleId, ByteSize)], now: SimTime) -> SimTime {
        self.inner.read_samples(reqs, now)
    }
    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime {
        self.inner.read_package(size, now)
    }
    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }
    fn release_before(&mut self, t: SimTime) {
        self.inner.release_before(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_telescope_to_the_root() {
        let _ = take_thread();
        span(Kind::Driver, || {
            busy(200);
            span(Kind::Fetch, || {
                busy(200);
                span(Kind::SampleRead, || busy(300));
            });
            span(Kind::Release, || busy(100));
        });
        let (t, spans) = take_thread();
        assert_eq!(t.self_ns(), t.roots_ns, "self times must sum to the root");
        assert!(t.kind(Kind::Fetch).total_ns >= t.kind(Kind::SampleRead).total_ns);
        assert!(t.kind(Kind::SampleRead).self_ns >= 300_000);
        assert!(t.kind(Kind::Fetch).self_ns < t.kind(Kind::Fetch).total_ns);
        // The root and the first request tree are sampled; the second
        // tree (the release) falls between strides.
        let names: Vec<_> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(names, vec![Kind::SampleRead, Kind::Fetch, Kind::Driver]);
        let root = spans.last().map(|s| s.id);
        assert_eq!(spans[1].parent, root.unwrap_or_default());
        assert_eq!(spans[0].parent, spans[1].id);
    }

    #[test]
    fn tallies_stop_while_counting_is_off() {
        let _ = take_thread();
        set_counting(false);
        tally(|m| m.hits += 1);
        set_counting(true);
        tally(|m| m.misses += 1);
        let (t, _) = take_thread();
        assert_eq!((t.model.hits, t.model.misses), (0, 1));
    }
}
