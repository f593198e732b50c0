//! OrangeFS-like parallel file system model.

use crate::{StorageBackend, StorageStats, TimelineResource};
use icache_types::{splitmix64, ByteSize, Error, Result, SampleId, SimDuration, SimTime};

/// Configuration of the parallel file system model.
///
/// Defaults mirror the paper's deployment (§V-A): four data servers,
/// 64 KB stripes, 10 Gbps client link.
#[derive(Debug, Clone, PartialEq)]
pub struct PfsConfig {
    /// Number of data servers the dataset is striped over.
    pub num_servers: usize,
    /// Stripe size; a file smaller than this touches one server.
    pub stripe_size: ByteSize,
    /// Fixed cost a server pays per request (metadata + seek + RPC).
    pub request_overhead: SimDuration,
    /// Streaming bandwidth of one data server, in bytes/second.
    pub server_bandwidth: f64,
    /// Client NIC bandwidth shared by all transfers, in bytes/second.
    pub client_link_bandwidth: f64,
    /// Seed for the deterministic placement hash.
    pub placement_seed: u64,
}

impl PfsConfig {
    /// The paper's OrangeFS deployment: 4 servers, 64 KB stripes, 10 Gbps
    /// Ethernet. Per-request overhead and per-server bandwidth are
    /// calibrated to commodity HDD-backed PFS data servers.
    pub fn orangefs_default() -> Self {
        PfsConfig {
            num_servers: 4,
            stripe_size: ByteSize::kib(64),
            request_overhead: SimDuration::from_micros(900),
            server_bandwidth: 350.0e6,
            client_link_bandwidth: 1.25e9, // 10 Gbps
            placement_seed: 0x0F5,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.num_servers == 0 {
            return Err(Error::invalid_config("num_servers", "must be at least 1"));
        }
        if self.stripe_size.is_zero() {
            return Err(Error::invalid_config("stripe_size", "must be non-zero"));
        }
        if !(self.server_bandwidth > 0.0 && self.server_bandwidth.is_finite()) {
            return Err(Error::invalid_config(
                "server_bandwidth",
                "must be positive and finite",
            ));
        }
        if !(self.client_link_bandwidth > 0.0 && self.client_link_bandwidth.is_finite()) {
            return Err(Error::invalid_config(
                "client_link_bandwidth",
                "must be positive and finite",
            ));
        }
        Ok(())
    }
}

/// A parallel file system with striped files and FIFO data servers.
///
/// See the [crate docs](crate) for the modelling assumptions. Sample files
/// are placed starting at `hash(id) % num_servers` and striped round-robin;
/// package reads stripe across every server.
///
/// # Examples
///
/// ```
/// use icache_storage::{Pfs, PfsConfig, StorageBackend};
/// use icache_types::{ByteSize, SampleId, SimTime};
///
/// let mut pfs = Pfs::new(PfsConfig::orangefs_default())?;
/// // A 1 MiB package read streams in parallel across the four servers and
/// // finishes far sooner than 341 sequential 3 KiB sample reads would.
/// let pkg_done = pfs.read_package(ByteSize::mib(1), SimTime::ZERO);
/// assert!(pkg_done.as_secs_f64() < 0.01);
/// # Ok::<(), icache_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pfs {
    config: PfsConfig,
    servers: Vec<TimelineResource>,
    client_link: TimelineResource,
    stats: StorageStats,
    name: String,
    obs: icache_obs::Obs,
    /// One-entry memo of the pure size→service arithmetic in
    /// [`Pfs::striped_read`]: `(bytes, servers_touched, per-server
    /// service, client-link service)`. Bulk loaders read one fixed
    /// sample size millions of times per replay; the two floating-point
    /// bandwidth divisions per read are measurable at that volume.
    plan_memo: Option<(u64, usize, SimDuration, SimDuration)>,
}

impl Pfs {
    /// Build a parallel file system from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero servers, zero stripe size,
    /// or non-positive bandwidths.
    pub fn new(config: PfsConfig) -> Result<Self> {
        config.validate()?;
        let name = format!("pfs-{}srv", config.num_servers);
        Ok(Pfs {
            servers: vec![TimelineResource::new(); config.num_servers],
            client_link: TimelineResource::new(),
            stats: StorageStats::default(),
            config,
            name,
            obs: icache_obs::Obs::noop(),
            plan_memo: None,
        })
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &PfsConfig {
        &self.config
    }

    fn home_server(&self, id: SampleId) -> usize {
        (splitmix64(self.config.placement_seed ^ splitmix64(id.0)) % self.config.num_servers as u64)
            as usize
    }

    fn transfer_time(&self, bytes: ByteSize, bandwidth: f64) -> SimDuration {
        SimDuration::from_secs_f64(bytes.as_f64() / bandwidth)
    }

    /// The size-determined parameters of a striped read: how many servers
    /// it touches, each server's service time, and the client-link
    /// service time. Memoised for the immediately preceding size.
    fn plan_read(&mut self, size: ByteSize) -> (usize, SimDuration, SimDuration) {
        if let Some((bytes, touched, service, link)) = self.plan_memo {
            if bytes == size.as_u64() {
                return (touched, service, link);
            }
        }
        let stripe = self.config.stripe_size.as_u64();
        let stripes_needed = size.as_u64().div_ceil(stripe).max(1) as usize;
        let servers_touched = stripes_needed.min(self.config.num_servers);
        // Bytes are spread as evenly as the stripe pattern allows; we model
        // each touched server as serving an equal share.
        let share = ByteSize::new(size.as_u64().div_ceil(servers_touched as u64));
        let service =
            self.config.request_overhead + self.transfer_time(share, self.config.server_bandwidth);
        let link_service = self.transfer_time(size, self.config.client_link_bandwidth);
        self.plan_memo = Some((size.as_u64(), servers_touched, service, link_service));
        (servers_touched, service, link_service)
    }

    /// Issue a striped read of `size` bytes beginning at `first_server`.
    /// Returns the time all stripes are on the client.
    fn striped_read(&mut self, first_server: usize, size: ByteSize, now: SimTime) -> SimTime {
        let (servers_touched, service, link_service) = self.plan_read(size);
        let n = self.config.num_servers;
        let mut all_parts_done = now;
        for k in 0..servers_touched {
            let idx = (first_server + k) % n;
            let done = self.servers[idx].submit(now, service);
            all_parts_done = all_parts_done.max(done);
        }
        // The assembled file then crosses the client NIC.
        self.client_link.submit(all_parts_done, link_service)
    }
}

impl StorageBackend for Pfs {
    fn name(&self) -> &str {
        &self.name
    }

    fn read_sample(&mut self, id: SampleId, size: ByteSize, now: SimTime) -> SimTime {
        let first = self.home_server(id);
        let done = self.striped_read(first, size, now);
        let latency = done.saturating_since(now);
        self.stats.record_sample(size, latency);
        self.obs.inc("storage.sample_reads");
        self.obs.add("storage.sample_bytes", size.as_u64());
        self.obs.observe("storage.sample_read", latency);
        done
    }

    fn read_samples(&mut self, reqs: &[(SampleId, ByteSize)], now: SimTime) -> SimTime {
        // Same queueing arithmetic as per-call `read_sample`, in the same
        // order — only the observability accounting is batched: one
        // registry lock per package build instead of three per sample.
        if reqs.is_empty() {
            return now;
        }
        let mut ready = now;
        let mut total = ByteSize::ZERO;
        let mut latencies = Vec::with_capacity(reqs.len());
        for &(id, size) in reqs {
            let first = self.home_server(id);
            let done = self.striped_read(first, size, now);
            let latency = done.saturating_since(now);
            self.stats.record_sample(size, latency);
            total += size;
            latencies.push(latency);
            ready = ready.max(done);
        }
        self.obs.add("storage.sample_reads", reqs.len() as u64);
        self.obs.add("storage.sample_bytes", total.as_u64());
        self.obs.observe_many("storage.sample_read", latencies);
        ready
    }

    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime {
        // Packages are written contiguously and striped across all servers;
        // the starting server rotates with the package counter so load
        // spreads even for small packages.
        let first = (self.stats.package_reads as usize) % self.config.num_servers;
        let done = self.striped_read(first, size, now);
        let latency = done.saturating_since(now);
        self.stats.record_package(size, latency);
        self.obs.inc("storage.package_reads");
        self.obs.add("storage.package_bytes", size.as_u64());
        self.obs.observe("storage.package_read", latency);
        done
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }

    fn set_obs(&mut self, obs: icache_obs::Obs) {
        self.obs = obs;
    }

    fn reset_stats(&mut self) {
        self.stats = StorageStats::default();
        for s in &mut self.servers {
            s.reset_stats();
        }
        self.client_link.reset_stats();
    }

    fn release_before(&mut self, t: SimTime) {
        // A saturated replay books millions of disjoint intervals across
        // the server and NIC timelines; retiring the virtual past keeps
        // each busy map at working-set size (see `TimelineResource::
        // release_before` for the caller contract).
        for s in &mut self.servers {
            s.release_before(t);
        }
        self.client_link.release_before(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfs() -> Pfs {
        Pfs::new(PfsConfig::orangefs_default()).unwrap()
    }

    #[test]
    fn config_validation_rejects_degenerate_setups() {
        let mut c = PfsConfig::orangefs_default();
        c.num_servers = 0;
        assert!(Pfs::new(c).is_err());
        let mut c = PfsConfig::orangefs_default();
        c.stripe_size = ByteSize::ZERO;
        assert!(Pfs::new(c).is_err());
        let mut c = PfsConfig::orangefs_default();
        c.server_bandwidth = 0.0;
        assert!(Pfs::new(c).is_err());
        let mut c = PfsConfig::orangefs_default();
        c.client_link_bandwidth = f64::NAN;
        assert!(Pfs::new(c).is_err());
    }

    #[test]
    fn small_read_pays_one_request_overhead() {
        let mut p = pfs();
        let done = p.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
        let us = done.as_secs_f64() * 1e6;
        // overhead 900us + ~9us transfer + ~2.4us link
        assert!((900.0..950.0).contains(&us), "latency {us}us");
    }

    #[test]
    fn large_file_stripes_across_servers() {
        let mut p = pfs();
        // 256 KiB = 4 stripes -> all 4 servers in parallel.
        let done = p.read_sample(SampleId(0), ByteSize::kib(256), SimTime::ZERO);
        let us = done.as_secs_f64() * 1e6;
        // each server: 900us + 64KiB/350MB/s(~187us) ~= 1087us, plus link ~210us
        assert!((1100.0..1600.0).contains(&us), "latency {us}us");
    }

    #[test]
    fn concurrent_small_reads_spread_over_servers() {
        let mut p = pfs();
        // Submit many reads at t=0; aggregate throughput should approach
        // num_servers / overhead.
        let mut last = SimTime::ZERO;
        let n = 400;
        for i in 0..n {
            last = last.max(p.read_sample(SampleId(i), ByteSize::kib(3), SimTime::ZERO));
        }
        let per_second = n as f64 / last.as_secs_f64();
        // 4 servers / ~909us ~= 4400/s; placement skew allows slack.
        assert!(
            (3000.0..5000.0).contains(&per_second),
            "throughput {per_second}/s"
        );
    }

    #[test]
    fn package_read_is_faster_per_byte_than_sample_reads() {
        let mut p1 = pfs();
        let pkg_done = p1.read_package(ByteSize::mib(1), SimTime::ZERO);

        let mut p2 = pfs();
        // Same volume in 3 KiB random reads.
        let mut last = SimTime::ZERO;
        for i in 0..341 {
            last = last.max(p2.read_sample(SampleId(i), ByteSize::kib(3), SimTime::ZERO));
        }
        assert!(
            pkg_done.as_secs_f64() * 10.0 < last.as_secs_f64(),
            "package {pkg_done} vs samples {last}"
        );
    }

    #[test]
    fn placement_is_deterministic_and_balanced() {
        let p = pfs();
        let mut counts = vec![0u32; 4];
        for i in 0..10_000 {
            counts[p.home_server(SampleId(i))] += 1;
        }
        for &c in &counts {
            assert!((2000..3000).contains(&c), "imbalanced: {counts:?}");
        }
        assert_eq!(p.home_server(SampleId(42)), p.home_server(SampleId(42)));
    }

    #[test]
    fn stats_track_classes_separately() {
        let mut p = pfs();
        p.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
        p.read_package(ByteSize::mib(2), SimTime::ZERO);
        let s = p.stats();
        assert_eq!(s.sample_reads, 1);
        assert_eq!(s.package_reads, 1);
        assert_eq!(s.sample_bytes, ByteSize::kib(3));
        assert_eq!(s.package_bytes, ByteSize::mib(2));
        p.reset_stats();
        assert_eq!(p.stats(), StorageStats::default());
    }

    #[test]
    fn identical_request_sequences_are_identical_in_time() {
        let run = || {
            let mut p = pfs();
            let mut t = SimTime::ZERO;
            for i in 0..50 {
                t = p.read_sample(SampleId(i % 7), ByteSize::kib(3 + (i % 5)), t);
            }
            t
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Completions never precede submissions, identical request
        /// streams are identical in time, and server queues never run
        /// backwards.
        #[test]
        fn pfs_time_invariants(reqs in proptest::collection::vec(
            (0u64..500, 1u64..200u64, 0u64..10_000u64), 1..100)) {
            let run = || {
                let mut p = Pfs::new(PfsConfig::orangefs_default()).unwrap();
                let mut completions = Vec::new();
                for &(id, kib, at_us) in &reqs {
                    let now = SimTime::from_nanos(at_us * 1_000);
                    let done = p.read_sample(SampleId(id), ByteSize::kib(kib), now);
                    completions.push(done);
                    prop_assert!(done > now, "completion must follow submission");
                }
                Ok(completions)
            };
            let a = run()?;
            let b = run()?;
            prop_assert_eq!(a, b, "identical streams must be identical in time");
        }

        /// A fresh-system read always lands between the physical bounds:
        /// at least one request overhead plus perfectly parallel streaming,
        /// at most overhead plus single-server streaming plus the NIC.
        /// (Note: a *slightly larger* read can legitimately finish sooner —
        /// crossing a stripe boundary buys server parallelism.)
        #[test]
        fn read_times_respect_physical_bounds(kib in 1u64..4_096) {
            let cfg = PfsConfig::orangefs_default();
            let mut p = Pfs::new(cfg.clone()).unwrap();
            let size = ByteSize::kib(kib);
            let done = p.read_package(size, SimTime::ZERO).saturating_since(SimTime::ZERO);
            let lower = cfg.request_overhead
                + SimDuration::from_secs_f64(
                    size.as_f64() / (cfg.server_bandwidth * cfg.num_servers as f64),
                );
            let upper = cfg.request_overhead
                + SimDuration::from_secs_f64(size.as_f64() / cfg.server_bandwidth)
                + SimDuration::from_secs_f64(size.as_f64() / cfg.client_link_bandwidth)
                + SimDuration::from_micros(1);
            prop_assert!(done >= lower, "{done} below physical floor {lower}");
            prop_assert!(done <= upper, "{done} above physical ceiling {upper}");
        }
    }
}
