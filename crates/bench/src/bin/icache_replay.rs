//! `icache_replay` — replay a synthetic access pattern (or a recorded
//! JSONL trace) through any cache policy and report hit ratio + latency
//! percentiles; the classic cache-simulator workflow.
//!
//! ```sh
//! cargo run --release -p icache-bench --bin icache_replay -- \
//!     --pattern zipf --skew 1.1 --requests 50000 --cache-frac 0.1
//! cargo run --release -p icache-bench --bin icache_replay -- --trace my.jsonl
//! ```
//!
//! Flags: `--pattern uniform|zipf|scan|shuffle`, `--skew <f>` (zipf),
//! `--requests <n>`, `--universe <n>`, `--cache-frac <f>`,
//! `--storage orangefs|nfs|tmpfs|ssd`, `--seed <n>`,
//! `--trace <file.jsonl>` (overrides `--pattern`),
//! `--trace-out <file.jsonl>` (write each policy's structured event trace
//! to its own file — `out.jsonl` becomes `out.lru.jsonl`,
//! `out.icache.jsonl`, … — so event streams never interleave and every
//! file's `seq` starts at 0),
//! `--json <file.json>` (write a per-policy summary with the
//! observability counters, latency histograms, and trace accounting),
//! `--parallel [n|auto]` (replay the policies on `n` worker threads —
//! bare `--parallel` or `auto` uses the machine's parallelism; see
//! DESIGN.md §8),
//! `--loader-threads <n>` (serve ONE cache from `n` concurrent loader
//! threads — the lock-striped in-node path; see DESIGN.md §8),
//! `--prefetch-depth <n>` (clairvoyant prefetch lookahead; 0 — the
//! default — disables the pipeline and is byte-identical to the plain
//! driver; see DESIGN.md §11),
//! `--compute-us <n>` (simulated per-sample compute for the prefetch
//! overlap clock, default 50 µs; requires `--prefetch-depth >= 1`).
//!
//! With `--prefetch-depth N` (N ≥ 1) each policy replays under a
//! compute/IO overlap clock: a prefetcher issues the trace's known
//! access order up to `N` fetches ahead, the consumer spends
//! `--compute-us` per sample, and the table gains a `stall` column —
//! total time the consumer waited on data. The cache sees the same
//! access *order* at every depth; time-agnostic policies (lru, coordl,
//! ilfu) therefore count identically across depths, while policies
//! with time-paced machinery (icache's background package loader) may
//! shift slightly because virtual timestamps feed their pacing. The
//! mode refuses `--loader-threads > 1` (the concurrent path has no
//! deterministic plan order to prefetch).
//!
//! The policies share nothing but the read-only workload, so the
//! parallel path produces byte-identical stdout, `--json`, and
//! `--trace-out` files to the sequential one: every policy replays
//! against its own [`icache_obs::Obs`] ring and derives its randomness
//! from `--seed` alone, and results are printed in policy order after
//! all workers join.
//!
//! `--loader-threads 1` (the default) short-circuits to the sequential
//! driver and is byte-identical to it. With `n > 1` each policy is
//! built as a shared `ConcurrentCache` (`icache` gets the lock-striped
//! `ConcurrentManager`, baselines a coarse-lock `MutexCache`), the
//! trace is split round-robin across the loader threads, and results
//! depend on thread interleaving — so this mode refuses `--trace-out`
//! (no per-event stream on the concurrent path) and `--parallel`
//! (one axis of parallelism at a time).
//!
//! On top of whatever the policy itself records, the replay driver
//! records `replay.accesses`, `replay.h_hits`, `replay.l_hits`,
//! `replay.pm_hits`, `replay.substitutions`, and `replay.misses` from
//! the replay report, so every per-policy snapshot satisfies
//! `h_hits + l_hits + pm_hits + substitutions + misses == accesses`.

use icache_bench::{sweep, workload};
use icache_sampling::HList;
use icache_sim::replay::{
    replay, replay_concurrent, replay_prefetch, summarize, AccessPattern, ReplayReport, Trace,
};
use icache_sim::{report, StorageKind};
use icache_types::{ByteSize, Dataset, DatasetBuilder, JobId, SimDuration, SizeModel};
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_args() -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        // A flag followed by another flag (or by nothing) is value-less:
        // bare `--parallel` means `--parallel auto`. No flag's value can
        // legitimately start with `--`.
        let value = match args.peek() {
            Some(next) if !next.starts_with("--") => args.next().unwrap_or_default(),
            _ => String::new(),
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

/// `out.jsonl` + `lru` → `out.lru.jsonl`; a path with no extension gets
/// the policy name appended instead.
fn policy_path(path: &str, policy: &str) -> String {
    let p = std::path::Path::new(path);
    match (p.file_stem(), p.extension()) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!(
                "{}.{policy}.{}",
                stem.to_string_lossy(),
                ext.to_string_lossy()
            ))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{path}.{policy}"),
    }
}

/// Read-only inputs shared by every policy task.
struct ReplayCtx<'a> {
    trace: &'a Trace,
    dataset: &'a Dataset,
    hlist: &'a HList,
    cap: ByteSize,
    cache_frac: f64,
    seed: u64,
    storage_kind: StorageKind,
    trace_out: Option<&'a str>,
    loader_threads: usize,
    prefetch_depth: usize,
    compute: SimDuration,
}

impl ReplayCtx<'_> {
    /// The mode's column after `elapsed`, if any: lock contention on
    /// the concurrent path, consumer stall under prefetching.
    fn extra_column(&self) -> Option<&'static str> {
        if self.loader_threads > 1 {
            Some("contended")
        } else if self.prefetch_depth > 0 {
            Some("stall")
        } else {
            None
        }
    }
}

/// Everything one policy replay produces, rendered but not yet printed:
/// the driver prints outputs in policy order after all tasks finish, so
/// sequential and parallel runs emit the same bytes.
struct PolicyOutput {
    row: Vec<String>,
    line: String,
    trace_note: Option<String>,
    summary: (String, icache_obs::Json),
}

/// Replay one policy on a cache it owns: the plain sequential driver,
/// or the prefetch pipeline (which also reports the consumer stall).
fn replay_owned(
    name: &str,
    ctx: &ReplayCtx,
    obs: &icache_obs::Obs,
) -> Result<(ReplayReport, Option<SimDuration>), String> {
    let mut cache = workload::build_policy(
        name,
        ctx.dataset,
        ctx.cap,
        ctx.cache_frac,
        ctx.seed,
        ctx.hlist,
    )?;
    let mut storage = ctx.storage_kind.build().map_err(|e| e.to_string())?;
    cache.set_obs(obs.clone());
    storage.set_obs(obs.clone());
    cache.on_epoch_start(JobId(0), icache_types::Epoch(0));
    if ctx.prefetch_depth == 0 {
        return Ok((
            replay(ctx.trace, ctx.dataset, cache.as_mut(), storage.as_mut()),
            None,
        ));
    }
    let pr = replay_prefetch(
        ctx.trace,
        ctx.dataset,
        cache.as_mut(),
        storage.as_mut(),
        ctx.prefetch_depth,
        ctx.compute,
        obs.clone(),
    )
    .map_err(|e| e.to_string())?;
    Ok((pr.report, Some(pr.stall)))
}

/// Replay one policy as a shared concurrent cache served by
/// `ctx.loader_threads` loader threads; also returns the number of
/// lock acquisitions that had to wait.
fn replay_shared(
    name: &str,
    ctx: &ReplayCtx,
    obs: &icache_obs::Obs,
) -> Result<(ReplayReport, u64), String> {
    let cache = workload::build_concurrent_policy(
        name,
        ctx.dataset,
        ctx.cap,
        ctx.cache_frac,
        ctx.seed,
        ctx.hlist,
        ctx.loader_threads,
    )?;
    cache.set_obs(obs.clone());
    cache.on_epoch_start(JobId(0), icache_types::Epoch(0));
    let rep = replay_concurrent(
        ctx.trace,
        ctx.dataset,
        cache.as_ref(),
        ctx.loader_threads,
        ctx.seed,
        || ctx.storage_kind.build(),
    )
    .map_err(|e| e.to_string())?;
    // Publishes the cache.stripe.* gauges and the counter deltas
    // accumulated over the replay into this policy's registry.
    cache.on_epoch_end(JobId(0), icache_types::Epoch(0));
    Ok((rep, cache.contended()))
}

fn run_policy(name: &str, ctx: &ReplayCtx) -> Result<PolicyOutput, String> {
    // One observability ring per policy: event streams never interleave
    // and each trace file's seq numbering starts at 0. The cache is
    // built inside the (possibly worker-thread) task.
    let obs = icache_obs::Obs::new();
    let (rep, extra, contended) = if ctx.loader_threads > 1 {
        let (rep, contended) = replay_shared(name, ctx, &obs)?;
        (rep, Some(contended.to_string()), Some(contended))
    } else {
        let (rep, stall) = replay_owned(name, ctx, &obs)?;
        (rep, stall.map(|s| s.to_string()), None)
    };
    // The replay driver's own accounting: baselines record nothing
    // into the registry themselves, so these six counters make every
    // policy snapshot sum to the shared workload's access count.
    obs.add("replay.accesses", ctx.trace.len() as u64);
    obs.add("replay.h_hits", rep.stats.h_hits);
    obs.add("replay.l_hits", rep.stats.l_hits);
    obs.add("replay.pm_hits", rep.stats.pm_hits);
    obs.add("replay.substitutions", rep.stats.substitutions);
    obs.add("replay.misses", rep.stats.misses);
    let mut row = vec![
        name.to_string(),
        format!("{:.1}", rep.hit_ratio() * 100.0),
        format!("{}", rep.latency.quantile(0.5)),
        format!("{}", rep.latency.quantile(0.99)),
        format!("{}", rep.elapsed),
    ];
    let mut line = format!("{name:8} {}", summarize(&rep));
    if let (Some(label), Some(value)) = (ctx.extra_column(), extra) {
        line = format!("{line} | {label} {value}");
        row.push(value);
    }
    let trace_note = match ctx.trace_out {
        Some(path) => {
            let path = policy_path(path, name);
            std::fs::write(&path, obs.trace_jsonl())
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            Some(format!(
                "wrote {} {name} trace events to {path}",
                obs.trace_len()
            ))
        }
        None => None,
    };
    // The concurrent path keeps no event stream, so it reports its lock
    // contention where the sequential path reports trace accounting.
    let detail = match contended {
        Some(n) => ("contended".into(), icache_obs::Json::UInt(n)),
        None => (
            "trace".into(),
            icache_obs::Json::Obj(vec![
                (
                    "emitted".into(),
                    icache_obs::Json::UInt(obs.trace_emitted()),
                ),
                (
                    "recorded".into(),
                    icache_obs::Json::UInt(obs.trace_len() as u64),
                ),
                (
                    "dropped".into(),
                    icache_obs::Json::UInt(obs.trace_dropped()),
                ),
            ]),
        ),
    };
    let summary = (
        name.to_string(),
        icache_obs::Json::Obj(vec![("metrics".into(), obs.metrics_snapshot()), detail]),
    );
    Ok(PolicyOutput {
        row,
        line,
        trace_note,
        summary,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let get = |k: &str, d: &str| args.get(k).cloned().unwrap_or_else(|| d.to_string());
    let universe: u64 = get("universe", "20000")
        .parse()
        .map_err(|e| format!("--universe: {e}"))?;
    let requests: usize = get("requests", "50000")
        .parse()
        .map_err(|e| format!("--requests: {e}"))?;
    let cache_frac: f64 = get("cache-frac", "0.1")
        .parse()
        .map_err(|e| format!("--cache-frac: {e}"))?;
    let seed: u64 = get("seed", "7")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let storage_kind = match get("storage", "orangefs").as_str() {
        "orangefs" => StorageKind::OrangeFs,
        "nfs" => StorageKind::Nfs,
        "tmpfs" => StorageKind::Tmpfs,
        "ssd" => StorageKind::NvmeSsd,
        other => return Err(format!("unknown storage `{other}`")),
    };
    let workers = match args.get("parallel") {
        Some(v) => sweep::parse_workers(v)?,
        None => 1,
    };
    let loader_threads: usize = get("loader-threads", "1")
        .parse()
        .map_err(|e| format!("--loader-threads: {e}"))?;
    if loader_threads == 0 {
        return Err("--loader-threads: need at least one loader thread".into());
    }
    let prefetch_depth: usize = get("prefetch-depth", "0")
        .parse()
        .map_err(|e| format!("--prefetch-depth: {e}"))?;
    if args.contains_key("compute-us") && prefetch_depth == 0 {
        return Err(
            "--compute-us drives the prefetch overlap clock and requires --prefetch-depth >= 1"
                .into(),
        );
    }
    let compute = SimDuration::from_micros(
        get("compute-us", "50")
            .parse()
            .map_err(|e| format!("--compute-us: {e}"))?,
    );
    if prefetch_depth > 0 && loader_threads > 1 {
        return Err(
            "--prefetch-depth issues the trace's plan order ahead of a sequential consumer \
             and cannot combine with --loader-threads > 1 (no deterministic plan order on \
             the concurrent path)"
                .into(),
        );
    }
    if loader_threads > 1 {
        if args.contains_key("trace-out") {
            return Err(
                "--trace-out records a per-event stream and requires --loader-threads 1 \
                 (the concurrent path publishes counters, not events)"
                    .into(),
            );
        }
        if args.contains_key("parallel") {
            return Err(
                "--parallel replays policies on worker threads and cannot combine with \
                 --loader-threads; pick one axis of parallelism"
                    .into(),
            );
        }
    }

    let trace = if let Some(path) = args.get("trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--trace {path}: {e}"))?;
        Trace::parse_jsonl(&text).map_err(|e| e.to_string())?
    } else {
        let pattern = match get("pattern", "zipf").as_str() {
            "uniform" => AccessPattern::Uniform,
            "zipf" => AccessPattern::Zipf {
                s: get("skew", "1.1")
                    .parse()
                    .map_err(|e| format!("--skew: {e}"))?,
            },
            "scan" => AccessPattern::Scan,
            "shuffle" => AccessPattern::EpochShuffle,
            other => return Err(format!("unknown pattern `{other}`")),
        };
        pattern
            .generate(universe, requests, JobId(0), seed)
            .map_err(|e| e.to_string())?
    };

    let dataset = DatasetBuilder::new("replay", universe)
        .size_model(SizeModel::Fixed(ByteSize::kib(3)))
        .build()
        .map_err(|e| e.to_string())?;
    let cap = dataset.total_bytes().scaled(cache_frac);

    // iCache needs an importance view; for replay we rank by first-seen
    // popularity in the trace itself (what a warmed-up H-list would hold).
    let hlist = workload::popularity_hlist(&trace, universe);

    println!(
        "replaying {} accesses over {} samples (cache {} = {:.0}%)\n",
        trace.len(),
        universe,
        cap,
        cache_frac * 100.0
    );
    if loader_threads > 1 {
        println!("loader threads: {loader_threads} (one shared cache per policy)\n");
    }
    if prefetch_depth > 0 {
        println!(
            "clairvoyant prefetch: lookahead depth {prefetch_depth}, compute {compute}/sample\n"
        );
    }

    let ctx = ReplayCtx {
        trace: &trace,
        dataset: &dataset,
        hlist: &hlist,
        cap,
        cache_frac,
        seed,
        storage_kind,
        trace_out: args.get("trace-out").map(String::as_str),
        loader_threads,
        prefetch_depth,
        compute,
    };
    let ctx_ref = &ctx;
    let tasks: Vec<_> = workload::POLICIES
        .iter()
        .map(|&name| move || run_policy(name, ctx_ref))
        .collect();
    let outputs = sweep::run_indexed(tasks, workers);

    let mut policy_summaries: Vec<(String, icache_obs::Json)> = Vec::new();
    let mut columns = vec!["policy", "hit%", "p50", "p99", "elapsed"];
    columns.extend(ctx.extra_column());
    let mut out = report::Table::with_columns(&columns);
    for result in outputs {
        let po = result?;
        out.row(po.row);
        println!("{}", po.line);
        if let Some(note) = po.trace_note {
            println!("{note}");
        }
        policy_summaries.push(po.summary);
    }
    println!();
    println!("{}", out.render());
    if let Some(path) = args.get("json") {
        let mut summary = vec![(
            "accesses".into(),
            icache_obs::Json::UInt(trace.len() as u64),
        )];
        if loader_threads > 1 {
            summary.push((
                "loader_threads".into(),
                icache_obs::Json::UInt(loader_threads as u64),
            ));
        }
        summary.push(("policies".into(), icache_obs::Json::Obj(policy_summaries)));
        let summary = icache_obs::Json::Obj(summary);
        std::fs::write(path, format!("{summary}\n")).map_err(|e| format!("--json {path}: {e}"))?;
        println!("wrote replay summary to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
