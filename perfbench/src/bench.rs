//! One benchmark run: repeat units for the requested time, check them,
//! and turn them into the metrics `BENCHMARK.json` names.

use crate::tracer::{Kind, Totals};
use crate::workload::{run, setup, Mode, Outcome, Spec, Workload};
use icache_dnn::{LossModel, LossModelConfig};
use icache_sampling::{IisSelector, ImportanceTable, Selector};
use icache_types::{Epoch, SampleId, SeedSequence};
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("fetches_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_epoch_s", "s"),
    ("sim_stall_s", "s"),
    ("hit_ratio", "ratio"),
    ("top1", "%"),
];

/// Per-layer metrics (`--trace 1`) that do not depend on the policy.
const LAYERS: [(&str, &str); 27] = [
    ("sim.driver_self_ns_per_fetch", "ns"),
    ("sampling.plan_ms", "ms"),
    ("sampling.fetch_frac", "ratio"),
    ("dnn.loss_ns_per_sample", "ns"),
    ("core.fetch_self_ns", "ns"),
    ("core.epoch_hook_ms", "ms"),
    ("core.h_hit_frac", "ratio"),
    ("core.l_hit_frac", "ratio"),
    ("core.sub_frac", "ratio"),
    ("core.miss_frac", "ratio"),
    ("core.sim_hit_service_s", "s"),
    ("storage.sample_read_ns", "ns"),
    ("storage.bulk_read_ns_per_req", "ns"),
    ("storage.package_read_ns", "ns"),
    ("storage.sample_reads_per_fetch", "reads/fetch"),
    ("storage.bulk_reads_per_fetch", "reads/fetch"),
    ("storage.package_reads_per_fetch", "reads/fetch"),
    ("storage.sim_service_s", "s"),
    ("storage.sim_queue_s", "s"),
    ("obs.overhead_pct", "%"),
    ("concurrent.fetch_ns", "ns"),
    ("concurrent.contended_per_kfetch", "1/kfetch"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("sim.self_pct", "%"),
    ("cache.self_pct", "%"),
    ("storage.self_pct", "%"),
];

/// Per-policy metric suffixes, prefixed with each lineup policy's name.
const POLICY_LAYERS: [(&str, &str); 4] = [
    ("fetch_self_ns", "ns"),
    ("storage.sample_reads_per_fetch", "reads/fetch"),
    ("storage.bulk_reads_per_fetch", "reads/fetch"),
    ("storage.package_reads_per_fetch", "reads/fetch"),
];

/// Every per-layer metric with its unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for p in icache_bench::workload::POLICIES {
        v.extend(POLICY_LAYERS.iter().map(|(n, u)| (format!("{p}.{n}"), *u)));
    }
    v
}

/// Shortest a run repeats its unit.
const MIN_UNITS: usize = 2;
/// Fewest set-ups whose median is `setup_s`.
const MIN_SETUPS: usize = 5;

/// The result of one run, ready to print.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Human-readable lines (digests, per-epoch statistics).
    pub lines: Vec<String>,
    /// Units run.
    pub attempted: u64,
    /// Units with at least one failed check.
    pub failed: u64,
    /// Metric name, value and unit, in output order.
    pub metrics: Vec<(String, f64, String)>,
    /// The sampled span trees as JSON lines (traced runs only).
    pub spans: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            self.lines
                .push(format!("FAIL: metric {name} is not finite"));
            self.failed += 1;
            0.0
        };
        self.metrics.push((name, value, unit.to_string()));
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the peak resident set: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Run one unit and record its checks in the report.
fn unit(
    spec: &Spec,
    seed: u64,
    mode: Mode,
    report: &mut Report,
    setups: &mut Vec<f64>,
) -> Result<Outcome, String> {
    let t = Instant::now();
    let prepared = setup(spec, seed)?;
    setups.push(t.elapsed().as_secs_f64());
    let out = run(prepared, spec, seed, mode);
    report.attempted += 1;
    let n = report.attempted;
    report.lines.push(format!(
        "unit {n} [{mode:?}]: digest {:016x}, {} fetches in {:.3} s",
        out.digest, out.fetches, out.secs
    ));
    if n == 1 {
        report
            .lines
            .extend(out.detail.iter().map(|l| format!("  {l}")));
    }
    Ok(out)
}

/// Count a unit as failed if any of its checks failed.
fn settle(report: &mut Report, out: &Outcome, extra: &[String]) {
    let all: Vec<&String> = out.failures.iter().chain(extra).collect();
    for f in &all {
        report.lines.push(format!("FAIL: {f}"));
    }
    if !all.is_empty() {
        report.failed += 1;
    }
}

/// Check that every deterministic unit reproduced the first one's
/// modelled statistics, then settle each unit.
fn settle_all(report: &mut Report, spec: &Spec, units: &[(Mode, Outcome)]) {
    let reference = units.first().map(|(_, o)| o.digest);
    for (mode, out) in units {
        let mut extra = Vec::new();
        if spec.deterministic() && Some(out.digest) != reference {
            extra.push(format!(
                "{mode:?} unit digest {:016x} differs from the first unit's {:016x}",
                out.digest,
                reference.unwrap_or_default()
            ));
        }
        settle(report, out, &extra);
    }
}

/// The end-to-end run (`--trace 0`).
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut units = Vec::new();
    let mut timed = 0.0;
    let mut peak_mb = 0.0;
    while units.len() < MIN_UNITS || timed < seconds {
        let out = unit(spec, seed, Mode::Live, &mut report, &mut setups)?;
        timed += out.secs;
        units.push((Mode::Live, out));
        if units.len() == 1 {
            // The footprint of setting the workload up and running it
            // once; later repeats only add allocator noise.
            peak_mb = peak_rss_mb()?;
        }
    }
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(setup(spec, seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    settle_all(&mut report, spec, &units);
    let outs: Vec<&Outcome> = units.iter().map(|(_, o)| o).collect();
    let pick = |f: fn(&Outcome) -> f64| median(&outs.iter().map(|o| f(o)).collect::<Vec<_>>());
    // Host speed on a shared machine drifts within seconds, so the rate
    // is taken over the whole timed phase, not as the median of a few
    // units.
    let fetches: u64 = outs.iter().map(|o| o.fetches).sum();
    report.push("fetches_per_s", fetches as f64 / timed, "1/s");
    report.push("setup_s", median(&setups), "s");
    report.push("peak_rss_mb", peak_mb, "MB");
    report.push("sim_epoch_s", pick(|o| o.modelled.epoch_s), "s");
    report.push("sim_stall_s", pick(|o| o.modelled.stall_s), "s");
    report.push("hit_ratio", pick(|o| o.modelled.hit_ratio), "ratio");
    report.push("top1", pick(|o| o.modelled.top1), "%");
    Ok(report)
}

/// `IisSelector::plan_epoch` and `LossModel::observe` at the workload's
/// dataset size, each timed on its own: (plan ms, loss ns per sample).
fn isolated_timings(samples: u64, seed: u64) -> Result<(f64, f64), String> {
    let seq = SeedSequence::new(seed).child("perfbench");
    let mut losses = LossModel::new(samples, LossModelConfig::default(), seq.seed("loss"));
    let mut table = ImportanceTable::new(samples);
    for i in 0..samples {
        let id = SampleId(i);
        table.record_loss(id, losses.observe(id));
    }
    let mut selector = IisSelector::new(0.7).map_err(|e| e.to_string())?;
    let mut rng = seq.rng("selector");
    let mut plan_ms = Vec::new();
    let mut order = Vec::new();
    for rep in 0..5 {
        let t = Instant::now();
        let plan = selector.plan_epoch(&table, Epoch(rep + 1), &mut rng);
        plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        order = plan.fetch_order().to_vec();
    }
    let mut loss_ns = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut sink = 0.0;
        for &id in &order {
            sink += losses.observe(id);
        }
        loss_ns.push(t.elapsed().as_nanos() as f64 / order.len().max(1) as f64);
        std::hint::black_box(sink);
    }
    Ok((median(&plan_ms), median(&loss_ns)))
}

/// The traced run (`--trace 1`): untraced units with a live and a no-op
/// `Obs`, and a traced unit, repeated in rounds for the requested time.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn per_layer_run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut units: Vec<(Mode, Outcome)> = Vec::new();
    let mut timed = 0.0;
    // Overheads are compared within a round, between units run back to
    // back, and the untraced pair alternates its order from round to
    // round, so slow drift in host speed cancels rather than biasing one
    // side.
    let (mut obs_pct, mut trace_pct) = (Vec::new(), Vec::new());
    while units.is_empty() || timed < seconds {
        let pair = if obs_pct.len() % 2 == 0 {
            [Mode::Live, Mode::Noop]
        } else {
            [Mode::Noop, Mode::Live]
        };
        let (mut live, mut noop) = (0.0, 0.0);
        for mode in [pair[0], pair[1], Mode::Traced] {
            let out = unit(spec, seed, mode, &mut report, &mut setups)?;
            timed += out.secs;
            let per_fetch = out.secs / out.fetches.max(1) as f64;
            match mode {
                Mode::Live => live = per_fetch,
                Mode::Noop => noop = per_fetch,
                Mode::Traced => {
                    obs_pct.push((live - noop) / noop * 100.0);
                    trace_pct.push((per_fetch - live) / per_fetch * 100.0);
                }
            }
            units.push((mode, out));
        }
    }
    let of = |m: Mode| -> Vec<&Outcome> {
        units
            .iter()
            .filter(|(mode, _)| *mode == m)
            .map(|(_, o)| o)
            .collect()
    };
    let (live, traced) = (of(Mode::Live), of(Mode::Traced));

    // Merge every traced unit's spans; model tallies come from one unit
    // (they repeat exactly on the deterministic workloads).
    let mut totals = Totals::default();
    let mut policies: Vec<(String, Totals)> = Vec::new();
    let (mut busy, mut fetches, mut units_traced) = (0u64, 0u64, 0u64);
    for o in &traced {
        let t = o.trace.as_ref().expect("traced units carry a trace record");
        totals.merge(&t.totals);
        busy += t.busy_ns;
        fetches += o.fetches;
        units_traced += 1;
        for (name, pt) in &t.per_policy {
            match policies.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => acc.merge(pt),
                None => policies.push((name.clone(), pt.clone())),
            }
        }
    }
    let unattributed = (busy as f64 - totals.self_ns() as f64) / busy.max(1) as f64 * 100.0;
    settle_all(&mut report, spec, &units);

    let last = traced.last().expect("at least one round ran");
    let model = |name: &str| {
        last.model_layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let kind = |k: Kind| totals.kind(k);
    // `core.*` is iCache's own fetch path: on the lineup, the icache
    // policy alone.
    let core = policies
        .iter()
        .find(|(n, _)| n == "icache")
        .map(|(_, t)| t.clone())
        .unwrap_or_else(|| totals.clone());
    let epochs_per_unit = match spec.workload {
        Workload::TrainImagenet | Workload::TrainCifarHot => spec.epochs as u64,
        Workload::ReplayLineup | Workload::ReplayStriped => 1,
    };
    let striped = spec.workload == Workload::ReplayStriped;
    let contended: Vec<f64> = live
        .iter()
        .map(|o| ratio(o.contended * 1000, o.fetches))
        .collect();
    let samples = spec.samples();
    let (plan_ms, loss_ns) = isolated_timings(samples, seed)?;

    let value = |name: &str| -> f64 {
        match name {
            "sim.driver_self_ns_per_fetch" => ratio(kind(Kind::Driver).self_ns, fetches),
            "sampling.plan_ms" => plan_ms,
            "dnn.loss_ns_per_sample" => loss_ns,
            "core.fetch_self_ns" => {
                ratio(core.kind(Kind::Fetch).self_ns, core.kind(Kind::Fetch).calls)
            }
            "core.epoch_hook_ms" => {
                ratio(
                    core.kind(Kind::Hook).total_ns,
                    epochs_per_unit * units_traced,
                ) / 1e6
            }
            "storage.sample_read_ns" => {
                ratio(kind(Kind::SampleRead).self_ns, kind(Kind::SampleRead).calls)
            }
            "storage.bulk_read_ns_per_req" => {
                ratio(kind(Kind::BulkRead).self_ns, kind(Kind::BulkRead).items)
            }
            "storage.package_read_ns" => ratio(
                kind(Kind::PackageRead).self_ns,
                kind(Kind::PackageRead).calls,
            ),
            "storage.sample_reads_per_fetch" => ratio(kind(Kind::SampleRead).calls, fetches),
            "storage.bulk_reads_per_fetch" => ratio(kind(Kind::BulkRead).items, fetches),
            "storage.package_reads_per_fetch" => ratio(kind(Kind::PackageRead).calls, fetches),
            "obs.overhead_pct" => median(&obs_pct),
            "concurrent.fetch_ns" if striped => {
                ratio(kind(Kind::Fetch).total_ns, kind(Kind::Fetch).calls)
            }
            "concurrent.contended_per_kfetch" if striped => median(&contended),
            "trace.overhead_pct" => median(&trace_pct),
            "trace.unattributed_pct" => unattributed,
            "sim.self_pct" | "cache.self_pct" | "storage.self_pct" => {
                let layer = name.split('.').next().unwrap_or_default();
                ratio(totals.layer_self_ns(layer), busy) * 100.0
            }
            other => model(other),
        }
    };
    for (name, unit) in LAYERS {
        report.push(name, value(name), unit);
    }
    for p in icache_bench::workload::POLICIES {
        let t = policies
            .iter()
            .find(|(n, _)| n == p)
            .map(|(_, t)| t.clone())
            .unwrap_or_default();
        let calls = t.kind(Kind::Fetch).calls;
        let values = [
            ratio(t.kind(Kind::Fetch).self_ns, calls),
            ratio(t.kind(Kind::SampleRead).calls, calls),
            ratio(t.kind(Kind::BulkRead).items, calls),
            ratio(t.kind(Kind::PackageRead).calls, calls),
        ];
        let rows = if spec.workload == Workload::ReplayLineup {
            values
        } else {
            [0.0; 4]
        };
        for ((suffix, unit), v) in POLICY_LAYERS.iter().zip(rows) {
            report.push(format!("{p}.{suffix}"), v, unit);
        }
    }
    if let Some(t) = &last.trace {
        report.spans = t
            .spans
            .iter()
            .map(|(label, s)| s.to_json_line(label))
            .collect();
    }
    Ok(report)
}
