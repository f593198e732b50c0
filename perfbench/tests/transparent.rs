//! The benchmark's own guarantees, checked at test size: the decorators
//! and the observability handle change no simulated statistic, every
//! correctness check passes (the traced layers reconcile), and the
//! metric names match `BENCHMARK.json`.

use icache_perfbench::bench::{per_layer, END_TO_END};
use icache_perfbench::workload::{run, setup, Mode, Outcome, Spec, Workload};
use std::sync::{Mutex, MutexGuard};

/// Tests run one at a time: a traced unit's reconciliation charges time a
/// thread spends waiting for a core to no layer, so tests competing for
/// cores would distort each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one unit and require every correctness check to pass; for a
/// traced unit that includes reconciling layer self times with thread
/// time to within `workload::RECONCILE`.
fn unit(spec: &Spec, seed: u64, mode: Mode) -> Outcome {
    let prepared = setup(spec, seed).expect("test-size workloads set up");
    let out = run(prepared, spec, seed, mode);
    assert!(
        out.failures.is_empty(),
        "{} {mode:?}: {:?}",
        spec.workload.name(),
        out.failures
    );
    if let Some(t) = &out.trace {
        assert!(
            !t.spans.is_empty(),
            "{}: no span sampled",
            spec.workload.name()
        );
    }
    out
}

/// One loader thread makes the striped replay deterministic too.
fn deterministic(w: Workload) -> Spec {
    Spec {
        threads: 1,
        ..Spec::small(w)
    }
}

#[test]
fn traced_live_and_noop_units_share_one_digest() {
    let _serial = serial();
    for w in Workload::ALL {
        let spec = deterministic(w);
        let live = unit(&spec, 5, Mode::Live);
        let noop = unit(&spec, 5, Mode::Noop);
        let traced = unit(&spec, 5, Mode::Traced);
        assert_eq!(
            live.digest,
            noop.digest,
            "{}: Obs::noop() changed the model",
            w.name()
        );
        assert_eq!(
            live.digest,
            traced.digest,
            "{}: tracing changed the model",
            w.name()
        );
        assert_eq!(live.fetches, traced.fetches, "{}", w.name());
        assert_eq!(live.modelled, traced.modelled, "{}", w.name());
    }
}

#[test]
fn seeds_change_the_inputs() {
    let _serial = serial();
    for w in Workload::ALL {
        let spec = deterministic(w);
        assert_ne!(
            unit(&spec, 1, Mode::Live).digest,
            unit(&spec, 2, Mode::Live).digest,
            "{}",
            w.name()
        );
    }
}

#[test]
fn two_loader_threads_count_every_access() {
    let _serial = serial();
    let spec = Spec::small(Workload::ReplayStriped);
    assert_eq!(spec.threads, 2);
    let out = unit(&spec, 3, Mode::Traced);
    assert_eq!(out.fetches, spec.accesses as u64);
    let t = out.trace.expect("traced units carry a record");
    let fetch = t.totals.kind(icache_perfbench::tracer::Kind::Fetch);
    assert_eq!(fetch.calls, spec.accesses as u64, "every fetch was timed");
}

#[test]
fn metric_names_match_benchmark_json() {
    let _serial = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let json = icache_obs::Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        json[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap_or_default().to_string(),
                    m["unit"].as_str().unwrap_or_default().to_string(),
                )
            })
            .collect()
    };
    let expect_e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), expect_e2e);
    let expect_layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), expect_layers);
    let workloads: Vec<String> = json["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().unwrap_or_default().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
