//! Ablation (paper §III-B): shadow-heap refresh vs a naive full rebuild.
//!
//! When new importance values arrive, iCache freezes the H-heap and
//! records changes in a shadow heap instead of re-keying every node at
//! once. This times opening that window (`ShadowedHeap::begin_refresh`)
//! against the naive alternative (`ShadowedHeap::rebuild_naive`) on the
//! same heap and the same fresh keys — the latency the fetch path would
//! otherwise absorb at every importance update. Wall-clock medians, so
//! the numbers depend on the machine; the ratio is the result.

use icache_bench::{banner, BenchEnv};
use icache_core::{IdSlab, ShadowedHeap};
use icache_obs::json;
use icache_sim::report;
use icache_types::{ImportanceValue, SampleId};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repeats per cell; the median is reported.
const REPEATS: usize = 15;

fn iv(v: f64) -> ImportanceValue {
    ImportanceValue::saturating(v)
}

fn filled_shadow(n: u64) -> ShadowedHeap {
    let mut h = ShadowedHeap::new();
    for i in 0..n {
        h.insert(SampleId(i), iv(((i * 2_654_435_761) % 1_000_003) as f64));
    }
    h
}

fn fresh_keys(n: u64) -> IdSlab<ImportanceValue> {
    (0..n)
        .map(|i| (SampleId(i), iv(((i * 40_503) % 999_983) as f64)))
        .collect()
}

/// Median wall-clock time of `op` over [`REPEATS`] freshly built heaps
/// of `n` nodes. Building and dropping the heap are not timed.
fn median_time(n: u64, op: impl Fn(&mut ShadowedHeap)) -> Duration {
    let mut times: Vec<Duration> = (0..REPEATS)
        .map(|_| {
            let mut heap = filled_shadow(n);
            let start = Instant::now();
            op(black_box(&mut heap));
            let elapsed = start.elapsed();
            drop(black_box(heap));
            elapsed
        })
        .collect();
    times.sort_unstable();
    times[REPEATS / 2]
}

fn fmt_us(d: Duration) -> String {
    format!("{:.1} us", d.as_secs_f64() * 1e6)
}

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Ablation — shadow vs naive heap refresh (§III-B)",
        "the shadow heap keeps importance updates off the fetch path; a full re-key would block it",
        &env,
    );

    let mut table =
        report::Table::with_columns(&["nodes", "shadow open", "naive rebuild", "ratio"]);
    let mut holds = true;
    for n in [10_000u64, 100_000] {
        let fresh = fresh_keys(n);
        // Streamed from a borrow: measures the refresh itself, not a
        // defensive clone of the fresh set.
        let shadow = median_time(n, |heap| {
            heap.begin_refresh(fresh.iter().map(|(id, &v)| (id, v)))
        });
        let naive = median_time(n, |heap| heap.rebuild_naive(&fresh));
        holds &= shadow < naive;
        let ratio = naive.as_secs_f64() / shadow.as_secs_f64().max(1e-9);
        table.row(vec![
            n.to_string(),
            fmt_us(shadow),
            fmt_us(naive),
            format!("{ratio:.1}x"),
        ]);
        report::json_line(
            "ablation_shadow_refresh",
            &json!({"nodes": n,
                    "repeats": REPEATS as u64,
                    "shadow_open_nanos": shadow.as_nanos() as u64,
                    "naive_rebuild_nanos": naive.as_nanos() as u64,
                    "ratio": ratio}),
        );
    }

    println!("{}", table.render());
    println!();
    println!(
        "shape check: shadow open is cheaper than a naive rebuild at every size ({})",
        if holds { "holds" } else { "VIOLATED" }
    );
}
