//! Instrument-cost microbench for `dam-obs`: what one counter add, one
//! histogram record, and one full registry snapshot cost. The whole
//! observability design rests on handles being cheap enough to leave on
//! in every pipeline — the `metered` row of `BENCH_reports.json` pins
//! the end-to-end ingest overhead; this bench records where the
//! nanoseconds go at the instrument level.
//!
//! Emits `BENCH_obs.json` at the repo root with per-operation medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_bench::{median, write_baseline};
use dam_obs::{Plane, Registry};
use std::hint::black_box;

/// Operations per criterion iteration: enough to amortize loop overhead
/// while keeping each sample well under a millisecond.
const OPS: usize = 10_000;

fn bench_obs(c: &mut Criterion) {
    {
        let mut group = c.benchmark_group("obs");
        group.bench_with_input(BenchmarkId::new("counter_add", OPS), &OPS, |bench, _| {
            let reg = Registry::new();
            let ctr = reg.counter("bench_counter", Plane::Deterministic);
            bench.iter(|| {
                for i in 0..OPS {
                    ctr.add(i as u64 & 7);
                }
                black_box(ctr.value())
            });
        });
        group.bench_with_input(BenchmarkId::new("histogram_record", OPS), &OPS, |bench, _| {
            let reg = Registry::new();
            let hist = reg.histogram("bench_hist", Plane::Deterministic);
            bench.iter(|| {
                for i in 0..OPS {
                    hist.record((i as u64).wrapping_mul(0x9E37_79B9) & 0xFFFF);
                }
                black_box(hist.count())
            });
        });
        group.bench_with_input(BenchmarkId::new("snapshot", OPS), &OPS, |bench, _| {
            // A registry populated like a real pipeline's: a few dozen
            // instruments across both planes.
            let reg = Registry::new();
            for k in 0..32u64 {
                reg.counter(&format!("c{k}"), Plane::Deterministic).add(k);
                reg.histogram(&format!("h{k}"), Plane::Timing).record(k * 17);
            }
            bench.iter(|| black_box(reg.snapshot().deterministic_plane().len()));
        });
        group.finish();
    }
    emit_bench_json(c);
}

/// Writes `BENCH_obs.json` at the repo root: median cost of one counter
/// add, one histogram record (ns per operation), and one 64-instrument
/// registry snapshot (ns per call).
fn emit_bench_json(c: &Criterion) {
    let ns = |path: &str| median(c.results(), &format!("obs/{path}/{OPS}"));
    let (Some(counter), Some(hist), Some(snapshot)) =
        (ns("counter_add"), ns("histogram_record"), ns("snapshot"))
    else {
        eprintln!("obs results missing; not writing BENCH_obs.json");
        return;
    };
    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"ops_per_iter\": {OPS},\n  \"configs\": [\n    \
         {{\"op\": \"counter_add\", \"median_ns_per_op\": {:.3}}},\n    \
         {{\"op\": \"histogram_record\", \"median_ns_per_op\": {:.3}}},\n    \
         {{\"op\": \"snapshot_64_instruments\", \"median_ns_per_call\": {snapshot:.1}}}\n  ]\n}}\n",
        counter / OPS as f64,
        hist / OPS as f64,
    );
    write_baseline("BENCH_obs.json", &json);
    println!(
        "counter add {:.2} ns, histogram record {:.2} ns per op",
        counter / OPS as f64,
        hist / OPS as f64
    );
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
