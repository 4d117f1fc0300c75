//! Report-phase throughput at million-user scale: the legacy sequential
//! per-point loop vs the sharded pipeline on the persistent worker pool
//! (the embarrassingly parallel layer of every LDP protocol — §VI-B's
//! O(1)-per-report client cost only pays off if the simulation fans it
//! out).
//!
//! Emits `BENCH_reports.json` at the repo root — machine-readable medians
//! plus the sharded-over-sequential speedup, so later PRs can regress
//! against a recorded throughput trajectory. The speedup scales with the
//! worker count (recorded in the JSON); on a single-core runner the two
//! paths are equivalent by construction.
//!
//! The `sharded` row (`report_batch`) is itself the validated per-point
//! loop under the clamp policy on clean input — `DamClient` has one
//! report loop. The `validated` row measures the same batch through
//! `report_batch_validated_in` with a reused scratch buffer and the
//! summary kept; the guard holds it within ~10% of the `sharded` row.
//!
//! The `metered` row adds the dam-obs recording the streaming estimator
//! performs per ingest batch (summary counters, batch-latency histogram)
//! on top of the validated path — the observability tax, pinned at ≤5%
//! of the raw sharded path (recording is per *batch*, not per report, so
//! it amortizes to noise at this scale).
//!
//! The `by_d` rows time the same validated batch at d ∈ {20, 64, 128} on
//! one thread and on every core. The sampler's alias table has
//! `box_side² + n_out` 16-byte slots (13.8 KB at d = 20, 149 KB at
//! d = 64, ~600 KB at d = 128), so these rows show what a table that
//! leaves L1 costs a report at the sizes the figure binaries run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_bench::{bench_grid, bench_points, median, write_baseline};
use dam_core::{DamClient, DamConfig, IngestPolicy};
use dam_geo::rng::seeded;
use dam_obs::{Plane, Registry};
use std::hint::black_box;

/// ≥ 1M simulated users, the regime the fig9 large-d binaries now run by
/// default.
const N_POINTS: usize = 1_000_000;
const D: u32 = 20;
const EPS: f64 = 3.5;
const MASTER_SEED: u64 = 0xBE7C_0011;
/// Grid sides of the `by_d` rows.
const BY_D: [u32; 3] = [20, 64, 128];
/// Thread caps of the `by_d` rows: one thread, and every core.
const BY_D_THREADS: [(&str, Option<usize>); 2] = [("1", Some(1)), ("all", None)];

fn bench_report_phase(c: &mut Criterion) {
    let points = bench_points(N_POINTS, 9);
    let client = DamClient::new(bench_grid(D), &DamConfig::dam(EPS));
    let od = client.kernel().out_d() as usize;
    {
        let mut group = c.benchmark_group("reports_throughput");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("sequential", N_POINTS), &N_POINTS, |bench, _| {
            bench.iter(|| {
                let mut rng = seeded(MASTER_SEED);
                let mut counts = vec![0.0f64; od * od];
                for &p in &points {
                    let noisy = client.report(p, &mut rng);
                    counts[noisy.iy as usize * od + noisy.ix as usize] += 1.0;
                }
                black_box(counts)
            });
        });
        group.bench_with_input(BenchmarkId::new("sharded", N_POINTS), &N_POINTS, |bench, _| {
            bench.iter(|| black_box(client.report_batch(&points, MASTER_SEED, None)));
        });
        group.bench_with_input(BenchmarkId::new("validated", N_POINTS), &N_POINTS, |bench, _| {
            let mut scratch = Vec::new();
            bench.iter(|| {
                let summary = client.report_batch_validated_in(
                    &points,
                    MASTER_SEED,
                    None,
                    IngestPolicy::Clamp,
                    &mut scratch,
                );
                black_box((summary.accepted(), scratch.len()))
            });
        });
        group.bench_with_input(BenchmarkId::new("metered", N_POINTS), &N_POINTS, |bench, _| {
            // Exactly what StreamingEstimator::ingest_epoch_with adds on
            // top of the validated batch: three summary counter adds, one
            // histogram record, one gauge set.
            let reg = Registry::new();
            let seen = reg.counter("ingest_reports_seen", Plane::Deterministic);
            let quarantined = reg.counter("ingest_reports_quarantined", Plane::Deterministic);
            let clamped = reg.counter("ingest_reports_clamped", Plane::Deterministic);
            let batch_ns = reg.histogram("ingest_batch_ns", Plane::Timing);
            let ns_per_report = reg.gauge("ingest_ns_per_report", Plane::Timing);
            let mut scratch = Vec::new();
            bench.iter(|| {
                let t0 = reg.now_ns();
                let summary = client.report_batch_validated_in(
                    &points,
                    MASTER_SEED,
                    None,
                    IngestPolicy::Clamp,
                    &mut scratch,
                );
                seen.add(summary.seen);
                quarantined.add(summary.quarantined);
                clamped.add(summary.clamped);
                let dt = reg.now_ns().saturating_sub(t0);
                batch_ns.record(dt);
                ns_per_report.set(dt as f64 / points.len() as f64);
                black_box((summary.accepted(), scratch.len()))
            });
        });
        group.finish();
    }
    {
        let mut group = c.benchmark_group("reports_by_d");
        group.sample_size(10);
        for d in BY_D {
            let client = DamClient::new(bench_grid(d), &DamConfig::dam(EPS));
            for (label, threads) in BY_D_THREADS {
                let mut scratch = Vec::new();
                group.bench_function(BenchmarkId::new(format!("d{d}"), label), |bench| {
                    bench.iter(|| {
                        let summary = client.report_batch_validated_in(
                            &points,
                            MASTER_SEED,
                            threads,
                            IngestPolicy::Clamp,
                            &mut scratch,
                        );
                        black_box((summary.accepted(), scratch.len()))
                    });
                });
            }
        }
        group.finish();
    }
    emit_bench_json(c);
}

/// The `by_d` rows of `BENCH_reports.json`, or `None` if one is missing.
fn by_d_rows(c: &Criterion) -> Option<String> {
    let mut rows = Vec::new();
    for d in BY_D {
        let kernel = DamClient::new(bench_grid(d), &DamConfig::dam(EPS)).kernel().clone();
        let slots = kernel.box_side().pow(2) + kernel.n_out();
        for (label, _) in BY_D_THREADS {
            let ns = median(c.results(), &format!("reports_by_d/d{d}/{label}"))?;
            rows.push(format!(
                "    {{\"d\": {d}, \"b_hat\": {}, \"table_slots\": {slots}, \
                 \"threads\": \"{label}\", \"median_ns_per_batch\": {ns:.1}, \
                 \"median_ns_per_report\": {:.2}}}",
                kernel.b_hat(),
                ns / N_POINTS as f64,
            ));
        }
    }
    Some(rows.join(",\n"))
}

/// Writes `BENCH_reports.json` at the repo root: median ns per 1M-report
/// batch for both paths, per-report cost, worker count, the headline
/// speedup and the `by_d` rows.
fn emit_bench_json(c: &Criterion) {
    let ns = |path: &str| median(c.results(), &format!("reports_throughput/{path}/{N_POINTS}"));
    let (Some(seq), Some(sharded), Some(validated), Some(metered), Some(by_d)) =
        (ns("sequential"), ns("sharded"), ns("validated"), ns("metered"), by_d_rows(c))
    else {
        eprintln!("reports_throughput results missing; not writing BENCH_reports.json");
        return;
    };
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let speedup = seq / sharded;
    let overhead = validated / sharded;
    let metered_overhead = metered / sharded;
    // The dam-obs pin: the recording delta on top of the validated path,
    // as a fraction of the raw sharded batch (≤0.05 by design — recording
    // is per batch, not per report).
    let metering_tax = (metered - validated) / sharded;
    let json = format!(
        "{{\n  \"bench\": \"reports_throughput\",\n  \"n_points\": {N_POINTS},\n  \
         \"d\": {D},\n  \"eps\": {EPS},\n  \"threads\": {threads},\n  \"configs\": [\n    \
         {{\"path\": \"sequential\", \"median_ns_per_batch\": {seq:.1}, \
         \"median_ns_per_report\": {:.2}}},\n    \
         {{\"path\": \"sharded\", \"median_ns_per_batch\": {sharded:.1}, \
         \"median_ns_per_report\": {:.2}}},\n    \
         {{\"path\": \"validated\", \"median_ns_per_batch\": {validated:.1}, \
         \"median_ns_per_report\": {:.2}}},\n    \
         {{\"path\": \"metered\", \"median_ns_per_batch\": {metered:.1}, \
         \"median_ns_per_report\": {:.2}}}\n  ],\n  \
         \"speedup_sharded_over_sequential\": {speedup:.2},\n  \
         \"validation_overhead_vs_sharded\": {overhead:.3},\n  \
         \"metered_overhead_vs_sharded\": {metered_overhead:.3},\n  \
         \"metering_tax_vs_sharded\": {metering_tax:.3},\n  \
         \"by_d\": [\n{by_d}\n  ]\n}}\n",
        seq / N_POINTS as f64,
        sharded / N_POINTS as f64,
        validated / N_POINTS as f64,
        metered / N_POINTS as f64,
    );
    write_baseline("BENCH_reports.json", &json);
    println!("sharded/sequential speedup at {N_POINTS} reports, {threads} threads: {speedup:.2}x");
}

criterion_group!(benches, bench_report_phase);
criterion_main!(benches);
