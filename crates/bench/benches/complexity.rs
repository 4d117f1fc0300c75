//! §VI-B complexity benches: GridAreaResponse is O(1) per report after an
//! O(b̂² + d²) setup (one alias table over the box and the output grid); EM post-processing through the spectral operator is
//! O(n² log n) per iteration on the padded `2^a·3^b` grid (the dense
//! channel's O(n_out·n_in) is what it replaces). The exact OT solver's
//! scaling is measured by the `w2` bench.
//!
//! The `em_fft` group (the d = 64 radius sweep plus the shapes the
//! end-to-end benchmark workloads run at: d = 20, b̂ = 4 for `ingest-1m`
//! and `durable-cluster`, d = 64, b̂ = 14 for `stream-fft`) also emits
//! `BENCH_em.json` at the repo root — machine-readable medians per shape,
//! so later changes can regress against a recorded perf trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_bench::{bench_grid, bench_points, median, write_baseline};
use dam_core::fft::next_fft_side;
use dam_core::grid::KernelKind;
use dam_core::kernel::DiscreteKernel;
use dam_core::response::GridAreaResponse;
use dam_core::FftChannel;
use dam_fo::em::{expectation_maximization, EmParams, EmWorkspace};
use dam_geo::rng::seeded;
use dam_geo::{CellIndex, Histogram2D};
use std::hint::black_box;

fn bench_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_area_response");
    for &b in &[1u32, 3, 5, 8] {
        let kernel = DiscreteKernel::dam(3.5, 15, b, KernelKind::Shrunken);
        let resp = GridAreaResponse::new(kernel);
        let mut rng = seeded(1);
        // Cycle over every input cell, as a batch of users does.
        let inputs: Vec<CellIndex> = (0..15 * 15).map(|k| CellIndex::new(k % 15, k / 15)).collect();
        let mut next = inputs.iter().cycle();
        group.bench_with_input(BenchmarkId::new("report", b), &b, |bench, _| {
            bench.iter(|| {
                let input = *next.next().expect("cycle over a non-empty list never ends");
                black_box(resp.respond(input, &mut rng))
            });
        });
    }
    for &b in &[1u32, 3, 5, 8] {
        group.bench_with_input(BenchmarkId::new("setup", b), &b, |bench, &b| {
            bench.iter(|| {
                let kernel = DiscreteKernel::dam(3.5, 15, b, KernelKind::Shrunken);
                black_box(GridAreaResponse::new(kernel))
            });
        });
    }
    group.finish();
}

fn bench_postprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("em_postprocess");
    group.sample_size(10);
    for &d in &[5u32, 10, 15] {
        let kernel = DiscreteKernel::dam(3.5, d, 2, KernelKind::Shrunken);
        let grid = bench_grid(d);
        let resp = GridAreaResponse::new(kernel.clone());
        let mut rng = seeded(2);
        let mut counts = vec![0.0f64; kernel.n_out()];
        for p in bench_points(20_000, 3) {
            let o = resp.respond(grid.cell_of(p), &mut rng);
            counts[o.iy as usize * kernel.out_d() as usize + o.ix as usize] += 1.0;
        }
        group.bench_with_input(BenchmarkId::new("em", d), &d, |bench, _| {
            bench.iter(|| {
                black_box(expectation_maximization(
                    &kernel.fft_channel(None),
                    &counts,
                    None,
                    None,
                    EmParams { max_iters: 100, rel_tol: 1e-6, gain_tol: 0.0 },
                    &mut EmWorkspace::new(),
                ))
            });
        });
    }
    group.finish();
}

/// Synthetic noisy counts for an EM bench at one kernel configuration.
fn em_counts(kernel: &DiscreteKernel, seed: u64) -> Vec<f64> {
    let resp = GridAreaResponse::new(kernel.clone());
    let mut rng = seeded(seed);
    let mut counts = vec![0.0f64; kernel.n_out()];
    let d = kernel.d();
    for k in 0..50_000u32 {
        let input = CellIndex::new(k % d, (k / 7) % d);
        let o = resp.respond(input, &mut rng);
        counts[o.iy as usize * kernel.out_d() as usize + o.ix as usize] += 1.0;
    }
    counts
}

/// Iterations per timed EM run.
const EM_ITERS: usize = 10;
/// Radii of the d = 64 sweep.
const RADIUS_SWEEP_B: [u32; 4] = [4, 8, 16, 32];
/// Grid side of the radius sweep.
const RADIUS_SWEEP_D: u32 = 64;
/// Extra `(d, b̂)` shapes outside the sweep, those of the end-to-end
/// benchmark's workloads: the 1M-users/epoch ones (one-plane n = 32
/// plans) and `stream-fft` (n = 96, one plane per core on a multi-core
/// host).
const WORKLOAD_SHAPES: [(u32, u32); 2] = [(20, 4), (64, 14)];

/// Samples per `em_fft` row: 0.5 s (d = 20) to 5 s (d = 64, b̂ = 32) of
/// EM each. On a 2-vCPU VM the host's speed drifts in spells of seconds,
/// so a row's median is only as steady as the time it spans. Three runs
/// of one commit read `d64_b4` from 2.14 to 3.89 ms with the shim's
/// default of 20 samples, and `d64_b32` 1.6× apart with 200. With 1000,
/// a quiet batch stayed within 10% on five of the six rows (`d64_b14`
/// 15%) while a busy one spread 1.8× on `d20_b4`; 3000 samples (about a
/// minute a run) did no better on a busy host.
const EM_SAMPLES: usize = 1000;

/// `(d, b̂)` shapes of the `em_fft` group, keyed `d{d}_b{b̂}`.
fn em_shapes() -> impl Iterator<Item = (u32, u32)> {
    RADIUS_SWEEP_B.iter().map(|&b| (RADIUS_SWEEP_D, b)).chain(WORKLOAD_SHAPES)
}

/// Cold-start spectral EM at a fixed iteration count across
/// [`em_shapes`].
fn bench_em_fft(c: &mut Criterion) {
    let params = EmParams { max_iters: EM_ITERS, rel_tol: 0.0, gain_tol: 0.0 };
    let mut group = c.benchmark_group("em_fft");
    group.sample_size(EM_SAMPLES);
    for (d, b) in em_shapes() {
        let kernel = DiscreteKernel::dam(3.5, d, b, KernelKind::Shrunken);
        let counts = em_counts(&kernel, 6);
        let fft = FftChannel::new(&kernel, None);
        group.bench_with_input(BenchmarkId::new("fft", format!("d{d}_b{b}")), &b, |bench, _| {
            bench.iter(|| {
                let mut ws = EmWorkspace::new();
                black_box(expectation_maximization(&fft, &counts, None, None, params, &mut ws))
            });
        });
    }
    group.finish();
}

/// Writes `BENCH_em.json` at the repo root: per-shape median ns for
/// [`EM_ITERS`] iterations and per iteration, with the padded transform
/// side. Registered after the `em_fft` group so every median is
/// available.
fn emit_bench_json(c: &mut Criterion) {
    let entries: Vec<String> = em_shapes()
        .filter_map(|(d, b)| {
            let ns = median(c.results(), &format!("em_fft/fft/d{d}_b{b}"))?;
            let n = next_fft_side((d + 2 * b) as usize);
            Some(format!(
                "    {{\"d\": {d}, \"b_hat\": {b}, \"padded_n\": {n}, \"em_iters\": {EM_ITERS}, \
                 \"median_ns_per_em\": {ns:.1}, \"median_ns_per_iter\": {:.1}}}",
                ns / EM_ITERS as f64
            ))
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"em_fft\",\n  \"configs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    write_baseline("BENCH_em.json", &json);
}

fn bench_histogram(c: &mut Criterion) {
    let pts = bench_points(100_000, 5);
    let grid = bench_grid(15);
    c.bench_function("bucketize_100k_points", |bench| {
        bench.iter(|| black_box(Histogram2D::from_points(grid.clone(), &pts)));
    });
}

criterion_group!(
    benches,
    bench_response,
    bench_postprocess,
    bench_em_fft,
    emit_bench_json,
    bench_histogram
);
criterion_main!(benches);
