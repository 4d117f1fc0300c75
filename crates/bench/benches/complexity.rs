//! §VI-B complexity benches: GridAreaResponse is O(1) per report after an
//! O(b̂²) setup; EM post-processing through the convolution operator is
//! O(n_out·b̂²) per iteration vs the dense channel's O(n_out·n_in) and
//! the spectral operator's O(n² log n); the exact OT solver scales as expected.
//!
//! The EM groups (`em_dense_vs_conv` d-sweep at b̂ = 4, `em_conv_vs_fft`
//! radius sweep at d = 64 plus the d = 20, b̂ = 4 pair the `ingest-1m` and
//! `durable-cluster` benchmark workloads run at) also emit
//! `BENCH_em.json` at the repo root —
//! machine-readable medians, per-row backend labels, the measured
//! stencil↔FFT crossover radius and the radius `EmBackend::Auto` switches
//! at, so later PRs can regress against a recorded perf trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_bench::{bench_grid, bench_points};
use dam_core::em2d::{EmBackend, EmOperator, PostProcess};
use dam_core::grid::KernelKind;
use dam_core::kernel::DiscreteKernel;
use dam_core::response::GridAreaResponse;
use dam_core::{ConvChannel, FftChannel};
use dam_fo::em::{expectation_maximization, Channel, ChannelOp, EmParams, EmRun, EmWorkspace};
use dam_geo::rng::seeded;
use dam_geo::{CellIndex, Histogram2D};
use dam_transport::cost::CostMatrix;
use dam_transport::exact::solve_exact;
use std::hint::black_box;

fn bench_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_area_response");
    for &b in &[1u32, 3, 5, 8] {
        let kernel = DiscreteKernel::dam(3.5, 15, b, KernelKind::Shrunken);
        let resp = GridAreaResponse::new(kernel);
        let mut rng = seeded(1);
        // Cycle over every input cell: one fixed input would let the
        // branch predictor learn a single far-field layout.
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
                black_box(EmOperator::new(&kernel, EmBackend::Auto).post_process(
                    &counts,
                    &grid,
                    PostProcess::Em,
                    EmParams { max_iters: 100, rel_tol: 1e-6, gain_tol: 0.0 },
                    None,
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

/// One cold-start EM run through a fresh workspace — what every timed EM
/// row measures.
fn cold_em<C: ChannelOp + ?Sized>(channel: &C, counts: &[f64], params: EmParams) -> EmRun {
    expectation_maximization(channel, counts, None, None, params, &mut EmWorkspace::new())
}

/// Iterations per timed EM run in the d-sweep (matches the PR 1 baseline
/// so the committed numbers stay comparable).
const D_SWEEP_ITERS: usize = 50;
/// Iterations per timed EM run in the radius sweep (the b̂ = 32 stencil
/// does ~69 M MACs *per iteration*; 10 iterations keep the bench honest
/// without minutes of wall clock).
const RADIUS_SWEEP_ITERS: usize = 10;
/// Radii of the `em_conv_vs_fft` sweep.
const RADIUS_SWEEP_B: [u32; 4] = [4, 8, 16, 32];
/// Grid side of the radius sweep.
const RADIUS_SWEEP_D: u32 = 64;
/// Extra `(d, b̂)` stencil-vs-spectral pair outside the sweep: the shape
/// of the end-to-end benchmark's 1M-users/epoch workloads, where
/// `EmBackend::Auto` picks the FFT.
const SMALL_PAIR: (u32, u32) = (20, 4);

/// `(d, b̂)` shapes of the `em_conv_vs_fft` group, keyed `d{d}_b{b̂}`.
fn conv_vs_fft_shapes() -> impl Iterator<Item = (u32, u32)> {
    RADIUS_SWEEP_B.iter().map(|&b| (RADIUS_SWEEP_D, b)).chain([SMALL_PAIR])
}

/// Dense vs convolution EM at fixed iteration counts, b̂ = 4. Dense is
/// skipped at d = 64 (the 5184 × 4096 matrix is exactly what the
/// structured paths exist to avoid); the conv operator runs every size.
fn bench_dense_vs_conv(c: &mut Criterion) {
    const B_HAT: u32 = 4;
    let params = EmParams { max_iters: D_SWEEP_ITERS, rel_tol: 0.0, gain_tol: 0.0 };
    let mut group = c.benchmark_group("em_dense_vs_conv");
    group.sample_size(10);
    for &d in &[16u32, 32, 64] {
        let kernel = DiscreteKernel::dam(3.5, d, B_HAT, KernelKind::Shrunken);
        let counts = em_counts(&kernel, 6);
        let conv = ConvChannel::new(&kernel);
        group.bench_with_input(BenchmarkId::new("conv", d), &d, |bench, _| {
            bench.iter(|| black_box(cold_em(&conv, &counts, params)));
        });
        if d < 64 {
            let dense: Channel = kernel.channel();
            group.bench_with_input(BenchmarkId::new("dense", d), &d, |bench, _| {
                bench.iter(|| black_box(cold_em(&dense, &counts, params)));
            });
        }
    }
    group.finish();
}

/// Stencil vs spectral EM across the radius sweep at d = 64 — the
/// crossover `EmBackend::Auto` is calibrated against — and at
/// [`SMALL_PAIR`].
fn bench_conv_vs_fft(c: &mut Criterion) {
    let params = EmParams { max_iters: RADIUS_SWEEP_ITERS, rel_tol: 0.0, gain_tol: 0.0 };
    let mut group = c.benchmark_group("em_conv_vs_fft");
    group.sample_size(5);
    for (d, b) in conv_vs_fft_shapes() {
        let kernel = DiscreteKernel::dam(3.5, d, b, KernelKind::Shrunken);
        let counts = em_counts(&kernel, 6);
        let conv = ConvChannel::new(&kernel);
        let shape = format!("d{d}_b{b}");
        group.bench_with_input(BenchmarkId::new("conv", &shape), &b, |bench, _| {
            bench.iter(|| black_box(cold_em(&conv, &counts, params)));
        });
        let fft = FftChannel::new(&kernel);
        group.bench_with_input(BenchmarkId::new("fft", &shape), &b, |bench, _| {
            bench.iter(|| black_box(cold_em(&fft, &counts, params)));
        });
    }
    group.finish();
}

/// Writes `BENCH_em.json` at the repo root: per-row median ns (fixed
/// iteration counts) for both EM groups, the headline dense/conv speedup
/// at d = 32, the FFT/conv speedup at b̂ = 32, and the measured vs
/// auto-model crossover radii. Registered after both EM groups so every
/// median is available.
fn emit_bench_json(c: &mut Criterion) {
    let lookup = |group: &str, backend: &str, param: &str| -> Option<f64> {
        c.results()
            .iter()
            .find(|(name, _)| name == &format!("{group}/{backend}/{param}"))
            .map(|&(_, ns)| ns)
    };
    let mut entries = Vec::new();
    let mut row = |d: u32, b: u32, backend: &str, iters: usize, ns: f64| {
        let auto = EmBackend::Auto.resolve(d, b).label();
        entries.push(format!(
            "    {{\"d\": {d}, \"b_hat\": {b}, \"backend\": \"{backend}\", \
             \"em_iters\": {iters}, \"median_ns_per_em\": {ns:.1}, \
             \"median_ns_per_iter\": {:.1}, \"auto_selects\": \"{auto}\"}}",
            ns / iters as f64
        ));
    };
    for &d in &[16u32, 32, 64] {
        for backend in ["dense", "conv"] {
            if let Some(ns) = lookup("em_dense_vs_conv", backend, &d.to_string()) {
                row(d, 4, backend, D_SWEEP_ITERS, ns);
            }
        }
    }
    let mut measured_crossover: Option<u32> = None;
    for (d, b) in conv_vs_fft_shapes() {
        let shape = format!("d{d}_b{b}");
        let conv = lookup("em_conv_vs_fft", "conv", &shape);
        let fft = lookup("em_conv_vs_fft", "fft", &shape);
        for (backend, ns) in [("conv", conv), ("fft", fft)] {
            if let Some(ns) = ns {
                row(d, b, backend, RADIUS_SWEEP_ITERS, ns);
            }
        }
        if let (Some(cv), Some(ff)) = (conv, fft) {
            if d == RADIUS_SWEEP_D && ff < cv && measured_crossover.is_none() {
                measured_crossover = Some(b);
            }
        }
    }
    let auto_crossover = RADIUS_SWEEP_B
        .iter()
        .find(|&&b| EmBackend::Auto.resolve(RADIUS_SWEEP_D, b) == EmBackend::Fft);
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(x), Some(y)) if y > 0.0 => format!("{:.2}", x / y),
        _ => "null".to_string(),
    };
    let dense_speedup =
        ratio(lookup("em_dense_vs_conv", "dense", "32"), lookup("em_dense_vs_conv", "conv", "32"));
    let fft_speedup = ratio(
        lookup("em_conv_vs_fft", "conv", "d64_b32"),
        lookup("em_conv_vs_fft", "fft", "d64_b32"),
    );
    let fmt_opt = |v: Option<u32>| v.map(|b| b.to_string()).unwrap_or_else(|| "null".into());
    let json = format!(
        "{{\n  \"bench\": \"em_backends\",\n  \"radius_sweep_d\": {RADIUS_SWEEP_D},\n  \
         \"configs\": [\n{}\n  ],\n  \
         \"speedup_dense_over_conv_d32\": {dense_speedup},\n  \
         \"speedup_fft_over_conv_b32\": {fft_speedup},\n  \
         \"measured_crossover_b_hat\": {},\n  \
         \"auto_crossover_b_hat\": {}\n}}\n",
        entries.join(",\n"),
        fmt_opt(measured_crossover),
        fmt_opt(auto_crossover.copied()),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_em.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "wrote {path} (dense/conv at d=32: {dense_speedup}x, fft/conv at b=32: {fft_speedup}x)"
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_transport");
    group.sample_size(10);
    let mut rng = seeded(4);
    for &n in &[16usize, 64, 144] {
        use rand::Rng;
        let pts: Vec<dam_geo::Point> =
            (0..n).map(|i| dam_geo::Point::new((i % 12) as f64, (i / 12) as f64)).collect();
        let a: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 0.01).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 0.01).collect();
        let (sa, sb): (f64, f64) = (a.iter().sum(), b.iter().sum());
        let a: Vec<f64> = a.iter().map(|x| x / sa).collect();
        let b: Vec<f64> = b.iter().map(|x| x / sb).collect();
        let cost = CostMatrix::euclidean_pow(&pts, &pts, 2);
        group.bench_with_input(BenchmarkId::new("exact_lp", n), &n, |bench, _| {
            bench.iter(|| black_box(solve_exact(&a, &b, &cost).unwrap().cost));
        });
    }
    group.finish();
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
    bench_dense_vs_conv,
    bench_conv_vs_fft,
    emit_bench_json,
    bench_transport,
    bench_histogram
);
criterion_main!(benches);
