//! Pyramid range-query benchmarks: the costs behind the
//! serve-while-ingesting story at dashboard resolutions d ∈ {64, 256}.
//!
//! * **Build** — exact bottom-up aggregation of a d×d plane
//!   ([`Pyramid::from_plane`], paid once per published snapshot);
//! * **Constrained inference** — the Hay-style bottom-up fusion +
//!   top-down consistency pass over all noisy levels
//!   ([`Pyramid::constrained`], paid once per hierarchy fit);
//! * **Answering** — the minimal-node-cover walk vs naive O(cells)
//!   summation for a large (d/2 × d/2) centered range; the committed
//!   `BENCH_range.json` pins the cover path ≥ 10× over naive at d = 256
//!   along with the node counts that explain it;
//! * **Point** — one [`Pyramid::cell`] read, the cells visited in a
//!   scattered order so the row is not a cached-line best case;
//! * **Range mix** — the end-to-end benchmark's own ranges at its grid
//!   sides d ∈ {20, 64}: the three selectivities 1/8, 1/4 and 1/2 in
//!   turn, placed uniformly at random in either orientation, timed per
//!   range over a fixed batch, with the batch's mean cover size.
//!
//! Emits `BENCH_range.json` at the repo root so later PRs can regress
//! against the recorded trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_bench::{median, write_baseline};
use dam_core::{NoisyLevel, Pyramid};
use dam_geo::rng::derived;
use rand::Rng;
use std::hint::black_box;

const SIDES: [u32; 2] = [64, 256];
/// Grid sides of the end-to-end workloads (`ingest-1m` and
/// `durable-cluster` at 20, `stream-fft` at 64).
const MIX_SIDES: [u32; 2] = [20, 64];
/// Range selectivities (share of the grid's cells) the mix cycles through.
const SELECTIVITIES: [f64; 3] = [0.125, 0.25, 0.5];
/// Ranges in one timed batch of the mix.
const MIX_RANGES: usize = 300;

/// Deterministic clustered plane (two dense blocks over a low floor —
/// the shape constrained inference is built for).
fn clustered_plane(d: u32) -> Vec<f64> {
    (0..d * d)
        .map(|i| {
            let (x, y) = (i % d, i / d);
            let hot_a = x < d / 4 && y < d / 4;
            let hot_b = x >= 3 * d / 4 && y >= d / 2;
            let base = ((i * 13) % 7) as f64 * 0.01;
            base + if hot_a {
                5.0
            } else if hot_b {
                3.0
            } else {
                0.1
            }
        })
        .collect()
}

/// Noisy per-level observations of the plane's true aggregates
/// (deterministic perturbation; the pass's cost does not depend on the
/// noise realization).
fn noisy_levels(exact: &Pyramid) -> Vec<Vec<f64>> {
    exact
        .levels()
        .iter()
        .enumerate()
        .map(|(li, lv)| {
            lv.values()
                .iter()
                .enumerate()
                .map(|(i, &v)| if li == 0 { v } else { v + 0.02 * ((li + i) % 5) as f64 - 0.04 })
                .collect()
        })
        .collect()
}

/// The large centered range the answering benches use: d/2 × d/2, offset
/// by one cell so the cover cannot collapse to a single aligned node.
fn large_range(d: u32) -> (u32, u32, u32, u32) {
    (d / 4 + 1, d / 4 + 1, 3 * d / 4, 3 * d / 4)
}

/// The `k`-th cell of the point bench's scattered visiting order
/// (a Weyl sequence over the cells, so successive reads land far apart).
fn point_cell(d: u32, k: u32) -> (u32, u32) {
    let i = k.wrapping_mul(0x9E37_79B9) % (d * d);
    (i % d, i / d)
}

/// The range mix at side `d`: [`MIX_RANGES`] inclusive rectangles, each
/// covering its selectivity's share of the grid (`d × d·sel` when
/// `sel ≥ 1/2`, else `d/2 × 2d·sel`), transposed half the time, placed
/// uniformly — the shapes the end-to-end benchmark's readers ask for.
fn range_mix(d: u32) -> Vec<(u32, u32, u32, u32)> {
    let mut rng = derived(0x5EED_0038, u64::from(d));
    (0..MIX_RANGES)
        .map(|i| {
            let sel = SELECTIVITIES[i % SELECTIVITIES.len()];
            let (w, h) = if sel >= 0.5 {
                (d, ((d as f64 * sel).round() as u32).max(1))
            } else {
                ((d / 2).max(1), ((2.0 * d as f64 * sel).round() as u32).clamp(1, d))
            };
            let (w, h) = if rng.gen::<bool>() { (w, h) } else { (h, w) };
            let x0 = rng.gen_range(0..=d - w);
            let y0 = rng.gen_range(0..=d - h);
            (x0, y0, x0 + w - 1, y0 + h - 1)
        })
        .collect()
}

fn naive_range_sum(plane: &[f64], d: u32, q: (u32, u32, u32, u32)) -> f64 {
    let mut acc = 0.0;
    for y in q.1..=q.3 {
        for x in q.0..=q.2 {
            acc += plane[(y * d + x) as usize];
        }
    }
    acc
}

fn bench_range(c: &mut Criterion) {
    for &d in &SIDES {
        let plane = clustered_plane(d);
        let exact = Pyramid::from_plane(&plane, d);
        let noisy = noisy_levels(&exact);
        let levels: Vec<NoisyLevel> = noisy
            .iter()
            .enumerate()
            .map(|(li, v)| NoisyLevel { values: v, variance: if li == 0 { 0.0 } else { 0.05 } })
            .collect();
        let q = large_range(d);

        let mut group = c.benchmark_group("pyramid_build");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("from_plane", d), &d, |bench, _| {
            bench.iter(|| black_box(Pyramid::from_plane(&plane, d)));
        });
        group.finish();

        let mut group = c.benchmark_group("constrained");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("infer", d), &d, |bench, _| {
            bench.iter(|| black_box(Pyramid::constrained(&levels, d)));
        });
        group.finish();

        let mut group = c.benchmark_group("range_answer");
        group.bench_with_input(BenchmarkId::new("cover", d), &d, |bench, _| {
            bench.iter(|| black_box(exact.range_sum(q.0, q.1, q.2, q.3)));
        });
        group.bench_with_input(BenchmarkId::new("naive", d), &d, |bench, _| {
            bench.iter(|| black_box(naive_range_sum(&plane, d, q)));
        });
        group.bench_with_input(BenchmarkId::new("point", d), &d, |bench, _| {
            let mut k = 0u32;
            bench.iter(|| {
                k = k.wrapping_add(1);
                let (x, y) = point_cell(d, k);
                black_box(exact.cell(x, y))
            });
        });
        group.finish();
    }

    let mut group = c.benchmark_group("range_mix");
    for &d in &MIX_SIDES {
        let exact = Pyramid::from_plane(&clustered_plane(d), d);
        let mix = range_mix(d);
        group.bench_with_input(BenchmarkId::new("cover", d), &d, |bench, _| {
            bench.iter(|| {
                let mut acc = 0.0;
                for &(x0, y0, x1, y1) in &mix {
                    acc += exact.range_sum(x0, y0, x1, y1);
                }
                black_box(acc)
            });
        });
    }
    group.finish();

    emit_bench_json(c);
}

fn emit_bench_json(c: &Criterion) {
    let ns = |name: String| median(c.results(), &name);
    let mut rows = String::new();
    for (i, &d) in SIDES.iter().enumerate() {
        let (Some(build), Some(infer), Some(cover), Some(naive), Some(point)) = (
            ns(format!("pyramid_build/from_plane/{d}")),
            ns(format!("constrained/infer/{d}")),
            ns(format!("range_answer/cover/{d}")),
            ns(format!("range_answer/naive/{d}")),
            ns(format!("range_answer/point/{d}")),
        ) else {
            eprintln!("range results missing for d={d}; not writing BENCH_range.json");
            return;
        };
        let q = large_range(d);
        let plane = clustered_plane(d);
        let exact = Pyramid::from_plane(&plane, d);
        let (_, nodes) = exact.range_sum_counted(q.0, q.1, q.2, q.3);
        let cells = ((q.2 + 1 - q.0) as u64) * ((q.3 + 1 - q.1) as u64);
        rows += &format!(
            "    {{\"d\": {d}, \"build_ns\": {build:.0}, \"constrained_ns\": {infer:.0}, \
             \"range_cells\": {cells}, \"cover_nodes\": {nodes}, \"cover_ns\": {cover:.0}, \
             \"naive_ns\": {naive:.0}, \"speedup\": {:.2}, \"point_ns\": {point:.1}}}{}\n",
            naive / cover,
            if i + 1 < SIDES.len() { "," } else { "" },
        );
    }
    let mut mix_rows = String::new();
    for (i, &d) in MIX_SIDES.iter().enumerate() {
        let Some(batch) = ns(format!("range_mix/cover/{d}")) else {
            eprintln!("range mix results missing for d={d}; not writing BENCH_range.json");
            return;
        };
        let exact = Pyramid::from_plane(&clustered_plane(d), d);
        let nodes: usize =
            range_mix(d).iter().map(|q| exact.range_sum_counted(q.0, q.1, q.2, q.3).1).sum();
        mix_rows += &format!(
            "    {{\"d\": {d}, \"ranges\": {MIX_RANGES}, \"cover_nodes_mean\": {:.1}, \
             \"ns_per_range\": {:.1}}}{}\n",
            nodes as f64 / MIX_RANGES as f64,
            batch / MIX_RANGES as f64,
            if i + 1 < MIX_SIDES.len() { "," } else { "" },
        );
    }
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"range\",\n  \"threads\": {threads},\n  \
         \"query\": \"centered d/2 x d/2, one-cell offset\",\n  \"sides\": [\n{rows}  ],\n  \
         \"mix\": \"selectivities 1/8, 1/4, 1/2 in turn, uniform placement, either orientation\",\n  \
         \"mix_sides\": [\n{mix_rows}  ]\n}}\n",
    );
    write_baseline("BENCH_range.json", &json);
}

criterion_group!(benches, bench_range);
criterion_main!(benches);
