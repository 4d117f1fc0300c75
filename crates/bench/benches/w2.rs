//! W₂ solver scaling: the exact LP against the grid-separable Sinkhorn
//! solver on full-support `d × d` histograms at `d ∈ {10, 20, 32, 64}` —
//! the measurement behind [`dam_transport::metrics::w2`]'s switch from
//! the LP to the grid solver. The exact LP runs up to
//! d = 20; the grid solver does O(d³) axis passes on O(d²) state at
//! every d. A second group measures the ε-scaling warm-start cap
//! (`SinkhornParams::warm_start_iters`) against the legacy
//! run-every-stage-to-convergence schedule.
//!
//! Emits `BENCH_w2.json` at the repo root: per-row median ns and W₂
//! values, the worst exact-vs-grid gap at d ≤ 32, and the warm-start
//! speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_geo::Point;
use dam_transport::cost::CostMatrix;
use dam_transport::exact::solve_exact;
use dam_transport::grid::{grid_sinkhorn_cost, SinkhornParams};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Grid sides of the sweep (`d = 64`, 4096-cell supports, is the
/// headline regime the grid solver exists for).
const DS: [usize; 4] = [10, 20, 32, 64];
/// Largest d still solved with the exact LP (the transportation simplex
/// on a 1024-atom support would dominate the whole bench).
const EXACT_MAX_D: usize = 20;
/// d for the grid warm-start ablation.
const GRID_WARM_D: usize = 64;

/// One shared Sinkhorn tuning for every entropic row (matches the eval
/// harness's large-grid settings in spirit: mid accuracy, bounded iters).
fn params() -> SinkhornParams {
    SinkhornParams { reg_rel: 2e-3, max_iters: 300, tol: 1e-6, ..SinkhornParams::default() }
}

/// A smooth non-uniform full-support histogram on a `d × d` grid: a
/// Gaussian bump at `(cx, cy)` (grid-relative) over a flat background.
fn bump_hist(d: usize, cx: f64, cy: f64) -> Vec<f64> {
    let s = d as f64;
    let mut v: Vec<f64> = (0..d * d)
        .map(|i| {
            let x = (i % d) as f64 / s;
            let y = (i / d) as f64 / s;
            (-(((x - cx).powi(2) + (y - cy).powi(2)) / 0.02)).exp() + 0.05
        })
        .collect();
    let total: f64 = v.iter().sum();
    for x in &mut v {
        *x /= total;
    }
    v
}

/// Cell-center support points (the `metrics` convention) for the exact
/// LP's explicit cost matrix.
fn grid_points(d: usize) -> Vec<Point> {
    (0..d * d).map(|i| Point::new((i % d) as f64 + 0.5, (i / d) as f64 + 0.5)).collect()
}

fn bench_w2_solvers(c: &mut Criterion) {
    // Squared transport cost per `group/solver/d` row, captured while
    // the benches run so the JSON can report solver agreement for free.
    let costs: RefCell<BTreeMap<String, f64>> = RefCell::new(BTreeMap::new());
    {
        let mut group = c.benchmark_group("w2_solvers");
        group.sample_size(11);
        for &d in &DS {
            let a = bump_hist(d, 0.3, 0.35);
            let b = bump_hist(d, 0.65, 0.6);
            if d <= EXACT_MAX_D {
                let pts = grid_points(d);
                let cost = CostMatrix::euclidean_pow(&pts, &pts, 2);
                group.bench_with_input(BenchmarkId::new("exact", d), &d, |be, _| {
                    be.iter(|| {
                        let v = solve_exact(&a, &b, &cost).unwrap().cost;
                        costs.borrow_mut().insert(format!("exact/{d}"), v);
                        black_box(v)
                    });
                });
            }
            group.bench_with_input(BenchmarkId::new("grid", d), &d, |be, _| {
                be.iter(|| {
                    let v = grid_sinkhorn_cost(&a, &b, d, params()).unwrap();
                    costs.borrow_mut().insert(format!("grid/{d}"), v);
                    black_box(v)
                });
            });
        }
        group.finish();
    }
    {
        // Warm-start ablation: the capped ε-scaling schedule (the
        // default) against running every intermediate stage to the full
        // `max_iters`/`tol` budget (the pre-fix behaviour).
        let mut group = c.benchmark_group("w2_warm_start");
        group.sample_size(11);
        let full = SinkhornParams { warm_start_iters: usize::MAX, ..params() };
        let d = GRID_WARM_D;
        let a = bump_hist(d, 0.3, 0.35);
        let b = bump_hist(d, 0.65, 0.6);
        group.bench_with_input(BenchmarkId::new("grid_fullwarm", d), &d, |be, _| {
            be.iter(|| {
                let v = grid_sinkhorn_cost(&a, &b, d, full).unwrap();
                costs.borrow_mut().insert(format!("grid_fullwarm/{d}"), v);
                black_box(v)
            });
        });
        group.finish();
    }
    emit_bench_json(c, &costs.borrow());
}

/// Writes `BENCH_w2.json` at the repo root: per-row medians and W₂
/// values, max solver disagreement at d ≤ 32, and the warm-start
/// speedup.
fn emit_bench_json(c: &Criterion, costs: &BTreeMap<String, f64>) {
    let ns = |group: &str, row: &str| -> Option<f64> {
        c.results().iter().find(|(name, _)| name == &format!("{group}/{row}")).map(|&(_, v)| v)
    };
    let w2 = |row: &str| costs.get(row).map(|sq| sq.max(0.0).sqrt());
    let fmt = |v: Option<f64>| v.map(|x| format!("{x:.4}")).unwrap_or_else(|| "null".into());

    let mut rows = Vec::new();
    for &d in &DS {
        for solver in ["exact", "grid"] {
            if let Some(t) = ns("w2_solvers", &format!("{solver}/{d}")) {
                rows.push(format!(
                    "    {{\"d\": {d}, \"solver\": \"{solver}\", \"median_ns\": {t:.1}, \
                     \"w2\": {}}}",
                    fmt(w2(&format!("{solver}/{d}")))
                ));
            }
        }
    }
    // Worst relative gap between the two solvers at d ≤ 32 (the entropic
    // bias the size-based switch accepts; the exact LP only has rows up
    // to `EXACT_MAX_D`).
    let mut max_gap = 0.0f64;
    for &d in DS.iter().filter(|&&d| d <= 32) {
        let vals: Vec<f64> =
            ["exact", "grid"].iter().filter_map(|s| w2(&format!("{s}/{d}"))).collect();
        for x in &vals {
            for y in &vals {
                max_gap = max_gap.max((x - y).abs() / y.max(1e-12));
            }
        }
    }
    let warm = |fast: Option<f64>, slow: Option<f64>| match (fast, slow) {
        (Some(f), Some(s)) if f > 0.0 => format!("{:.2}", s / f),
        _ => "null".into(),
    };
    let grid_warm = warm(
        ns("w2_solvers", &format!("grid/{GRID_WARM_D}")),
        ns("w2_warm_start", &format!("grid_fullwarm/{GRID_WARM_D}")),
    );
    // Derived from `params()` so the recorded tuning can't drift from
    // the tuning the rows were actually measured under.
    let p = params();
    let json = format!(
        "{{\n  \"bench\": \"w2_solvers\",\n  \
         \"params\": {{\"reg_rel\": {}, \"max_iters\": {}, \"tol\": {}, \
         \"warm_start_iters\": {}}},\n  \
         \"configs\": [\n{}\n  ],\n  \
         \"max_solver_rel_gap_d_le_32\": {max_gap:.4},\n  \
         \"warm_start_speedup\": {{\"grid_d{GRID_WARM_D}\": {grid_warm}}}\n}}\n",
        p.reg_rel,
        p.max_iters,
        p.tol,
        p.warm_start_iters,
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_w2.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_w2_solvers);
criterion_main!(benches);
