//! W₂ solver scaling: the exact LP (the network simplex behind
//! [`dam_transport::metrics::w2`]) against the grid-separable Sinkhorn
//! solver (`w2_grid_sinkhorn`) on full-support `d × d` histograms at
//! `d ∈ {10, 20, 32, 64}`, the grid rows under `SinkhornParams::default()`.
//! The exact LP runs up to d = 32; the grid solver does O(d³) axis passes
//! on O(d²) state at every d.
//!
//! Emits `BENCH_w2.json` at the repo root: per-row median ns and W₂
//! values, and the worst exact-vs-grid gap at d ≤ 32.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_bench::{median, write_baseline};
use dam_transport::exact::solve_exact;
use dam_transport::grid::{grid_sinkhorn_cost, SinkhornParams};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Grid sides of the sweep (`d = 64`, 4096-cell supports, is the
/// headline regime the grid solver exists for).
const DS: [usize; 4] = [10, 20, 32, 64];
/// Largest d still solved with the exact LP (~1 s a solve at d = 32; a
/// 4096-atom support at d = 64 would dominate the whole bench).
const EXACT_MAX_D: usize = 32;

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

/// Squared distance between the cells at flat indices `i` and `j` of a
/// `d × d` grid, in cell units (the `metrics` convention).
fn cell_cost(d: usize) -> impl Fn(usize, usize) -> f64 + Copy {
    move |i, j| {
        let dx = (i % d) as f64 - (j % d) as f64;
        let dy = (i / d) as f64 - (j / d) as f64;
        dx * dx + dy * dy
    }
}

fn bench_w2_solvers(c: &mut Criterion) {
    // Squared transport cost per `group/solver/d` row, captured while
    // the benches run so the JSON can report solver agreement for free.
    let costs: RefCell<BTreeMap<String, f64>> = RefCell::new(BTreeMap::new());
    let mut group = c.benchmark_group("w2_solvers");
    group.sample_size(11);
    for &d in &DS {
        let a = bump_hist(d, 0.3, 0.35);
        let b = bump_hist(d, 0.65, 0.6);
        if d <= EXACT_MAX_D {
            let cost = cell_cost(d);
            group.bench_with_input(BenchmarkId::new("exact", d), &d, |be, _| {
                be.iter(|| {
                    let v = solve_exact(&a, &b, cost).unwrap().cost;
                    costs.borrow_mut().insert(format!("exact/{d}"), v);
                    black_box(v)
                });
            });
        }
        group.bench_with_input(BenchmarkId::new("grid", d), &d, |be, _| {
            be.iter(|| {
                let v = grid_sinkhorn_cost(&a, &b, d, SinkhornParams::default()).unwrap();
                costs.borrow_mut().insert(format!("grid/{d}"), v);
                black_box(v)
            });
        });
    }
    group.finish();
    emit_bench_json(c, &costs.borrow());
}

/// Writes `BENCH_w2.json` at the repo root: per-row medians and W₂
/// values, and the max solver disagreement at d ≤ 32.
fn emit_bench_json(c: &Criterion, costs: &BTreeMap<String, f64>) {
    let ns = |group: &str, row: &str| median(c.results(), &format!("{group}/{row}"));
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
    // bias a caller of `w2_grid_sinkhorn` accepts; the exact LP only has
    // rows up to `EXACT_MAX_D`).
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
    // Derived from the same `Default` so the recorded tuning can't drift
    // from the tuning the rows were actually measured under.
    let p = SinkhornParams::default();
    let json = format!(
        "{{\n  \"bench\": \"w2_solvers\",\n  \
         \"params\": {{\"reg_rel\": {}, \"max_iters\": {}, \"tol\": {}}},\n  \
         \"configs\": [\n{}\n  ],\n  \
         \"max_solver_rel_gap_d_le_32\": {max_gap:.4}\n}}\n",
        p.reg_rel,
        p.max_iters,
        p.tol,
        rows.join(",\n"),
    );
    write_baseline("BENCH_w2.json", &json);
}

criterion_group!(benches, bench_w2_solvers);
criterion_main!(benches);
