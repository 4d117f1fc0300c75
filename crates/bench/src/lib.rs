//! # dam-bench — benchmark support
//!
//! The benchmarks live in `benches/`, each regenerating one committed
//! `BENCH_*.json` baseline at the repository root:
//!
//! * `complexity` — the §VI-B complexity claims: O(1) reports after O(b̂²)
//!   setup, spectral EM post-processing cost (`BENCH_em.json`);
//! * `reports` — the sharded report pipeline (`BENCH_reports.json`);
//! * `w2` — exact LP vs grid-separable Sinkhorn W₂ (`BENCH_w2.json`);
//! * `range` — pyramid range answering (`BENCH_range.json`);
//! * `obs` — per-instrument cost of the metrics registry
//!   (`BENCH_obs.json`).
//!
//! The end-to-end epoch benchmark is `perfbench/`, and the `dam-eval`
//! `fig_*` binaries regenerate the paper's tables and figures.
//!
//! This library exposes the small fixtures the benches share.

use dam_geo::rng::derived;
use dam_geo::{BoundingBox, Grid2D, Point};
use rand::Rng;

/// A deterministic clustered point cloud for benchmarking pipelines.
pub fn bench_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = derived(seed, 0xBE7C);
    (0..n)
        .map(|_| {
            let cx = if rng.gen::<bool>() { 0.25 } else { 0.7 };
            Point::new(
                (cx + 0.1 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                (cx + 0.1 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

/// The unit grid used across benches.
pub fn bench_grid(d: u32) -> Grid2D {
    Grid2D::new(BoundingBox::unit(), d)
}
