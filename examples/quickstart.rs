//! Quickstart: privately estimate a spatial distribution with the Disk
//! Area Mechanism.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a synthetic Gaussian point cloud, runs the full DAM pipeline
//! (client-side randomized reporting + analyst-side EM recovery) and
//! reports the Wasserstein error against both the true distribution and a
//! non-private baseline.

#![allow(clippy::expect_used, reason = "an example reports a failure by panicking")]

use spatial_ldp::core::{DamConfig, DamEstimator, SpatialEstimator};
use spatial_ldp::data::synthetic::normal_dataset;
use spatial_ldp::geo::rng::seeded;
use spatial_ldp::geo::{BoundingBox, Grid2D, Histogram2D};
use spatial_ldp::transport::metrics::w2;

fn main() {
    let mut rng = seeded(7);
    let eps = 2.0;
    let d = 8;

    // 1. The (sensitive) data: 100k points from a correlated Gaussian.
    let points = normal_dataset(100_000, &mut rng);
    let bbox = BoundingBox::of_points(&points).expect("points exist");
    let grid = Grid2D::new(bbox, d);
    println!("collected {} points over {:?}", points.len(), bbox);

    // 2. The true (non-private) distribution — for evaluation only.
    let truth = Histogram2D::from_points(grid.clone(), &points).normalized();

    // 3. Private estimation: every point is randomized on the "user" side
    //    under eps-LDP before the analyst ever sees it.
    let dam = DamEstimator::new(DamConfig::dam(eps));
    let estimate = dam.estimate(&points, &grid, &mut rng);

    // 4. How good is it? W2 in cell units (the paper's metric).
    let err = w2(&estimate, &truth).expect("w2");
    println!("DAM (eps = {eps}):  W2(estimate, truth) = {err:.4} cell units");

    // For scale: the uniform distribution's error on the same data.
    let uniform = Histogram2D::zeros(grid.clone()).normalized();
    let base = w2(&uniform, &truth).expect("w2");
    println!("uniform baseline:  W2(uniform,  truth) = {base:.4} cell units");
    println!(
        "DAM recovers {:.1}% of the distance a no-information estimate leaves",
        100.0 * (1.0 - err / base)
    );

    // 5. Peek at the two densities.
    println!("\ntruth (top) vs DAM estimate (bottom), row-major {d}x{d}:");
    for h in [&truth, &estimate] {
        for iy in (0..d).rev() {
            let row: Vec<String> = (0..d)
                .map(|ix| {
                    format!("{:>5.2}", 100.0 * h.get(spatial_ldp::geo::CellIndex::new(ix, iy)))
                })
                .collect();
            println!("  {}", row.join(" "));
        }
        println!();
    }
}
