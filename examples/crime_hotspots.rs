//! Crime hotspot detection under local differential privacy.
//!
//! ```text
//! cargo run --release --example crime_hotspots
//! ```
//!
//! The motivating scenario of the paper's Example 1: a police analyst
//! wants the spatial distribution of shooting/crime events without
//! learning any individual location. We run DAM, DAM-NS and MDSW on the
//! Chicago-like dataset and compare (a) the W2 estimation error and
//! (b) hotspot precision@k — how many of the true top-k crime cells each
//! mechanism's estimate identifies.

#![allow(clippy::expect_used, reason = "an example reports a failure by panicking")]

use dam_obs::{Stopwatch, WallClock};
use spatial_ldp::baselines::Mdsw;
use spatial_ldp::core::{DamConfig, DamEstimator, SpatialEstimator};
use spatial_ldp::data::{load, DatasetKind};
use spatial_ldp::geo::rng::derived;
use spatial_ldp::geo::{Grid2D, Histogram2D};
use spatial_ldp::transport::metrics::w2;

/// Indices of the k largest cells.
fn top_k(h: &Histogram2D, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..h.values().len()).collect();
    idx.sort_by(|&a, &b| h.values()[b].total_cmp(&h.values()[a]));
    idx.truncate(k);
    idx
}

fn main() {
    let eps = 2.0;
    let d = 12;
    let k = 10;
    let crime = load(DatasetKind::Crime, 7);
    let clock = WallClock::new();

    println!("Chicago-like crime data, eps = {eps}, grid {d}x{d}, top-{k} hotspots\n");
    println!(
        "{:<10} {:>4} {:>10} {:>14} {:>12}",
        "mechanism", "part", "W2", "precision@10", "seconds"
    );

    let mechanisms: Vec<Box<dyn SpatialEstimator>> = vec![
        Box::new(DamEstimator::new(DamConfig::dam(eps))),
        Box::new(DamEstimator::new(DamConfig::dam_ns(eps))),
        Box::new(Mdsw::new(eps)),
    ];

    for mech in &mechanisms {
        for (pi, part) in crime.parts.iter().enumerate() {
            let grid = Grid2D::new(part.bbox, d);
            let truth = Histogram2D::from_points(grid.clone(), &part.points).normalized();
            let mut rng = derived(11, pi as u64);
            let start = Stopwatch::start(&clock);
            let est = mech.estimate(&part.points, &grid, &mut rng);
            let secs = start.elapsed_secs();
            let err = w2(&est, &truth).expect("w2");
            let true_hot = top_k(&truth, k);
            let est_hot = top_k(&est, k);
            let hits = est_hot.iter().filter(|c| true_hot.contains(c)).count();
            println!(
                "{:<10} {:>4} {:>10.4} {:>13.0}% {:>12.2}",
                mech.name(),
                part.name,
                err,
                100.0 * hits as f64 / k as f64,
                secs
            );
        }
    }

    println!(
        "\nInterpretation: DAM's disk reporting keeps mass near the true\n\
         streets, so both its W2 and its hotspot precision beat the\n\
         marginal-product MDSW; shrinkage (DAM vs DAM-NS) matters exactly\n\
         because crime mass concentrates on road segments."
    );
}
