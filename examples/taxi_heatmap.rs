//! Private traffic-density heatmaps from taxi pickups.
//!
//! ```text
//! cargo run --release --example taxi_heatmap
//! ```
//!
//! The paper's introduction motivates DAM with ride-hailing traffic
//! analysis: collect vehicle locations privately, recover the density,
//! route drivers around congestion. This example runs the FO = ⟨T, E⟩
//! protocol explicitly — a fleet of "driver" clients each reporting one
//! noisy cell, and one analyst aggregating — and renders before/after
//! heatmaps.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "an example reports a failure by panicking"
)]

use spatial_ldp::core::{DamAggregator, DamClient, DamConfig};
use spatial_ldp::data::{load, DatasetKind};
use spatial_ldp::fo::em::EmParams;
use spatial_ldp::geo::rng::{derived, seeded};
use spatial_ldp::geo::{CellIndex, Grid2D, Histogram2D};
use spatial_ldp::transport::metrics::w2;
use spatial_ldp::transport::SinkhornParams;

const SHADES: [char; 7] = [' ', '.', ':', '-', '=', '%', '@'];

fn heat(h: &Histogram2D) {
    let d = h.grid().d();
    let max = h.values().iter().cloned().fold(0.0f64, f64::max);
    for iy in (0..d).rev() {
        let mut line = String::from("  ");
        for ix in 0..d {
            let v = h.get(CellIndex::new(ix, iy));
            let t = if max > 0.0 { v / max } else { 0.0 };
            line.push(SHADES[((t * (SHADES.len() - 1) as f64).round() as usize).min(6)]);
            line.push(SHADES[((t * (SHADES.len() - 1) as f64).round() as usize).min(6)]);
        }
        println!("{line}");
    }
}

fn main() {
    let eps = 2.5;
    let d = 20;
    let nyc = load(DatasetKind::Nyc, 3);
    let part = &nyc.parts[1]; // Part B: the busiest region (42,195 pickups)
    let grid = Grid2D::new(part.bbox, d);

    // Analyst-side setup is public knowledge; each driver builds the same
    // client and reports exactly one noisy cell.
    let config = DamConfig::dam(eps);
    let client = DamClient::new(grid.clone(), &config);
    let mut aggregator = DamAggregator::new(&client);
    println!(
        "NYC-like pickups, part {}: {} drivers report under eps = {eps}",
        part.name,
        part.points.len()
    );
    println!(
        "grid {d}x{d}, disk radius b̂ = {} cells, p̂/q̂ = e^eps = {:.2}",
        client.kernel().b_hat(),
        (client.kernel().p_hat() / client.kernel().q_hat())
    );

    for (i, &pickup) in part.points.iter().enumerate() {
        let mut driver_rng = derived(500, i as u64); // each driver randomizes locally
        let noisy_cell = client.report(pickup, &mut driver_rng);
        aggregator.ingest(noisy_cell);
    }

    let estimate = aggregator.estimate(EmParams::default(), None);
    let truth = Histogram2D::from_points(grid.clone(), &part.points).normalized();
    let err = w2(&estimate, &truth, SinkhornParams::default()).expect("w2");

    println!("\ntrue pickup density:");
    heat(&truth);
    println!("\nprivately recovered density (W2 = {err:.3} cell units):");
    heat(&estimate);

    // A congestion query the platform might run on the private estimate.
    let busiest = (0..grid.n_cells())
        .max_by(|&a, &b| estimate.values()[a].total_cmp(&estimate.values()[b]))
        .unwrap();
    let cell = grid.unflat(busiest);
    let center = grid.cell_center(cell);
    println!(
        "\nbusiest estimated cell: ({}, {}) centered at ({:.4}, {:.4}) — true rank {}",
        cell.ix,
        cell.iy,
        center.x,
        center.y,
        1 + truth.values().iter().filter(|&&v| v > truth.values()[busiest]).count()
    );
    let _ = seeded(0); // keep the rng helpers exercised in docs builds
}
