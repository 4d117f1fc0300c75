//! Private epidemic monitoring: estimating a multi-focal outbreak.
//!
//! ```text
//! cargo run --release --example epidemic_tracking
//! ```
//!
//! The paper's second motivating workload: "a COVID-19 affected area is
//! more likely to lead to outbreaks in surrounding areas than in distant
//! ones" — the ordinal structure DAM preserves and categorical oracles
//! destroy. We simulate three infection foci (the MNormal mixture),
//! collect case locations under LDP at several privacy budgets and watch
//! each mechanism's ability to localise the foci.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "an example reports a failure by panicking"
)]

use rand::Rng;
use spatial_ldp::baselines::{CfoEstimator, CfoFlavor};
use spatial_ldp::core::{DamConfig, DamEstimator, SpatialEstimator};
use spatial_ldp::data::synthetic::{mnormal_dataset, standard_normal};
use spatial_ldp::geo::rng::{derived, seeded};
use spatial_ldp::geo::{BoundingBox, Grid2D, Histogram2D, Point};
use spatial_ldp::stream::{StreamConfig, StreamingEstimator};
use spatial_ldp::transport::metrics::w2;
use spatial_ldp::transport::SinkhornParams;

fn main() {
    let mut data_rng = seeded(21);
    let cases = mnormal_dataset(150_000, &mut data_rng);
    let bbox = BoundingBox::of_points(&cases).expect("points exist");
    let d = 10;
    let grid = Grid2D::new(bbox, d);
    let truth = Histogram2D::from_points(grid.clone(), &cases).normalized();

    println!("{} simulated case locations, three outbreak foci, grid {d}x{d}\n", cases.len());
    println!("{:<8} {:>10} {:>10} {:>10}", "eps", "DAM", "CFO-GRR", "DAM gain");

    for (i, &eps) in [0.7, 1.4, 2.8, 5.0].iter().enumerate() {
        let mut rng_a = derived(33, i as u64);
        let mut rng_b = derived(34, i as u64);
        let dam = DamEstimator::new(DamConfig::dam(eps)).estimate(&cases, &grid, &mut rng_a);
        let cfo = CfoEstimator::new(eps, CfoFlavor::Grr).estimate(&cases, &grid, &mut rng_b);
        let w_dam = w2(&dam, &truth, SinkhornParams::default()).expect("w2");
        let w_cfo = w2(&cfo, &truth, SinkhornParams::default()).expect("w2");
        println!(
            "{:<8} {:>10.4} {:>10.4} {:>9.1}%",
            eps,
            w_dam,
            w_cfo,
            100.0 * (1.0 - w_dam / w_cfo)
        );
    }

    println!(
        "\nThe categorical oracle treats neighbouring districts as unrelated\n\
         symbols, so its errors scatter across the map; DAM's noise lands\n\
         *near* the true focus, which is what the Wasserstein metric (and\n\
         an epidemiologist) cares about."
    );

    moving_outbreak();
}

/// The time-evolving variant: an outbreak focus travels across the city
/// while case reports arrive in daily epochs. A [`StreamingEstimator`]
/// keeps a 5-day sliding-window estimate alive the whole time — each
/// day's update warm-starts from yesterday's estimate, so the per-day
/// PostProcess budget is a third of a from-scratch fit.
fn moving_outbreak() {
    let d = 12u32;
    let window = 5usize;
    let days = 14usize;
    let cases_per_day = 12_000usize;
    let grid = Grid2D::new(BoundingBox::unit(), d);
    let mut tracker =
        StreamingEstimator::new(grid.clone(), StreamConfig::new(DamConfig::dam(2.8), window, 35));

    println!("\n== Moving outbreak: {days} daily epochs, {window}-day sliding window ==");
    println!(
        "{:<6} {:>12} {:>12} {:>10} {:>9}",
        "day", "true focus", "est. peak", "window TV", "EM iters"
    );

    let mut day_cases: Vec<Vec<Point>> = Vec::new();
    for day in 0..days {
        // The focus advances a little every day; reports are noisy
        // case locations around it plus scattered background.
        let u = day as f64 / (days - 1) as f64;
        let focus = Point::new(0.2 + 0.6 * u, 0.7 - 0.4 * u);
        let mut rng = derived(36, day as u64);
        let cases: Vec<Point> = (0..cases_per_day)
            .map(|_| {
                if rng.gen::<f64>() < 0.15 {
                    Point::new(rng.gen(), rng.gen())
                } else {
                    Point::new(
                        (focus.x + 0.06 * standard_normal(&mut rng)).clamp(0.0, 1.0),
                        (focus.y + 0.06 * standard_normal(&mut rng)).clamp(0.0, 1.0),
                    )
                }
            })
            .collect();
        tracker.ingest_epoch(&cases);
        day_cases.push(cases);

        let est = tracker.estimate_window();
        let lo = (day + 1).saturating_sub(window);
        let window_points: Vec<Point> =
            day_cases[lo..=day].iter().flat_map(|c| c.iter().copied()).collect();
        let truth = Histogram2D::from_points(grid.clone(), &window_points).normalized();
        // The estimated hotspot: the cell with the most mass.
        let peak = grid
            .cells()
            .max_by(|&a, &b| est.histogram.get(a).partial_cmp(&est.histogram.get(b)).unwrap())
            .unwrap();
        let focus_cell = grid.cell_of(focus);
        println!(
            "{:<6} {:>12} {:>12} {:>10.4} {:>9}",
            day,
            format!("({},{})", focus_cell.ix, focus_cell.iy),
            format!("({},{})", peak.ix, peak.iy),
            est.histogram.tv_distance(&truth),
            est.em_iters,
        );
    }
    println!(
        "\nThe estimated hotspot follows the true focus one day's drift\n\
         behind at most, while warm-started EM stops each later day on\n\
         evidence within a few dozen iterations (first day runs cold)."
    );
}
