//! Range-query extension experiment (the paper's §II closing claim that
//! DAM "can combine with the methods of HIO, HDG and AHEAD to further
//! improve the accuracy in private range query").
//!
//! Compares ε-LDP range-query engines on the Crime dataset across query
//! selectivities: (1) DAM estimate read through a [`dam_core::Pyramid`]
//! built over it, (2) the hierarchical HIO-style oracle with
//! constrained inference, (3) the same oracle's raw independent levels
//! (the pre-consistency ablation), (4) CFO estimate + cell summation.
//! Metric: mean absolute error of the range fraction over 200 random
//! queries per selectivity.

use dam_baselines::{CfoEstimator, CfoFlavor};
use dam_core::{DamConfig, DamEstimator, Pyramid, SpatialEstimator};
use dam_data::DatasetKind;
use dam_eval::{CliArgs, EvalContext, Report};
use dam_geo::rng::derived;
use dam_geo::Grid2D;
use dam_range::{answer_from_histogram, random_queries, HierarchicalOracle};

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let eps = 2.0;
    let d = 16; // power of two so HIO's quadtree bottoms out at cells
    let ds = ctx.dataset(DatasetKind::Crime);
    let part = &ds.parts[1];
    let points = ctx.capped_points(part);
    let grid = Grid2D::new(part.bbox, d);
    eprintln!("{} points, grid {d}x{d}, eps = {eps}", points.len());

    // Fit each engine once.
    let mut rng = derived(ctx.seed, 0x7A4E);
    let dam_est = DamEstimator::new(DamConfig::dam(eps)).estimate(points, &grid, &mut rng);
    let dam_pyr = Pyramid::from_plane(dam_est.values(), d);
    let cfo_est = CfoEstimator::new(eps, CfoFlavor::Oue).estimate(points, &grid, &mut rng);
    let hio = HierarchicalOracle::fit(points, &grid, eps, &mut rng);

    let mut report = Report::new(
        "Range queries: mean |error| of range fraction (Crime part B, eps=2, d=16)",
        &["selectivity", "queries", "DAM+pyr", "HIO", "HIO-raw", "CFO+sum"],
    );
    for sel in [0.125, 0.25, 0.5, 0.75] {
        let queries = random_queries(d, 200, sel, &mut rng);
        let (mut e_dam, mut e_hio, mut e_raw, mut e_cfo) = (0.0, 0.0, 0.0, 0.0);
        for q in &queries {
            let truth = q.true_answer(&grid, points);
            e_dam += (dam_pyr.range_sum(q.x0, q.y0, q.x1, q.y1) - truth).abs();
            e_hio += (hio.answer(q) - truth).abs();
            e_raw += (hio.answer_independent(q) - truth).abs();
            e_cfo += (answer_from_histogram(&cfo_est, q) - truth).abs();
        }
        let n = queries.len() as f64;
        report.push_row(vec![
            format!("{sel}"),
            queries.len().to_string(),
            format!("{:.5}", e_dam / n),
            format!("{:.5}", e_hio / n),
            format!("{:.5}", e_raw / n),
            format!("{:.5}", e_cfo / n),
        ]);
    }
    println!("{}", report.render());
    let path = report.write_csv(&args.out, "range_queries").expect("write csv");
    println!("csv: {}", path.display());
}
