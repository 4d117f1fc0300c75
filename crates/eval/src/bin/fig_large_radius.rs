//! Large-radius regime: DAM at a fine grid (d = 64, ε = 5) with explicit
//! disk radii b̂ ∈ {4, 8, 16, 32}. For every radius the full pipeline
//! (sharded reports + spectral EM PostProcess) runs end to end and is
//! scored against the truth.
//!
//! Expected shape: EM time stays ~flat in b̂ (the padded `2^a·3^b`
//! transform grows only with `d + 2b̂`), while the error grows with the
//! radius the budget is spread over.
//!
//! Error is reported as TV *and* as the grid-separable Sinkhorn cost per
//! row (`sinkhorn`, under `SinkhornParams::default()`): the paper
//! approximates W₂ with Sinkhorn in this regime, and an exact LP on two
//! 4096-cell supports would dwarf the EM runs. The entropic value is an
//! upper bound on W₂ that stays above 0 even for a perfect estimate, so
//! it is not headed `w2`; like everything else here it is bit-identical
//! for any `--threads` value.

use dam_core::{DamConfig, DamEstimator, SpatialEstimator};
use dam_data::DatasetKind;
use dam_eval::report::fmt4;
use dam_eval::{CliArgs, EvalContext, Report};
use dam_fo::em::EmParams;
use dam_geo::rng::derived;
use dam_geo::{Grid2D, Histogram2D};
use dam_transport::{w2_grid_sinkhorn, SinkhornParams};

const D: u32 = 64;
const EPS: f64 = 5.0;

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let radii: &[u32] = if args.fast { &[4, 16, 32] } else { &[4, 8, 16, 32] };
    let em = EmParams { max_iters: if args.fast { 40 } else { 150 }, rel_tol: 0.0, gain_tol: 0.0 };

    let ds = ctx.dataset(DatasetKind::Normal);
    let part = &ds.parts[0];
    let points = ctx.capped_points(part);
    let grid = Grid2D::new(part.bbox, D);
    let truth = Histogram2D::from_points(grid.clone(), points).normalized();

    let mut report = Report::new(
        &format!(
            "Large-radius DAM (Normal, d={D}, eps={EPS}, {} users, {} EM iters)",
            points.len(),
            em.max_iters
        ),
        &["b_hat", "secs", "tv_error", "sinkhorn", "sinkhorn_secs"],
    );
    for &b_hat in radii {
        let config =
            DamConfig { b_hat: Some(b_hat), em, ..DamConfig::dam(EPS) }.with_threads(ctx.threads);
        let mut rng = derived(ctx.seed, 0x1A56_E000 + u64::from(b_hat));
        let watch = dam_obs::Stopwatch::start(dam_eval::obs::wall());
        let est = DamEstimator::new(config).estimate(points, &grid, &mut rng);
        let secs = watch.elapsed_secs();
        let ot_watch = dam_obs::Stopwatch::start(dam_eval::obs::wall());
        let ot = w2_grid_sinkhorn(&est, &truth, SinkhornParams::default())
            .expect("Sinkhorn computation failed");
        let ot_secs = ot_watch.elapsed_secs();
        report.push_row(vec![
            b_hat.to_string(),
            format!("{secs:.3}"),
            fmt4(est.tv_distance(&truth)),
            fmt4(ot),
            format!("{ot_secs:.3}"),
        ]);
    }
    println!("{}", report.render());
    let path = report.write_csv(&args.out, "fig_large_radius").expect("write csv");
    println!("csv: {}", path.display());
}
