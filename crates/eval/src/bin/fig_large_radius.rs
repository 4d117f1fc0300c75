//! Large-radius regime: DAM at a fine grid (d = 64, ε = 5) with explicit
//! disk radii b̂ ∈ {4, 8, 16, 32} — the regime the spectral EM backend
//! exists for. For every radius the full pipeline (sharded reports + EM
//! PostProcess) runs once per requested backend on **identical noisy
//! reports**, so the table isolates the backend choice: the estimates
//! agree to FFT roundoff (column `tv_vs_auto`), while the EM wall time
//! shows the stencil↔FFT crossover end to end. `auto` additionally
//! reports which operator the cost model resolved to.
//!
//! Expected shape: `conv` time grows ~b̂², `fft` time stays ~flat in b̂
//! (the padded transform only doubles when `d + 2b̂` crosses a power of
//! two), and `auto` tracks the faster of the two at every radius.
//!
//! Error is reported as TV *and* W₂ per backend row: at d = 64 the
//! full-support histograms route `W2Solver::Auto` to the
//! grid-separable Sinkhorn solver (`--w2-solver` overrides), so the
//! paper's headline metric is finally feasible in this regime — and
//! bit-identical for any `--threads` value, like everything else here.

use dam_core::{DamConfig, DamEstimator, EmBackend, SpatialEstimator};
use dam_data::DatasetKind;
use dam_eval::report::fmt4;
use dam_eval::{CliArgs, EvalContext, Report};
use dam_fo::em::EmParams;
use dam_geo::rng::derived;
use dam_geo::{Grid2D, Histogram2D};

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
        &["b_hat", "backend", "resolved", "secs", "tv_error", "tv_vs_auto", "w2", "w2_secs"],
    );
    for &b_hat in radii {
        // The stencil at b̂ ≥ 16 is exactly the regime the FFT replaces;
        // keep the smoke fast by skipping what would dominate its wall
        // clock (the explicit `fft`/`auto` rows still cover the regime).
        let backends: &[EmBackend] = if args.fast && b_hat >= 16 {
            &[EmBackend::Auto, EmBackend::Fft]
        } else {
            &[EmBackend::Auto, EmBackend::Convolution, EmBackend::Fft]
        };
        let mut auto_est: Option<Histogram2D> = None;
        for &backend in backends {
            let config = DamConfig { b_hat: Some(b_hat), em, backend, ..DamConfig::dam(EPS) }
                .with_threads(ctx.threads);
            // Same stream per radius: every backend sees identical
            // reports, so rows differ only in the EM operator.
            let mut rng = derived(ctx.seed, 0x1A56_E000 + u64::from(b_hat));
            let watch = dam_obs::Stopwatch::start(dam_eval::obs::wall());
            let est = DamEstimator::new(config).estimate(points, &grid, &mut rng);
            let secs = watch.elapsed_secs();
            let tv = est.tv_distance(&truth);
            let tv_vs_auto = auto_est
                .as_ref()
                .map(|a| fmt4(est.tv_distance(a)))
                .unwrap_or_else(|| "-".to_string());
            let w2_watch = dam_obs::Stopwatch::start(dam_eval::obs::wall());
            let w = ctx.w2(&est, &truth).expect("W2 computation failed");
            let w2_secs = w2_watch.elapsed_secs();
            if backend == EmBackend::Auto {
                auto_est = Some(est);
            }
            report.push_row(vec![
                b_hat.to_string(),
                backend.label().to_string(),
                backend.resolve(D, b_hat).label().to_string(),
                format!("{secs:.3}"),
                fmt4(tv),
                tv_vs_auto,
                fmt4(w),
                format!("{w2_secs:.3}"),
            ]);
        }
    }
    println!("{}", report.render());
    let path = report.write_csv(&args.out, "fig_large_radius").expect("write csv");
    println!("csv: {}", path.display());
}
