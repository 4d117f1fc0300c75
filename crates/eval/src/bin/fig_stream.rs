//! Continual observation: sliding-window estimation of a **moving**
//! spatial distribution (the regime the one-shot figures cannot touch).
//!
//! Two infection-style foci drift across the unit square over `--epochs`
//! epochs while users report privately each epoch; every SAM variant
//! maintains a [`dam_stream::StreamingEstimator`] whose window estimate
//! is read after every epoch. Per epoch and mechanism the table compares
//! the **warm-started** EM (the diffusion-forecast seed, stopped by
//! `EmParams::streaming` once a plain EM step gains less than 1.92 nats
//! of log-likelihood, reached by SQUAREM extrapolation in at most 50 map
//! evaluations) against a **cold** uniform
//! start under the one-shot 150-iteration protocol on the *same* window
//! counts: iterations, PostProcess seconds, and window TV/W₂ against the
//! true sliding-window histogram. The two runs stop at deliberately
//! *different* points of the likelihood — the ML optimum overfits the
//! privacy noise, so the evidence-stopped warm path is expected to match
//! or beat the cold protocol's accuracy (the full-window summary lines
//! are the check) while the iteration ratio is the headline saving. The
//! fewer reports a window holds, the earlier its gain drops under the
//! price, so low-data streams (`--users`) stop well before the ceiling.
//!
//! `--epochs`/`--window` override the stream shape; ingestion and
//! estimates are bit-identical for any `--threads` value.
//!
//! `--inject "seed=7,corrupt=0.01,drop=0.1,delay=0.05,flip=0.02,\
//! nonfinite=0.001"` turns the run into a chaos experiment: the
//! [`dam_fault::FaultPlan`] corrupts reports before ingest, drops or
//! delays whole epochs, and poisons retained count planes — all from
//! pure decision streams, so a chaos run is also bit-identical for any
//! `--threads` value. The truth histogram stays the *clean* window, so
//! the TV/W₂ columns read directly as degradation under faults, and a
//! per-mechanism [`dam_stream::PipelineHealth`] footer reports what the
//! pipeline quarantined, sanitized, and recovered from.

use dam_core::{DamConfig, SamVariant};
use dam_data::synthetic::standard_normal;
use dam_eval::report::fmt4;
use dam_eval::runner::label_stream;
use dam_eval::{CliArgs, EvalContext, Report};
use dam_fault::{EpochFate, FaultPlan};
use dam_fo::em::EmParams;
use dam_geo::rng::derived;
use dam_geo::{BoundingBox, Grid2D, Histogram2D, Point};
use dam_stream::{StreamConfig, StreamingEstimator};
use dam_transport::W2Solver;
use rand::Rng;

const D: u32 = 20;
const EPS: f64 = 3.5;
/// Fraction of each epoch's reports drawn from the uniform background.
const BACKGROUND: f64 = 0.1;
/// Focus drift per epoch as a fraction of the full trajectory — a fixed
/// *rate*, so `--epochs` changes how much of the path the stream covers,
/// not how fast the world moves (≈0.6 cells/epoch at d = 20).
const DRIFT_PER_EPOCH: f64 = 0.03;

/// One epoch of case locations: two foci sliding in opposite directions
/// across the square (progress `u ∈ [0, 1]` over the stream) plus a
/// uniform background.
fn epoch_points(n: usize, u: f64, rng: &mut impl Rng) -> Vec<Point> {
    let foci = [(0.15 + 0.70 * u, 0.25 + 0.30 * u), (0.85 - 0.70 * u, 0.75 - 0.30 * u)];
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < BACKGROUND {
                return Point::new(rng.gen(), rng.gen());
            }
            let (cx, cy) = foci[usize::from(rng.gen::<f64>() < 0.45)];
            Point::new(
                (cx + 0.05 * standard_normal(rng)).clamp(0.0, 1.0),
                (cy + 0.05 * standard_normal(rng)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

/// Feeds one epoch into one stream under a fault plan: merges any batch
/// delayed from the previous epoch, applies the epoch fate and report
/// corruption, and poisons the retained count plane through the tamper
/// hook. `carry` holds a delayed batch between calls.
fn ingest_faulty(
    stream: &mut StreamingEstimator,
    plan: &FaultPlan,
    epoch: usize,
    points: &[Point],
    carry: &mut Vec<Point>,
) {
    let mut batch = std::mem::take(carry);
    match plan.epoch_fate(epoch) {
        EpochFate::Deliver => batch.extend_from_slice(points),
        EpochFate::Delay => *carry = points.to_vec(),
        EpochFate::Drop => {}
    }
    plan.corrupt_points(epoch, &mut batch);
    if batch.is_empty() {
        stream.ingest_missed_epoch();
    } else {
        stream.ingest_epoch_with(&batch, |e, plane| {
            plan.poison_counts(e, plane);
            plan.inject_nonfinite(e, plane);
        });
    }
}

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let plan =
        args.inject.as_deref().map(|spec| FaultPlan::parse(spec).unwrap_or_else(|e| panic!("{e}")));
    let epochs = args.epochs.unwrap_or(if args.fast { 8 } else { 24 });
    let window = args.window.unwrap_or(if args.fast { 4 } else { 6 }).min(epochs);
    let total_users = args.users.unwrap_or(20_000 * epochs);
    let per_epoch = (total_users / epochs).max(1);
    // The cold / first-window protocol: the one-shot figures' fixed
    // 150-iteration budget. Warm windows stop on evidence under
    // `EmParams::streaming()` via `StreamConfig::new`.
    let em = EmParams { max_iters: 150, rel_tol: 1e-9, gain_tol: 0.0 };
    let grid = Grid2D::new(BoundingBox::unit(), D);
    // W₂ through the grid-separable solver by default: the figure solves
    // O(epochs × mechanisms) transport problems, where the exact LP's
    // wall clock would dwarf the streaming pipeline under measurement
    // (`--w2-solver` still overrides; `auto` restores the size dispatch).
    let w2_ctx = if args.w2_solver == W2Solver::Auto {
        let mut grid_ctx = ctx.clone();
        grid_ctx.w2_solver = W2Solver::Grid;
        grid_ctx
    } else {
        ctx.clone()
    };

    // Shared data stream: every mechanism sees identical epochs.
    let epoch_data: Vec<Vec<Point>> = (0..epochs)
        .map(|e| {
            let u = (e as f64 * DRIFT_PER_EPOCH).min(1.0);
            epoch_points(per_epoch, u, &mut derived(ctx.seed, 0x0F16_5700 + e as u64))
        })
        .collect();

    let variants = [
        (SamVariant::Dam, "DAM"),
        (SamVariant::DamNonShrunken, "DAM-NS"),
        (SamVariant::Huem, "HUEM"),
    ];
    let mut streams: Vec<StreamingEstimator> = variants
        .iter()
        .map(|&(variant, label)| {
            let dam = DamConfig { variant, em, backend: ctx.em_backend, ..DamConfig::dam(EPS) }
                .with_threads(ctx.threads);
            let stream = StreamingEstimator::new(
                grid.clone(),
                StreamConfig::new(dam, window, label_stream(ctx.seed, label)),
            );
            // Harness boundary: timing-plane instruments get real
            // nanoseconds (the deterministic plane is clock-free).
            stream.obs().set_clock(std::sync::Arc::new(dam_obs::WallClock::new()));
            stream
        })
        .collect();

    let mut report = Report::new(
        &format!(
            "Streaming moving-foci (d={D}, eps={EPS}, {per_epoch} users/epoch, \
             {epochs} epochs, window {window})"
        ),
        &[
            "epoch",
            "mech",
            "win_users",
            "it_warm",
            "it_cold",
            "it_ratio",
            "secs_warm",
            "secs_cold",
            "tv_warm",
            "tv_cold",
            "w2_warm",
            "w2_cold",
        ],
    );

    let mut ratio_acc = vec![(0.0f64, 0usize); variants.len()];
    // Per-stream buffer for a batch the fault plan delayed one epoch.
    let mut carries: Vec<Vec<Point>> = vec![Vec::new(); variants.len()];
    // Steady-state accumulators (epochs with a full window): mean TV and
    // W₂ per mechanism, warm vs cold — the "no worse than recomputing"
    // check at a glance.
    let mut steady = vec![[0.0f64; 4]; variants.len()];
    let mut steady_n = 0usize;
    for e in 0..epochs {
        let lo = (e + 1).saturating_sub(window);
        let window_points: Vec<Point> =
            epoch_data[lo..=e].iter().flat_map(|p| p.iter().copied()).collect();
        let truth = Histogram2D::from_points(grid.clone(), &window_points).normalized();
        for (m, stream) in streams.iter_mut().enumerate() {
            match &plan {
                Some(plan) => ingest_faulty(stream, plan, e, &epoch_data[e], &mut carries[m]),
                None => {
                    stream.ingest_epoch(&epoch_data[e]);
                }
            }
            // Cold first: it must not touch the warm state it is the
            // baseline for.
            let t0 = dam_obs::Stopwatch::start(dam_eval::obs::wall());
            let cold = stream.estimate_window_cold();
            let secs_cold = t0.elapsed_secs();
            let t1 = dam_obs::Stopwatch::start(dam_eval::obs::wall());
            let warm = stream.estimate_window();
            let secs_warm = t1.elapsed_secs();
            let ratio = warm.em_iters as f64 / cold.em_iters.max(1) as f64;
            if warm.warm {
                ratio_acc[m].0 += ratio;
                ratio_acc[m].1 += 1;
            }
            let w2_warm = w2_ctx.w2(&warm.histogram, &truth).expect("w2");
            let w2_cold = w2_ctx.w2(&cold.histogram, &truth).expect("w2");
            let tv_warm = warm.histogram.tv_distance(&truth);
            let tv_cold = cold.histogram.tv_distance(&truth);
            if e + 1 >= window {
                steady[m][0] += tv_warm;
                steady[m][1] += tv_cold;
                steady[m][2] += w2_warm;
                steady[m][3] += w2_cold;
                if m == 0 {
                    steady_n += 1;
                }
            }
            report.push_row(vec![
                e.to_string(),
                variants[m].1.to_string(),
                format!("{}", window_points.len()),
                warm.em_iters.to_string(),
                cold.em_iters.to_string(),
                format!("{ratio:.3}"),
                format!("{secs_warm:.3}"),
                format!("{secs_cold:.3}"),
                fmt4(tv_warm),
                fmt4(tv_cold),
                fmt4(w2_warm),
                fmt4(w2_cold),
            ]);
        }
    }
    println!("{}", report.render());
    for (m, &(sum, n)) in ratio_acc.iter().enumerate() {
        if n > 0 {
            println!(
                "{}: warm-started windows used {:.1}% of the cold-start EM iterations \
                 (mean over {n} windows)",
                variants[m].1,
                100.0 * sum / n as f64
            );
        }
    }
    if steady_n > 0 {
        let n = steady_n as f64;
        for (m, s) in steady.iter().enumerate() {
            println!(
                "{}: full-window means over {steady_n} epochs — tv {:.4} (warm) vs {:.4} \
                 (cold), w2 {:.4} (warm) vs {:.4} (cold)",
                variants[m].1,
                s[0] / n,
                s[1] / n,
                s[2] / n,
                s[3] / n
            );
        }
    }
    if let Some(plan) = &plan {
        println!("fault plan: {}", plan.spec());
        for (m, stream) in streams.iter().enumerate() {
            println!("{}", dam_eval::obs::health_footer(variants[m].1, &stream.health()));
        }
    }
    if let Some(path) = &args.metrics_out {
        let sections: Vec<(&str, &dam_obs::Registry)> =
            variants.iter().zip(&streams).map(|(&(_, label), s)| (label, s.obs())).collect();
        dam_eval::obs::write_metrics(path, &sections).expect("write metrics");
        println!("metrics: {}", path.display());
    }
    let path = report.write_csv(&args.out, "fig_stream").expect("write csv");
    println!("csv: {}", path.display());
}
