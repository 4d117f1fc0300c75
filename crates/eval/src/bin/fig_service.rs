//! Serve-while-ingesting evaluation: a [`dam_stream::QueryService`]
//! fields a per-epoch range-query workload over the moving two-foci
//! stream while epochs ingest, and the hierarchical oracle's
//! **constrained** (consistent pyramid) answers are compared against its
//! own **independent** raw levels at identical total ε — the same fit,
//! the same OUE randomness, the only difference being Hay-style
//! constrained inference. On this skewed (clustered) data consistency
//! must win on mean relative range error; the `consistency gain`
//! summary lines are the acceptance check.
//!
//! Per epoch the table reports, at each query selectivity: the
//! service's DAM-pyramid answers (`svc` — read from the atomically
//! published snapshot, node-cover walk), the constrained oracle (`hio`),
//! and the independent-levels ablation (`hio_raw`), each as mean
//! relative error against the true sliding-window range fractions
//! (floored at 1e-3 to keep tiny truths from dominating). `epoch_q`
//! counts the queries answered. Everything — stream, fits, workload — is
//! deterministic in `--seed` and bit-identical for any `--threads`.

use dam_core::{DamConfig, SamVariant};
use dam_data::synthetic::drifting_foci;
use dam_eval::report::fmt4;
use dam_eval::runner::label_stream;
use dam_eval::{CliArgs, EvalContext, Report};
use dam_geo::rng::derived;
use dam_geo::{BoundingBox, Grid2D, Point};
use dam_range::{random_queries, HierarchicalOracle};
use dam_stream::{QueryService, StreamConfig};

const D: u32 = 32;
const EPS: f64 = 3.5;
const SELECTIVITIES: [f64; 3] = [0.125, 0.25, 0.5];
const QUERIES_PER_SEL: usize = 60;
/// Relative-error floor: a range whose truth is below this contributes
/// |err|/floor instead of exploding the mean.
const TRUTH_FLOOR: f64 = 1e-3;

fn main() {
    let args = CliArgs::parse();
    let ctx = EvalContext::from_args(&args);
    let epochs = args.epochs.unwrap_or(if args.fast { 6 } else { 16 });
    let window = args.window.unwrap_or(if args.fast { 3 } else { 5 }).min(epochs);
    let total_users = args.users.unwrap_or(30_000 * epochs);
    let per_epoch = (total_users / epochs).max(1);
    let grid = Grid2D::new(BoundingBox::unit(), D);

    let epoch_data: Vec<Vec<Point>> = (0..epochs)
        .map(|e| drifting_foci(per_epoch, e, &mut derived(ctx.seed, 0x0F5E_4C00 + e as u64)))
        .collect();

    let dam =
        DamConfig { variant: SamVariant::Dam, ..DamConfig::dam(EPS) }.with_threads(ctx.threads);
    let service = QueryService::new(
        grid.clone(),
        StreamConfig::new(dam, window, label_stream(ctx.seed, "SVC")),
    );
    // Harness boundary: query/publish latency histograms get real
    // nanoseconds (the deterministic plane is clock-free).
    service.obs().set_clock(std::sync::Arc::new(dam_obs::WallClock::new()));

    let mut report = Report::new(
        &format!(
            "Query service + hierarchy consistency (d={D}, eps={EPS}, {per_epoch} users/epoch, \
             {epochs} epochs, window {window})"
        ),
        &["epoch", "sel", "epoch_q", "relerr_svc", "relerr_hio", "relerr_hio_raw"],
    );

    // Across-epoch accumulators for the summary lines.
    let mut sums = [0.0f64; 3];
    let mut n_queries = 0usize;
    for e in 0..epochs {
        service.ingest_epoch(&epoch_data[e]);
        let snap = service.snapshot();
        assert_eq!(snap.epoch, e + 1, "service must publish every epoch");

        // The true sliding window and one oracle fit on it (the oracle
        // is a *whole-window* protocol: same users as the service's
        // window, same total ε — both paths below read this one fit).
        let lo = (e + 1).saturating_sub(window);
        let window_points: Vec<Point> =
            epoch_data[lo..=e].iter().flat_map(|p| p.iter().copied()).collect();
        let mut fit_rng = derived(ctx.seed, 0x410F_1700 + e as u64);
        let oracle = HierarchicalOracle::fit(&window_points, &grid, EPS, &mut fit_rng);

        for sel in SELECTIVITIES {
            let queries = random_queries(
                D,
                QUERIES_PER_SEL,
                sel,
                &mut derived(ctx.seed, 0x9E_0000 + e as u64),
            );
            let mut err = [0.0f64; 3];
            for q in &queries {
                let truth = q.true_answer(&grid, &window_points);
                let floor = truth.max(TRUTH_FLOOR);
                let svc = snap.pyramid.range_sum(q.x0, q.y0, q.x1, q.y1);
                err[0] += (svc - truth).abs() / floor;
                err[1] += (oracle.answer(q) - truth).abs() / floor;
                err[2] += (oracle.answer_independent(q) - truth).abs() / floor;
            }
            let n = queries.len() as f64;
            for (acc, e) in sums.iter_mut().zip(err) {
                *acc += e;
            }
            n_queries += queries.len();
            report.push_row(vec![
                e.to_string(),
                format!("{sel}"),
                queries.len().to_string(),
                fmt4(err[0] / n),
                fmt4(err[1] / n),
                fmt4(err[2] / n),
            ]);
        }
    }
    println!("{}", report.render());
    let n = n_queries as f64;
    let (svc, hio, raw) = (sums[0] / n, sums[1] / n, sums[2] / n);
    println!(
        "mean relative range error over {n_queries} queries: svc {} | hio {} | hio_raw {}",
        fmt4(svc),
        fmt4(hio),
        fmt4(raw)
    );
    println!(
        "consistency gain: constrained inference cuts the independent-levels \
         error by {:.1}% at equal total eps",
        100.0 * (1.0 - hio / raw)
    );
    assert!(hio < raw, "constrained hierarchy ({hio:.4}) must beat independent levels ({raw:.4})");
    println!("{}", dam_eval::obs::health_footer("service", &service.health()));
    if let Some(path) = &args.metrics_out {
        // Snapshot age is computed at scrape time, so refresh it just
        // before the registry is exported.
        service.snapshot_age_ns();
        dam_eval::obs::write_metrics(path, &[("service", service.obs())]).expect("write metrics");
        println!("metrics: {}", path.display());
    }
    let path = report.write_csv(&args.out, "fig_service").expect("write csv");
    println!("csv: {}", path.display());
}
