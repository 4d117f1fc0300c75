//! Chaos tests: the full streaming pipeline driven through a
//! [`FaultPlan`], pinning the three properties the fault subsystem
//! promises — estimates stay finite and normalized under aggressive
//! mixed faults, injected runs are bit-identical for any thread count,
//! and low corruption rates degrade accuracy gracefully (window TV
//! within 2× of a clean run at 1% report corruption).

use dam_core::DamConfig;
use dam_fault::FaultPlan;
use dam_geo::rng::derived;
use dam_geo::{BoundingBox, Grid2D, Histogram2D, Point};
use dam_stream::{StreamConfig, StreamingEstimator, WindowEstimate};
use rand::Rng;

const D: u32 = 10;
const EPS: f64 = 2.0;
const PER_EPOCH: usize = 4_000;
const EPOCHS: usize = 6;
const WINDOW: usize = 3;
const SEED: u64 = 0xC4A0_5CAB;

/// A drifting focus plus uniform background — the same shape as the
/// `fig_stream` stream, sized down for a test.
fn epoch_data() -> Vec<Vec<Point>> {
    (0..EPOCHS)
        .map(|e| {
            let mut rng = derived(SEED, 0xC4A0_5000 + e as u64);
            let u = e as f64 / EPOCHS as f64;
            let (cx, cy) = (0.2 + 0.5 * u, 0.3 + 0.4 * u);
            (0..PER_EPOCH)
                .map(|_| {
                    if rng.gen::<f64>() < 0.15 {
                        return Point::new(rng.gen(), rng.gen());
                    }
                    Point::new(
                        (cx + 0.3 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                        (cy + 0.3 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                    )
                })
                .collect()
        })
        .collect()
}

/// Runs the streaming pipeline over [`epoch_data`] under `plan` through
/// the same [`FaultPlan::deliver`] and [`FaultPlan::tamper`] calls as
/// `fig_stream --inject`: delayed batches merge into the next delivery,
/// dropped epochs ingest as missed, corrupted points hit ingest
/// validation, and retained planes are poisoned through the tamper hook.
/// Returns the per-epoch warm window estimates.
fn run_chaos(plan: &FaultPlan, threads: Option<usize>) -> Vec<WindowEstimate> {
    let grid = Grid2D::new(BoundingBox::unit(), D);
    let dam = DamConfig::dam(EPS).with_threads(threads);
    let mut stream = StreamingEstimator::new(grid, StreamConfig::new(dam, WINDOW, SEED));
    let mut carry: Vec<Point> = Vec::new();
    let mut estimates = Vec::with_capacity(EPOCHS);
    for (e, pts) in epoch_data().iter().enumerate() {
        let batch = plan.deliver(e, pts, &mut carry);
        if batch.is_empty() {
            stream.ingest_missed_epoch();
        } else {
            stream.ingest_epoch_with(&batch, |epoch, plane| plan.tamper(epoch, plane));
        }
        estimates.push(stream.estimate_window());
    }
    estimates
}

#[test]
fn estimates_stay_finite_under_an_aggressive_mixed_plan() {
    let plan =
        FaultPlan::parse("seed=3,corrupt=0.2,drop=0.2,delay=0.2,flip=0.1,nonfinite=0.05").unwrap();
    let estimates = run_chaos(&plan, Some(2));
    for (e, est) in estimates.iter().enumerate() {
        let values = est.histogram.values();
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "epoch {e}: non-finite or negative mass in the estimate"
        );
        let sum: f64 = values.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "epoch {e}: estimate sums to {sum}");
    }
    // The faults actually landed and were recorded, not silently eaten.
    let health = estimates.last().unwrap().health;
    assert!(health.ingest.quarantined > 0, "NaN/∞ reports must be quarantined");
    assert!(health.ingest.clamped > 0, "out-of-domain reports must be clamped");
    assert!(health.sanitized_cells > 0, "non-finite plane cells must be sanitized");
    assert!(!health.is_clean());
}

#[test]
fn chaos_runs_are_bit_identical_across_thread_counts() {
    let plan =
        FaultPlan::parse("seed=11,corrupt=0.05,drop=0.15,delay=0.1,flip=0.05,nonfinite=0.01")
            .unwrap();
    let one = run_chaos(&plan, Some(1));
    let four = run_chaos(&plan, Some(4));
    assert_eq!(one.len(), four.len());
    for (e, (a, b)) in one.iter().zip(&four).enumerate() {
        let bits_match = a
            .histogram
            .values()
            .iter()
            .zip(b.histogram.values())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(bits_match, "epoch {e}: estimates differ between 1 and 4 threads");
        assert_eq!(a.em_iters, b.em_iters, "epoch {e}: iteration counts differ");
        assert_eq!(
            a.health.summary(),
            b.health.summary(),
            "epoch {e}: health diverges across thread counts"
        );
    }
}

#[test]
fn low_corruption_keeps_the_window_tv_within_twice_clean() {
    let clean = run_chaos(&FaultPlan::clean(9), Some(2));
    let faulty = run_chaos(&FaultPlan::parse("seed=9,corrupt=0.01").unwrap(), Some(2));
    let data = epoch_data();
    let grid = Grid2D::new(BoundingBox::unit(), D);
    let (mut tv_clean, mut tv_faulty, mut n) = (0.0, 0.0, 0);
    for e in (WINDOW - 1)..EPOCHS {
        let window_points: Vec<Point> =
            data[e + 1 - WINDOW..=e].iter().flat_map(|p| p.iter().copied()).collect();
        let truth = Histogram2D::from_points(grid.clone(), &window_points).normalized();
        tv_clean += clean[e].histogram.tv_distance(&truth);
        tv_faulty += faulty[e].histogram.tv_distance(&truth);
        n += 1;
    }
    let (tv_clean, tv_faulty) = (tv_clean / n as f64, tv_faulty / n as f64);
    assert!(tv_clean > 0.0, "clean runs still carry privacy noise");
    assert!(
        tv_faulty <= 2.0 * tv_clean,
        "1% corruption must degrade gracefully: faulty tv {tv_faulty} vs clean tv {tv_clean}"
    );
}
