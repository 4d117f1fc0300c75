//! Degenerate-input robustness: PostProcess must return a finite,
//! normalized estimate — never panic — on the pathological inputs a
//! faulty or empty stream can produce, and every backend (dense, stencil,
//! spectral, auto) must handle them the same way.
//!
//! The three shapes pinned here: an **empty report set** (no observations
//! at all), **all mass in one cell** (a spike the deconvolution has to
//! spread), and a **zero-count window** reached through the user-facing
//! aggregator rather than the raw EM entry point. A **hostile channel**
//! pins the divergence guard of the accelerated (evidence-stopped) EM
//! loop on every backend's operator.

use dam_core::em2d::smooth_2d;
use dam_core::{DamAggregator, DamClient, DamConfig, EmBackend, EmOperator, PostProcess};
use dam_fo::em::{expectation_maximization, ChannelOp, EmParams, EmWorkspace};
use dam_geo::{BoundingBox, CellIndex, Grid2D, Point};
use std::cell::Cell;

const D: u32 = 12;
const BACKENDS: [EmBackend; 4] =
    [EmBackend::Auto, EmBackend::Convolution, EmBackend::Dense, EmBackend::Fft];

fn client() -> DamClient {
    DamClient::new(Grid2D::new(BoundingBox::unit(), D), &DamConfig::dam(2.0))
}

fn assert_valid_distribution(values: &[f64], label: &str) {
    assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0), "{label}: invalid mass");
    let sum: f64 = values.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "{label}: sums to {sum}");
}

#[test]
fn empty_report_set_yields_uniform_on_every_backend() {
    let client = client();
    let counts = vec![0.0; client.kernel().n_out()];
    let uniform = 1.0 / (D * D) as f64;
    for backend in BACKENDS {
        for post in [PostProcess::Em, PostProcess::Ems] {
            let hist = EmOperator::new(client.kernel(), backend)
                .post_process(
                    &counts,
                    client.grid(),
                    post,
                    EmParams::default(),
                    None,
                    &mut EmWorkspace::new(),
                )
                .histogram;
            let label = format!("{backend:?}/{post:?}");
            assert_valid_distribution(hist.values(), &label);
            assert!(
                hist.values().iter().all(|v| (v - uniform).abs() < 1e-12),
                "{label}: empty input must fall back to uniform"
            );
        }
    }
}

#[test]
fn zero_count_window_through_the_aggregator_does_not_panic() {
    let client = client();
    let agg = DamAggregator::new(&client);
    for backend in BACKENDS {
        let hist = agg.estimate(PostProcess::Em, EmParams::default(), backend);
        assert_valid_distribution(hist.values(), &format!("aggregator/{backend:?}"));
    }
}

#[test]
fn all_mass_in_one_cell_agrees_across_backends() {
    let client = client();
    let mut agg = DamAggregator::new(&client);
    let center = client.kernel().out_d() / 2;
    for _ in 0..50_000 {
        agg.ingest(CellIndex::new(center, center));
    }
    let em = EmParams::default();
    let reference = agg.estimate(PostProcess::Em, em, EmBackend::Dense);
    assert_valid_distribution(reference.values(), "Dense");
    // The spike must actually concentrate mass (the wide ε = 2 disk
    // spreads it, but the estimate must not be the uniform fallback).
    let peak = reference.values().iter().cloned().fold(0.0f64, f64::max);
    assert!(peak > 1.5 / (D * D) as f64, "spike washed out: peak {peak}");
    // Stencil walks the dense operator's arithmetic up to re-association;
    // the spectral path rounds through an FFT/iFFT pair per iteration, so
    // it gets the looser certified bound (cf. `conv_equivalence.rs`).
    for (backend, tol) in
        [(EmBackend::Auto, 1e-6), (EmBackend::Convolution, 1e-9), (EmBackend::Fft, 1e-6)]
    {
        let hist = agg.estimate(PostProcess::Em, em, backend);
        assert_valid_distribution(hist.values(), &format!("{backend:?}"));
        let max_diff = hist
            .values()
            .iter()
            .zip(reference.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff <= tol, "{backend:?} drifts from dense by {max_diff}");
    }
}

/// A backend's operator whose M-step turns one cell NaN on its 2nd and
/// 5th calls: the first trips the first cycle's second map; after the
/// reseed, the second trips the next cycle's stabilizing map.
struct Hostile {
    inner: Box<dyn ChannelOp>,
    calls: Cell<usize>,
}

impl ChannelOp for Hostile {
    fn n_in(&self) -> usize {
        self.inner.n_in()
    }
    fn n_out(&self) -> usize {
        self.inner.n_out()
    }
    fn apply(&self, f: &[f64], out: &mut [f64], ws: &mut EmWorkspace) {
        self.inner.apply(f, out, ws);
    }
    fn accumulate_adjoint(&self, w: &[f64], f: &[f64], f_new: &mut [f64], ws: &mut EmWorkspace) {
        self.inner.accumulate_adjoint(w, f, f_new, ws);
        let k = self.calls.get() + 1;
        self.calls.set(k);
        if k == 2 || k == 5 {
            f_new[0] = f64::NAN;
        }
    }
}

#[test]
fn hostile_channel_reseeds_the_accelerated_loop_on_every_backend() {
    let client = client();
    let kernel = client.kernel();
    let points: Vec<Point> =
        (0..4_000).map(|i| Point::new(0.3 + 0.0001 * i as f64, 0.6 - 0.0001 * i as f64)).collect();
    let counts = client.report_batch(&points, 5, Some(1));
    let d = D as usize;
    let smoother = move |f: &mut [f64]| smooth_2d(d, f);
    for backend in BACKENDS {
        for post in [PostProcess::Em, PostProcess::Ems] {
            let inner: Box<dyn ChannelOp> = match backend.resolve(kernel.d(), kernel.b_hat()) {
                EmBackend::Convolution => Box::new(kernel.conv_channel()),
                EmBackend::Dense => Box::new(kernel.channel()),
                _ => Box::new(kernel.fft_channel()),
            };
            let hostile = Hostile { inner, calls: Cell::new(0) };
            let smoother: Option<&dyn Fn(&mut [f64])> = match post {
                PostProcess::Em => None,
                PostProcess::Ems => Some(&smoother),
            };
            let run = expectation_maximization(
                &hostile,
                &counts,
                None,
                smoother,
                EmParams::streaming(),
                &mut EmWorkspace::new(),
            );
            let label = format!("{backend:?}/{post:?}");
            assert_eq!(run.health.reseeds, 2, "{label}: both NaN maps must reseed");
            assert!(run.iters > 6, "{label}: the run must go on after a reseed");
            assert_valid_distribution(&run.estimate, &label);
        }
    }
}
