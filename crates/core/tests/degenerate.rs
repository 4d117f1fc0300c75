//! Degenerate-input robustness: PostProcess must return a finite,
//! normalized estimate — never panic — on the pathological inputs a
//! faulty or empty stream can produce, and every backend (dense, stencil,
//! spectral, auto) must handle them the same way.
//!
//! The three shapes pinned here: an **empty report set** (no observations
//! at all), **all mass in one cell** (a spike the deconvolution has to
//! spread), and a **zero-count window** reached through the user-facing
//! aggregator rather than the raw EM entry point.

use dam_core::{DamAggregator, DamClient, DamConfig, EmBackend, EmOperator, PostProcess};
use dam_fo::em::{EmParams, EmWorkspace};
use dam_geo::{BoundingBox, CellIndex, Grid2D};

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
