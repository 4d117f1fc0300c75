//! Degenerate-input robustness: PostProcess must return a finite,
//! normalized estimate — never panic — on the pathological inputs a
//! faulty or empty stream can produce, and the production spectral
//! operator must handle them the way the dense reference channel does.
//!
//! The three shapes pinned here: an **empty report set** (no observations
//! at all), **all mass in one cell** (a spike the deconvolution has to
//! spread), and a **zero-count window** reached through the user-facing
//! aggregator rather than the raw EM entry point. A **hostile channel**
//! pins the divergence guard of the accelerated (evidence-stopped) EM
//! loop on both operators, and an **adversarial sweep** pins that no
//! finite plane drives the spectral operator into that guard.

use dam_core::em2d::smooth_2d;
use dam_core::grid::KernelKind;
use dam_core::{DamAggregator, DamClient, DamConfig, DiscreteKernel};
use dam_fo::em::{expectation_maximization, ChannelOp, EmParams, EmWorkspace};
use dam_geo::{BoundingBox, CellIndex, Grid2D, Point};
use std::cell::Cell;

const D: u32 = 12;

/// The production spectral operator and the dense reference channel.
const OPERATORS: [&str; 2] = ["fft", "dense"];

fn client() -> DamClient {
    DamClient::new(Grid2D::new(BoundingBox::unit(), D), &DamConfig::dam(2.0))
}

/// The channel behind `op` (one of [`OPERATORS`]).
fn channel(op: &str, kernel: &DiscreteKernel) -> Box<dyn ChannelOp> {
    match op {
        "fft" => Box::new(kernel.fft_channel()),
        _ => Box::new(kernel.channel()),
    }
}

/// The two PostProcess flavours: plain EM, and EMS (the EM loop with
/// `smooth_2d` as its smoother).
const FLAVOURS: [&str; 2] = ["EM", "EMS"];

/// The EM loop's smoother for `flavour` on a `d × d` grid.
fn smoother(flavour: &str, d: usize) -> Option<Box<dyn Fn(&mut [f64])>> {
    let smooth = move |f: &mut [f64]| smooth_2d(d, f);
    (flavour == "EMS").then(|| Box::new(smooth) as Box<dyn Fn(&mut [f64])>)
}

/// PostProcess on `op`: one cold EM run in `flavour`.
fn post_process(
    op: &str,
    client: &DamClient,
    counts: &[f64],
    flavour: &str,
    params: EmParams,
) -> Vec<f64> {
    let smooth = smoother(flavour, client.grid().d() as usize);
    let channel = channel(op, client.kernel());
    expectation_maximization(
        &*channel,
        counts,
        None,
        smooth.as_deref(),
        params,
        &mut EmWorkspace::new(),
    )
    .estimate
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
    for op in OPERATORS {
        for flavour in FLAVOURS {
            let values = post_process(op, &client, &counts, flavour, EmParams::default());
            let label = format!("{op}/{flavour}");
            assert_valid_distribution(&values, &label);
            assert!(
                values.iter().all(|v| (v - uniform).abs() < 1e-12),
                "{label}: empty input must fall back to uniform"
            );
        }
    }
}

#[test]
fn zero_count_window_through_the_aggregator_does_not_panic() {
    let client = client();
    let agg = DamAggregator::new(&client);
    let hist = agg.estimate(EmParams::default());
    assert_valid_distribution(hist.values(), "aggregator");
}

#[test]
fn all_mass_in_one_cell_agrees_across_backends() {
    let client = client();
    let mut agg = DamAggregator::new(&client);
    let out_d = client.kernel().out_d();
    let center = out_d / 2;
    for _ in 0..50_000 {
        agg.ingest(CellIndex::new(center, center));
    }
    let mut counts = vec![0.0; client.kernel().n_out()];
    counts[(center * out_d + center) as usize] = 50_000.0;
    let em = EmParams::default();
    let reference = post_process("dense", &client, &counts, "EM", em);
    assert_valid_distribution(&reference, "dense");
    // The spike must actually concentrate mass (the wide ε = 2 disk
    // spreads it, but the estimate must not be the uniform fallback).
    let peak = reference.iter().cloned().fold(0.0f64, f64::max);
    assert!(peak > 1.5 / (D * D) as f64, "spike washed out: peak {peak}");
    // The spectral path rounds through an FFT/iFFT pair per iteration;
    // over a full EM run it gets the looser certified bound (cf.
    // `conv_equivalence.rs`).
    let hist = agg.estimate(em);
    assert_valid_distribution(hist.values(), "fft");
    let max_diff =
        hist.values().iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    assert!(max_diff <= 1e-6, "fft drifts from dense by {max_diff}");
}

/// An operator whose M-step turns one cell NaN on its 2nd and
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
    for op in OPERATORS {
        for flavour in FLAVOURS {
            let inner = channel(op, kernel);
            let hostile = Hostile { inner, calls: Cell::new(0) };
            let smooth = smoother(flavour, D as usize);
            let run = expectation_maximization(
                &hostile,
                &counts,
                None,
                smooth.as_deref(),
                EmParams::streaming(),
                &mut EmWorkspace::new(),
            );
            let label = format!("{op}/{flavour}");
            assert_eq!(run.health.reseeds, 2, "{label}: both NaN maps must reseed");
            assert!(run.iters > 6, "{label}: the run must go on after a reseed");
            assert_valid_distribution(&run.estimate, &label);
        }
    }
}

/// No finite plane drives the spectral operator into the divergence
/// guard: the E-step is `q̂·Σf + conv` with `q̂ > 0`, and the weights are
/// guarded by `p.max(1e-300)` and `p ≤ 0 → w = 0`, so a finite input
/// cannot make the transform pair produce a non-finite map. The sweep
/// crosses extreme budgets (`q̂` down to ~1e-13 at ε = 30), the `b̂ = 0`
/// and `d = 1` corners, every kernel family, four adversarial planes
/// (a 1e15 one-cell spike among them), EM and EMS, and both the
/// fixed-budget and the evidence stop.
#[test]
fn adversarial_planes_never_reseed_the_spectral_operator() {
    let shapes: [(f64, u32, u32, Option<KernelKind>); 6] = [
        (0.1, 20, 14, Some(KernelKind::Shrunken)),
        (30.0, 13, 0, Some(KernelKind::Shrunken)),
        (30.0, 20, 1, None),
        (9.0, 5, 4, Some(KernelKind::NonShrunken)),
        (3.5, 1, 4, None),
        (20.0, 2, 14, Some(KernelKind::Shrunken)),
    ];
    let budget = EmParams { max_iters: 100, rel_tol: 0.0, gain_tol: 0.0 };
    for (eps, d, b_hat, kind) in shapes {
        let kernel = match kind {
            Some(kind) => DiscreteKernel::dam(eps, d, b_hat, kind),
            None => DiscreteKernel::huem(eps, d, b_hat),
        };
        let fft = kernel.fft_channel();
        let n_out = kernel.n_out();
        let mut spike = vec![0.0; n_out];
        spike[n_out / 2] = 1e15;
        let mut corner = vec![0.0; n_out];
        corner[0] = 1.0;
        let checker: Vec<f64> = (0..n_out)
            .map(|o| if (o / kernel.out_d() as usize + o).is_multiple_of(2) { 1e6 } else { 0.0 })
            .collect();
        let planes = [
            ("spike", spike),
            ("zero", vec![0.0; n_out]),
            ("corner", corner),
            ("checker", checker),
        ];
        for (plane, counts) in &planes {
            for flavour in FLAVOURS {
                let smooth = smoother(flavour, d as usize);
                for params in [budget, EmParams::streaming()] {
                    let run = expectation_maximization(
                        &fft,
                        counts,
                        None,
                        smooth.as_deref(),
                        params,
                        &mut EmWorkspace::new(),
                    );
                    let label = format!(
                        "eps {eps} d {d} b {b_hat} {kind:?} {plane} {flavour} max_iters {}",
                        params.max_iters
                    );
                    assert_eq!(run.health.reseeds, 0, "{label}: the spectral map diverged");
                    assert_valid_distribution(&run.estimate, &label);
                }
            }
        }
    }
}
